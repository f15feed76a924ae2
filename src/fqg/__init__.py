"""Exact-arithmetic engine for finite quantum groups.

Finite-dimensional Hopf *-algebras are held as structure constants over
Gaussian rationals; the package builds the function algebra and group ring
of any finite group, the Fourier transform onto the dual quantum group, and
machine-checks whether a linear map into a tensor product is a quantum
family of automorphisms, including the full magic-unitary relation system
over classical groups.
"""

from .algebra import (BlockAlgebra, Element, InvalidDataError, StarAlgebra,
                      rank_of_span, scalar_algebra, tensor_algebra, verify_star_algebra)
from .classical import (MagicMatrix, automorphism_group, check_cyclic_identity,
                        check_dual_group_theorem, check_dualact_consequences,
                        check_magic_unitary, check_order_properties,
                        check_pointwise_relations, enumerate_automorphisms,
                        enumerate_automorphisms_brute, extract_matrix,
                        universal_classical_family)
from .constructors import (check_fundamental_examples, function_algebra,
                           group_algebra, pontryagin_character_check)
from .fourier import (DualPair, build_dual, conv_adjoint, convolve, check_iteration_lemma,
                      dual_pair, verify_fourier_identities)
from .groups import (CATALOG, FiniteGroup, cyclic, dihedral, direct_product,
                     group_from_table, klein4, named_group, quaternion8,
                     symmetric)
from .hopf import (QuantumGroup, check_haar_antipode_identity,
                   solve_haar_element, solve_haar_state, verify_quantum_group)
from .linalg import LinearMap
from .qfamily import (HopfOnTarget, QuantumFamily, check_action, check_family,
                      check_convolution_preservation, compose,
                      double_hat_formula_matches, hat, identity_family,
                      is_automorphism_family, slice_commutative,
                      verify_dual_equivalences)
from .report import Check, Report
from .scalar import (CFloat, QQi, backend_name, scalar, set_backend, tolerance,
                     use_backend)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
