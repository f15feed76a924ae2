"""Quantum families of maps α: A → A⊗B and the automorphism-family predicates.

A family is a concrete linear map from the algebra of a finite quantum group
into its tensor product with a unital *-algebra B.  The battery decides:
unital *-homomorphism, the Podles spanning condition, preservation of the
convolution product / adjoint / Haar element / counit / Haar state, and the
duality predicates through the Fourier transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (InvalidDataError, StarAlgebra, hom_check, scalar_algebra, tensor_algebra,
                      tensor_vec)
from .constructors import quantum_group_data_equal
from .fourier import DualPair, convolution_algebra, dual_pair
from .hopf import QuantumGroup, check_hopf_morphism
from .linalg import (LinearMap, flip_map, leg_apply, leg_compose, rank_of_vectors, vec_eq,
                     vec_scale)
from .report import Check, Report, first_failure, sweep
from .scalar import EXACT, backend_name, object_cache, scalar


@dataclass(frozen=True)
class HopfOnTarget:
    """Coproduct/counit data when the index algebra B is itself a (finite)
    compact quantum group."""

    coproduct: LinearMap
    counit: LinearMap

    def opposite(self) -> "HopfOnTarget":
        m = self.coproduct.source_dim
        sigma = flip_map(m, m, scalar(1))
        return HopfOnTarget(sigma.compose(self.coproduct), self.counit)


class QuantumFamily:
    __slots__ = ("source", "target_algebra", "alpha", "hopf_on_target", "label", "_cache")

    def __init__(self, source: QuantumGroup, target_algebra: StarAlgebra,
                 alpha: LinearMap, hopf_on_target: HopfOnTarget | None = None,
                 label=""):
        n = source.dim
        m = target_algebra.dim
        if alpha.source_dim != n or alpha.target_dim != n * m:
            raise InvalidDataError("family map must be %d x %d" % (n * m, n))
        if hopf_on_target is not None:
            cp, cu = hopf_on_target.coproduct, hopf_on_target.counit
            if cp.source_dim != m or cp.target_dim != m * m:
                raise InvalidDataError("target coproduct must be %d x %d" % (m * m, m))
            if cu.source_dim != m or cu.target_dim != 1:
                raise InvalidDataError("target counit must be 1 x %d" % m)
        self.source = source
        self.target_algebra = target_algebra
        self.alpha = alpha
        self.hopf_on_target = hopf_on_target
        self.label = label or "family(%s -> %s)" % (source.label, target_algebra.label)
        self._cache = {}

    def __repr__(self):
        return "QuantumFamily(%r)" % (self.label,)


def identity_family(g: QuantumGroup, target: StarAlgebra | None = None,
                    hopf_on_target: HopfOnTarget | None = None) -> QuantumFamily:
    """The family a ↦ a⊗1 over B (default: the one-dimensional algebra)."""
    if target is None:
        target = scalar_algebra()
    n, m = g.dim, target.dim
    cols = []
    for j in range(n):
        cols.append(tensor_vec({j: scalar(1)}, target.unit, m))
    alpha = LinearMap(n, n * m, cols)
    return QuantumFamily(g, target, alpha, hopf_on_target,
                         "identity(%s)" % g.label)


# -- the basic predicate battery ----------------------------------------------


def functional_predicate(qf: QuantumFamily, f: LinearMap):
    """i ↦ whether (f⊗id)α(e_i) = f(e_i)·1, for a 1 x n functional f."""
    b = qf.target_algebra
    return lambda i: vec_eq(leg_apply(f, qf.alpha.cols[i], b.dim, 0),
                            vec_scale(b.unit, f.cols[i].get(0)))


def _pointwise(alpha: LinearMap, m: int) -> list:
    """Per column j of α: A → A⊗B, dim B = m, {q: {x: c}} for α(e_j) =
    Σ c·e_x⊗e_q: the image of e_j under (id⊗e_q*)α at each q it reaches."""
    split = [{} for _ in alpha.cols]
    for per_q, col in zip(split, alpha.cols):
        for r, c in col.items():
            per_q.setdefault(r % m, {})[r // m] = c
    return split


@object_cache
def check_family(qf: QuantumFamily) -> Report:
    """Unital *-homomorphism property and the Podles spanning condition.

    ``unital_star_hom`` is certified on the generators of the source algebra
    on the exact backend (see :func:`hom_check`)."""
    a, n, m = qf.source.algebra, qf.source.dim, qf.target_algebra.dim
    alpha = qf.alpha
    checks = [hom_check("unital_star_hom", a, a, alpha, b=qf.target_algebra)]

    rank = rank_of_vectors([v for per_q in _pointwise(alpha, m) for v in per_q.values()], n)
    checks.append(Check("podles", rank == n, () if rank == n else (rank,)))

    return Report(qf.label, checks)


@object_cache
def check_convolution_preservation(qf: QuantumFamily) -> Report:
    """Which convolution structure the family preserves.

    conv_product:  α(a⋆b) = (μ⊗m)(id⊗σ⊗id)(α(a)⊗α(b))
    conv_adjoint:  (•⊗*)∘α = α∘•
    haar_element:  α(η) = η⊗1
    counit:        (ε⊗id)α = ε(·)1
    haar_state:    (h⊗id)α = h(·)1

    ``conv_product`` and ``conv_adjoint`` are the multiplicative and star
    identities of :func:`hom_check` for α on the convolution algebra, so on
    the exact backend ``conv_product`` is certified as ``unital_star_hom``
    is, on the generators of ⋆.
    """
    g = qf.source
    b = qf.target_algebra
    n, m = g.dim, b.dim
    alpha = qf.alpha
    conv = convolution_algebra(g)

    eta_ok = vec_eq(alpha.apply(g.haar_element), tensor_vec(g.haar_element, b.unit, m))
    checks = [
        hom_check("conv_product", conv, conv, alpha, ("multiplicative",), b),
        hom_check("conv_adjoint", conv, conv, alpha, ("star",), b),
        Check("haar_element", eta_ok, ()),
        sweep("counit", range(n), functional_predicate(qf, g.counit)),
        sweep("haar_state", range(n), functional_predicate(qf, g.haar_state)),
    ]

    return Report(qf.label, checks)


# -- duality ---------------------------------------------------------------------


def _dual_route(pair: DualPair) -> LinearMap:
    """h(η)⁻¹·F̂∘Ŝ, which :func:`hat` composes with (F⊗id)∘α as its second
    route; the first composes with F⁻¹."""
    return pair.fourier_dual.compose(pair.dual.antipode).scale(pair.primal.haar_of_eta().inv())


@object_cache
def _routes_agree(pair: DualPair) -> bool:
    """Whether F⁻¹ = h(η)⁻¹·F̂∘Ŝ: the two routes of :func:`hat` agree on
    the pair itself, before any family is composed with them."""
    return pair.fourier_inv == _dual_route(pair)


def _dual_family_map(pair: DualPair, f_alpha: LinearMap) -> LinearMap:
    """f∘F⁻¹ for f = (F⊗id)∘α, checked against the second route
    f∘(h(η)⁻¹·F̂∘Ŝ); a mismatch raises AssertionError.  On the exact backend,
    when :func:`_routes_agree` holds for the pair, f∘F⁻¹ equals the second
    route for every f, so only the first is built."""
    via_inverse = f_alpha.compose(pair.fourier_inv)
    if backend_name() == EXACT and _routes_agree(pair):
        return via_inverse
    if via_inverse != f_alpha.compose(_dual_route(pair)):
        raise AssertionError(
            "the two dual-family formulas disagree; duality layer is inconsistent")
    return via_inverse


@object_cache
def hat(qf: QuantumFamily) -> QuantumFamily:
    """The induced family on the dual, computed by both closed formulas.

    The two routes (through the dual transform composed with the dual
    antipode, and through conjugation by the transform alone) must agree for
    every linear map; a mismatch means the duality layer itself is broken.
    On the exact backend they are compared once per dual pair, on the n x n
    matrices F⁻¹ and h(η)⁻¹·F̂∘Ŝ (:func:`_routes_agree`); only where those
    differ, and on the float backend, are they compared per family.
    """
    pair = dual_pair(qf.source)
    b = qf.target_algebra
    f_alpha = leg_compose(pair.fourier, qf.alpha, b.dim, 0)  # (F⊗id)∘α
    return QuantumFamily(pair.dual, b, _dual_family_map(pair, f_alpha), qf.hopf_on_target,
                         "hat(%s)" % qf.label)


def double_hat_formula_matches(qf: QuantumFamily) -> bool:
    """hat(hat(α)) must equal (S⊗id)∘α∘S on the double-dual identification."""
    anti = qf.source.antipode
    target = leg_compose(anti, qf.alpha, qf.target_algebra.dim, 0).compose(anti)
    return hat(hat(qf)).alpha == target


@object_cache
def verify_dual_equivalences(qf: QuantumFamily) -> Report:
    """The four if-and-only-if links between a family and its dual family.

    Each check evaluates BOTH sides of one equivalence and passes when the
    booleans agree (true/true or false/false); the witness records the pair.
    """
    conv = check_convolution_preservation(qf)
    qf_hat = hat(qf)
    n = qf_hat.source.dim

    def hat_holds(identity):
        a = qf_hat.source.algebra
        return hom_check(identity, a, a, qf_hat.alpha, (identity,), qf_hat.target_algebra).passed

    haar = functional_predicate(qf_hat, qf_hat.source.haar_state)
    items = [
        ("item1_multiplicative", conv.check("conv_product").passed, hat_holds("multiplicative")),
        ("item2_star", conv.check("conv_adjoint").passed, hat_holds("star")),
        ("item3_unital", conv.check("haar_element").passed, hat_holds("unit")),
        ("item4_haar_state", conv.check("counit").passed,
         first_failure(range(n), haar) is None),
    ]
    checks = [Check(name, primal == dual, (primal, dual))
              for name, primal, dual in items]
    return Report(qf.label, checks)


@object_cache
def is_automorphism_family(qf: QuantumFamily, deep: bool = True):
    """Decide the automorphism-family property; returns (bool, report).

    The property is: unital *-homomorphism + Podles + preservation of the
    convolution product, the convolution adjoint, and the Haar element.
    When it holds and ``deep`` is set, the double-dual identity and the
    dual-family property are checked as well and included in the report.
    """
    fam = check_family(qf)
    conv = check_convolution_preservation(qf)
    checks = [fam.check("unital_star_hom"), fam.check("podles"),
              conv.check("conv_product"), conv.check("conv_adjoint"),
              conv.check("haar_element")]
    verdict = all(c.passed for c in checks)
    if verdict and deep:
        ok = double_hat_formula_matches(qf)
        checks.append(Check("double_hat_identity", ok, ()))
        dual_ok, _ = is_automorphism_family(hat(qf), deep=False)
        checks.append(Check("dual_family_automorphism", dual_ok, ()))
        verdict = verdict and ok and dual_ok
    return verdict, Report(qf.label, checks)


# -- composition and actions -----------------------------------------------------


def compose(beta: QuantumFamily, gamma: QuantumFamily) -> QuantumFamily:
    """Composition (β⊗id)∘γ over the tensor product of the index algebras.
    Both families must be on the same quantum group: the same object, or
    two with equal structure data (:func:`quantum_group_data_equal`)."""
    g = beta.source
    if gamma.source is not g and not quantum_group_data_equal(g, gamma.source):
        raise InvalidDataError("composition needs families on the same quantum group")
    c = gamma.target_algebra
    target = tensor_algebra(beta.target_algebra, c)
    alpha = leg_compose(beta.alpha, gamma.alpha, c.dim, 0)

    hopf = None
    if beta.hopf_on_target is not None and gamma.hopf_on_target is not None:
        hb, hc = beta.hopf_on_target, gamma.hopf_on_target
        hopf = HopfOnTarget(_tensor_coproduct(hb.coproduct, hc.coproduct),
                            hb.counit.tensor(hc.counit))
    return QuantumFamily(g, target, alpha, hopf,
                         "compose(%s, %s)" % (beta.label, gamma.label))


def _tensor_coproduct(delta_b: LinearMap, delta_c: LinearMap) -> LinearMap:
    """Δ(b⊗c) = Σ (b₁⊗c₁)⊗(b₂⊗c₂) on B⊗C from the entries of Δ_B and Δ_C:
    with m = dim B·dim C, rows (b₁, b₂) and (c₁, c₂) meet at row
    (b₁·dim C + c₁)·m + b₂·dim C + c₂, a part from each side."""
    mb, mc = delta_b.source_dim, delta_c.source_dim
    m = mb * mc
    lefts = [[(r // mb * mc * m + r % mb * mc, s) for r, s in col.items()]
             for col in delta_b.cols]
    rights = [[(r // mc * m + r % mc, t) for r, t in col.items()] for col in delta_c.cols]
    return LinearMap(m, m * m, [{p + q: s * t for p, s in left for q, t in right}
                                for left in lefts for right in rights])


@object_cache
def check_action(qf: QuantumFamily) -> Report:
    """The action equation (id⊗Δ_B)∘α = (α⊗id)∘α for a Hopf index algebra."""
    if qf.hopf_on_target is None:
        raise InvalidDataError("action check needs coproduct data on the target")
    m = qf.target_algebra.dim
    alpha = qf.alpha
    cp = qf.hopf_on_target.coproduct
    return Report(qf.label, [sweep(
        "action_equation", range(qf.source.dim),
        lambda j: vec_eq(leg_apply(cp, alpha.cols[j], m, 1),
                         leg_apply(alpha, alpha.cols[j], m, 0)))])


@object_cache
def slice_commutative(qf: QuantumFamily):
    """Slice a family over a pointwise (functions-on-a-finite-set) algebra.

    Returns one linear map per point; each is verified to be a bijective
    Hopf *-algebra automorphism of the source.  Non-pointwise index algebras
    are rejected.
    """
    b = qf.target_algebra
    if not b.has_pointwise_basis():
        raise InvalidDataError(
            "slicing needs a commutative index algebra with the pointwise basis")
    g = qf.source
    n, m = g.dim, b.dim
    cols = [[{} for _ in range(n)] for _ in range(m)]  # per point, the columns of its slice
    for j, per_q in enumerate(_pointwise(qf.alpha, m)):
        for q, v in per_q.items():
            cols[q][j] = v
    maps = [LinearMap(n, n, point_cols) for point_cols in cols]
    for point, psi in enumerate(maps):
        _verify_hopf_automorphism(g, psi, point)
    return maps


# the checks of hopf.check_hopf_morphism, in the order a slice is refused for them
SLICE_REFUSALS = (("unital", "is not unital"),
                  ("multiplicative", "is not multiplicative"),
                  ("star_preserving", "is not a *-map"),
                  ("antipode_intertwined", "does not commute with the antipode"),
                  ("coproduct_intertwined", "does not intertwine the coproduct"),
                  ("counit_intertwined", "does not preserve the counit"),
                  ("haar_intertwined", "does not preserve the haar state"))


def _verify_hopf_automorphism(g: QuantumGroup, psi: LinearMap, point) -> None:
    if psi.rank() != g.dim:
        raise InvalidDataError("slice %r is not bijective" % (point,))
    report = check_hopf_morphism(g, g, psi)
    for name, refusal in SLICE_REFUSALS:
        if not report.check(name).passed:
            raise InvalidDataError("slice %r %s" % (point, refusal))
