"""Quantum families of maps α: A → A⊗B and the automorphism-family predicates.

A family is a concrete linear map from the algebra of a finite quantum group
into its tensor product with a unital *-algebra B.  The battery decides:
unital *-homomorphism, the Podles spanning condition, preservation of the
convolution product / adjoint / Haar element / counit / Haar state, and the
duality predicates through the Fourier transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (InvalidDataError, StarAlgebra, scalar_algebra,
                      tensor_algebra, tensor_mult, tensor_star, tensor_vec)
from .fourier import conv_table, dual_pair
from .hopf import QuantumGroup
from .linalg import (LinearMap, flip_map, leg_apply, rank_of_vectors,
                     vec_add_into, vec_eq, vec_scale)
from .report import Check, Report, first_failure, sweep
from .scalar import scalar


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


def hom_indices(n: int, identities=("unit", "multiplicative", "star")):
    """The tagged indices of α's *-homomorphism identities, in check order."""
    for identity in identities:
        if identity == "unit":
            yield ("unit",)
        elif identity == "multiplicative":
            yield from (("multiplicative", i, j) for i in range(n) for j in range(n))
        else:
            yield from (("star", i) for i in range(n))


def hom_predicate(qf: QuantumFamily):
    """Whether α satisfies the identity at a tagged index: ("unit",) for
    α(1) = 1⊗1, ("multiplicative", i, j) for α(e_i e_j) = α(e_i)α(e_j) and
    ("star", i) for α(e_i*) = α(e_i)*."""
    a, b, alpha = qf.source.algebra, qf.target_algebra, qf.alpha

    def holds(idx):
        if idx[0] == "unit":
            return vec_eq(alpha.apply(a.unit), tensor_vec(a.unit, b.unit, b.dim))
        if idx[0] == "multiplicative":
            i, j = idx[1:]
            return vec_eq(alpha.apply(a.basis_product(i, j)),
                          tensor_mult(a, b, alpha.cols[i], alpha.cols[j]))
        i = idx[1]
        return vec_eq(alpha.apply(a.star.cols[i]), tensor_star(a, b, alpha.cols[i]))
    return holds


def functional_predicate(qf: QuantumFamily, f: LinearMap):
    """i ↦ whether (f⊗id)α(e_i) = f(e_i)·1, for a 1 x n functional f."""
    b = qf.target_algebra
    return lambda i: vec_eq(leg_apply(f, qf.alpha.cols[i], b.dim, 0),
                            vec_scale(b.unit, f.cols[i].get(0)))


def check_family(qf: QuantumFamily) -> Report:
    """Unital *-homomorphism property and the Podles spanning condition."""
    cached = qf._cache.get("check_family")
    if cached is not None:
        return cached
    n, m = qf.source.dim, qf.target_algebra.dim
    alpha = qf.alpha
    checks = [sweep("unital_star_hom", hom_indices(n), hom_predicate(qf))]

    slices = []
    for j in range(n):
        per_q: dict = {}
        for r, c in alpha.cols[j].items():
            x, q = divmod(r, m)
            per_q.setdefault(q, {})[x] = c
        slices.extend(per_q.values())
    rank = rank_of_vectors(slices, n)
    checks.append(Check("podles", rank == n, () if rank == n else (rank,)))

    report = Report(qf.label, checks)
    qf._cache["check_family"] = report
    return report


def check_convolution_preservation(qf: QuantumFamily) -> Report:
    """Which convolution structure the family preserves.

    conv_product:  α(a⋆b) = (μ⊗m)(id⊗σ⊗id)(α(a)⊗α(b))
    conv_adjoint:  (•⊗*)∘α = α∘•
    haar_element:  α(η) = η⊗1
    counit:        (ε⊗id)α = ε(·)1
    haar_state:    (h⊗id)α = h(·)1
    """
    cached = qf._cache.get("conv_preservation")
    if cached is not None:
        return cached
    g = qf.source
    a = g.algebra
    b = qf.target_algebra
    n, m = a.dim, b.dim
    alpha = qf.alpha
    ct = conv_table(g)
    bullet = g.bullet_map()

    def conv_product(ij):
        i, j = ij
        rhs: dict = {}
        for p, cp in alpha.cols[i].items():
            x1, b1 = divmod(p, m)
            for q, cq in alpha.cols[j].items():
                x2, b2 = divmod(q, m)
                conv_terms = ct.get((x1, x2))
                if conv_terms is None:
                    continue
                b_terms = b.mult.get((b1, b2))
                if b_terms is None:
                    continue
                c = cp * cq
                for k1, c1 in conv_terms.items():
                    base = k1 * m
                    cc = c * c1
                    for k2, c2 in b_terms.items():
                        k = base + k2
                        cur = rhs.get(k)
                        t = cc * c2 if cur is None else cur + cc * c2
                        if t.is_zero():
                            rhs.pop(k, None)
                        else:
                            rhs[k] = t
        return vec_eq(alpha.apply(ct.get(ij, {})), rhs)

    def conv_adjoint(i):
        rhs: dict = {}
        for p, c in alpha.cols[i].items():
            x, q = divmod(p, m)
            vec_add_into(rhs, tensor_vec(bullet.cols[x], b.star.cols[q], m), c.conj())
        return vec_eq(alpha.apply(bullet.cols[i]), rhs)

    eta_ok = vec_eq(alpha.apply(g.haar_element), tensor_vec(g.haar_element, b.unit, m))
    checks = [
        sweep("conv_product", product(range(n), repeat=2), conv_product),
        sweep("conv_adjoint", range(n), conv_adjoint),
        Check("haar_element", eta_ok, ()),
        sweep("counit", range(n), functional_predicate(qf, g.counit)),
        sweep("haar_state", range(n), functional_predicate(qf, g.haar_state)),
    ]

    report = Report(qf.label, checks)
    qf._cache["conv_preservation"] = report
    return report


# -- duality ---------------------------------------------------------------------


def hat(qf: QuantumFamily) -> QuantumFamily:
    """The induced family on the dual, computed by both closed formulas.

    The two routes (through the dual transform composed with the dual
    antipode, and through conjugation by the transform alone) must agree for
    every linear map; a mismatch means the duality layer itself is broken.
    """
    cached = qf._cache.get("hat")
    if cached is not None:
        return cached
    g = qf.source
    pair = dual_pair(g)
    b = qf.target_algebra
    m = b.dim
    ident_b = LinearMap.identity(m, scalar(1))
    f_tensor = pair.fourier.tensor(ident_b)

    via_inverse = f_tensor.compose(qf.alpha).compose(pair.fourier_inv)
    h_eta = g.haar_of_eta()
    via_dual = f_tensor.compose(qf.alpha).compose(
        pair.fourier_dual.compose(pair.dual.antipode)).scale(h_eta.inv())
    if via_inverse != via_dual:
        raise AssertionError(
            "the two dual-family formulas disagree; duality layer is inconsistent")

    out = QuantumFamily(pair.dual, b, via_inverse, qf.hopf_on_target,
                        "hat(%s)" % qf.label)
    qf._cache["hat"] = out
    return out


def double_hat_formula_matches(qf: QuantumFamily) -> bool:
    """hat(hat(α)) must equal (S⊗id)∘α∘S on the double-dual identification."""
    hh = hat(hat(qf)).alpha
    g = qf.source
    ident_b = LinearMap.identity(qf.target_algebra.dim, scalar(1))
    target = g.antipode.tensor(ident_b).compose(qf.alpha).compose(g.antipode)
    return hh == target


def verify_dual_equivalences(qf: QuantumFamily) -> Report:
    """The four if-and-only-if links between a family and its dual family.

    Each check evaluates BOTH sides of one equivalence and passes when the
    booleans agree (true/true or false/false); the witness records the pair.
    """
    cached = qf._cache.get("dual_equivalences")
    if cached is not None:
        return cached
    conv = check_convolution_preservation(qf)
    qf_hat = hat(qf)
    n = qf_hat.source.dim
    hom = hom_predicate(qf_hat)

    def hat_holds(identity):
        return first_failure(hom_indices(n, (identity,)), hom) is None

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
    report = Report(qf.label, checks)
    qf._cache["dual_equivalences"] = report
    return report


def is_automorphism_family(qf: QuantumFamily, deep: bool = True):
    """Decide the automorphism-family property; returns (bool, report).

    The property is: unital *-homomorphism + Podles + preservation of the
    convolution product, the convolution adjoint, and the Haar element.
    When it holds and ``deep`` is set, the double-dual identity and the
    dual-family property are checked as well and included in the report.
    """
    key = ("is_auto", deep)
    cached = qf._cache.get(key)
    if cached is not None:
        return cached
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
    result = (verdict, Report(qf.label, checks))
    qf._cache[key] = result
    return result


# -- composition and actions -----------------------------------------------------


def compose(beta: QuantumFamily, gamma: QuantumFamily) -> QuantumFamily:
    """Composition (β⊗id)∘γ over the tensor product of the index algebras."""
    if beta.source is not gamma.source and beta.source.dim != gamma.source.dim:
        raise InvalidDataError("composition needs families on the same quantum group")
    g = beta.source
    b = beta.target_algebra
    c = gamma.target_algebra
    mb, mc = b.dim, c.dim
    n = g.dim
    cols = [leg_apply(beta.alpha, col, mc, 0) for col in gamma.alpha.cols]
    target = tensor_algebra(b, c)
    alpha = LinearMap(n, n * target.dim, cols)

    hopf = None
    if beta.hopf_on_target is not None and gamma.hopf_on_target is not None:
        one = scalar(1)
        ident_b = LinearMap.identity(mb, one)
        ident_c = LinearMap.identity(mc, one)
        shuffle = ident_b.tensor(flip_map(mb, mc, one)).tensor(ident_c)
        cp = shuffle.compose(beta.hopf_on_target.coproduct.tensor(
            gamma.hopf_on_target.coproduct))
        cu = beta.hopf_on_target.counit.tensor(gamma.hopf_on_target.counit)
        # a 1x1 ⊗ 1x1 functional has target dim 1 already
        hopf = HopfOnTarget(cp, cu)
    return QuantumFamily(g, target, alpha, hopf,
                         "compose(%s, %s)" % (beta.label, gamma.label))


def check_action(qf: QuantumFamily) -> Report:
    """The action equation (id⊗Δ_B)∘α = (α⊗id)∘α for a Hopf index algebra."""
    cached = qf._cache.get("check_action")
    if cached is not None:
        return cached
    if qf.hopf_on_target is None:
        raise InvalidDataError("action check needs coproduct data on the target")
    m = qf.target_algebra.dim
    alpha = qf.alpha
    cp = qf.hopf_on_target.coproduct
    report = Report(qf.label, [sweep(
        "action_equation", range(qf.source.dim),
        lambda j: vec_eq(leg_apply(cp, alpha.cols[j], m, 1),
                         leg_apply(alpha, alpha.cols[j], m, 0)))])
    qf._cache["check_action"] = report
    return report


def slice_commutative(qf: QuantumFamily):
    """Slice a family over a pointwise (functions-on-a-finite-set) algebra.

    Returns one linear map per point; each is verified to be a bijective
    Hopf *-algebra automorphism of the source.  Non-pointwise index algebras
    are rejected.
    """
    cached = qf._cache.get("slices")
    if cached is not None:
        return cached
    b = qf.target_algebra
    if not b.has_pointwise_basis():
        raise InvalidDataError(
            "slicing needs a commutative index algebra with the pointwise basis")
    g = qf.source
    a = g.algebra
    n, m = g.dim, b.dim
    maps = []
    for point in range(m):
        cols = [dict() for _ in range(n)]
        for j in range(n):
            for r, c in qf.alpha.cols[j].items():
                x, q = divmod(r, m)
                if q == point:
                    cols[j][x] = c
        psi = LinearMap(n, n, cols)
        _verify_hopf_automorphism(g, psi, point)
        maps.append(psi)
    qf._cache["slices"] = maps
    return maps


def _verify_hopf_automorphism(g: QuantumGroup, psi: LinearMap, point) -> None:
    a = g.algebra
    n = a.dim
    if psi.rank() != n:
        raise InvalidDataError("slice %r is not bijective" % (point,))
    if not vec_eq(psi.apply(a.unit), a.unit):
        raise InvalidDataError("slice %r is not unital" % (point,))
    for i in range(n):
        for j in range(n):
            if not vec_eq(psi.apply(a.basis_product(i, j)),
                          a.multiply_vec(psi.cols[i], psi.cols[j])):
                raise InvalidDataError("slice %r is not multiplicative" % (point,))
    for i in range(n):
        if not vec_eq(psi.apply(a.star.cols[i]), a.star_vec(psi.cols[i])):
            raise InvalidDataError("slice %r is not a *-map" % (point,))
    if psi.compose(g.antipode) != g.antipode.compose(psi):
        raise InvalidDataError("slice %r does not commute with the antipode" % (point,))
    if g.coproduct.compose(psi) != psi.tensor(psi).compose(g.coproduct):
        raise InvalidDataError("slice %r does not intertwine the coproduct" % (point,))
    if g.counit.compose(psi) != g.counit:
        raise InvalidDataError("slice %r does not preserve the counit" % (point,))
    if g.haar_state.compose(psi) != g.haar_state:
        raise InvalidDataError("slice %r does not preserve the haar state" % (point,))
