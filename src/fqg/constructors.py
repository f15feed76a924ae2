"""The two fundamental quantum groups attached to a finite group.

``function_algebra`` builds the pointwise algebra of functions with the
group-law coproduct; ``group_algebra`` builds the group ring with grouplike
coproduct.  Both come with their Haar data filled in and pass the full
verification battery by construction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product

from .algebra import StarAlgebra
from .fourier import dual_pair
from .groups import FiniteGroup
from .hopf import QuantumGroup
from .linalg import LinearMap, vec_eq, vec_scale
from .report import Check, Report, sweep
from .scalar import CFloat, backend_cached, backend_name, scalar


@backend_cached
def function_algebra(group: FiniteGroup) -> QuantumGroup:
    """Functions on the group: pointwise product, Δ(δ_g) = Σ_{ab=g} δ_a⊗δ_b."""
    n = group.order
    one = scalar(1)
    e = group.identity
    mult = {(i, i): {i: one} for i in range(n)}
    unit = {i: one for i in range(n)}
    star = LinearMap.identity(n, one)
    algebra = StarAlgebra(n, mult, unit, star, "fun(%s)" % (group.label or group.order))

    delta_cols = []
    for g in range(n):
        col = {}
        for a in range(n):
            b = group.mul(group.inv(a), g)
            col[a * n + b] = one
        delta_cols.append(col)
    coproduct = LinearMap(n, n * n, delta_cols)

    counit = LinearMap(n, 1, [{0: one} if i == e else {} for i in range(n)])
    antipode = LinearMap(n, n, [{group.inv(g): one} for g in range(n)])
    w = scalar(Fraction(1, n))
    haar = LinearMap(n, 1, [{0: w} for _ in range(n)])
    eta = {e: one}
    return QuantumGroup(algebra, coproduct, counit, antipode, haar, eta,
                        "fun(%s)" % (group.label or group.order))


@backend_cached
def group_algebra(group: FiniteGroup) -> QuantumGroup:
    """The group ring: λ_g λ_h = λ_{gh}, grouplike coproduct, λ_g* = λ_{g⁻¹}."""
    n = group.order
    one = scalar(1)
    e = group.identity
    mult = {(i, j): {group.mul(i, j): one} for i in range(n) for j in range(n)}
    unit = {e: one}
    star = LinearMap(n, n, [{group.inv(g): one} for g in range(n)])
    algebra = StarAlgebra(n, mult, unit, star, "grp(%s)" % (group.label or group.order))

    coproduct = LinearMap(n, n * n, [{g * n + g: one} for g in range(n)])
    counit = LinearMap(n, 1, [{0: one} for _ in range(n)])
    antipode = LinearMap(n, n, [{group.inv(g): one} for g in range(n)])
    haar = LinearMap(n, 1, [{0: one} if g == e else {} for g in range(n)])
    w = scalar(Fraction(1, n))
    eta = {g: w for g in range(n)}
    return QuantumGroup(algebra, coproduct, counit, antipode, haar, eta,
                        "grp(%s)" % (group.label or group.order))


def quantum_group_data_equal(a: QuantumGroup, b: QuantumGroup) -> bool:
    """Structure-by-structure equality of two quantum groups on matching bases."""
    if a.dim != b.dim:
        return False
    keys = set(a.algebra.mult) | set(b.algebra.mult)
    for k in keys:
        if not vec_eq(a.algebra.mult.get(k, {}), b.algebra.mult.get(k, {})):
            return False
    return (vec_eq(a.algebra.unit, b.algebra.unit)
            and a.algebra.star == b.algebra.star
            and a.coproduct == b.coproduct
            and a.counit == b.counit
            and a.antipode == b.antipode
            and a.haar_state == b.haar_state
            and vec_eq(a.haar_element, b.haar_element))


def check_fundamental_examples(group: FiniteGroup) -> Report:
    """Convolution formulas on both constructions and the duality between them.

    Includes the Hopf isomorphism dual(fun(Γ)) ≅ grp(Γ) induced by
    F(δ_g) ↦ (1/|Γ|) λ_g, which on these coordinates is the identity map.
    """
    n = group.order
    one = scalar(1)
    w = scalar(Fraction(1, n))
    fun = function_algebra(group)
    grp = group_algebra(group)

    from .fourier import conv_table

    ct_fun, ct_grp = conv_table(fun), conv_table(grp)
    pair, pair_grp = dual_pair(fun), dual_pair(grp)
    fr = pair.fourier
    big = scalar(n)

    # the dual coproduct makes F(δ_g) grouplike up to the factor n, which is
    # exactly what the isomorphism F(δ_g) ↦ (1/n)λ_g needs to intertwine the
    # grouplike coproduct of the group ring
    def grouplike(g):
        fg = fr.cols[g]
        rhs = {i * n + j: big * ci * cj for i, ci in fg.items() for j, cj in fg.items()}
        return vec_eq(pair.dual.coproduct.apply(fg), rhs)

    fun_iso = quantum_group_data_equal(pair.dual, grp)
    grp_iso = quantum_group_data_equal(pair_grp.dual, fun)
    checks = [
        sweep("fun_convolution_formula", product(range(n), repeat=2),
              lambda gh: vec_eq(ct_fun.get(gh, {}), {group.mul(*gh): w})),
        sweep("fun_conv_adjoint_formula", range(n),
              lambda g: vec_eq(fun.bullet_vec({g: one}), {group.inv(g): one})),
        sweep("grp_convolution_formula", product(range(n), repeat=2),
              lambda gh: vec_eq(ct_grp.get(gh, {}), {gh[1]: one} if gh[0] == gh[1] else {})),
        sweep("grp_conv_adjoint_formula", range(n),
              lambda g: vec_eq(grp.bullet_vec({g: one}), {g: one})),
        sweep("fun_fourier_matrix", range(n), lambda g: vec_eq(fr.cols[g], {g: w})),
        sweep("fourier_product_formula", product(range(n), repeat=2),
              lambda gg: vec_eq(pair.dual.algebra.multiply_vec(fr.cols[gg[0]], fr.cols[gg[1]]),
                                vec_scale(fr.cols[group.mul(*gg)], w))),
        sweep("fourier_coproduct_grouplike", range(n), grouplike),
        Check("dual_of_fun_is_grp", fun_iso, () if fun_iso else ("data",)),
        sweep("grp_fourier_formula", range(n),
              lambda g: vec_eq(pair_grp.fourier.cols[g], {group.inv(g): one})),
        Check("dual_of_grp_is_fun", grp_iso, () if grp_iso else ("data",)),
    ]
    return Report("fundamental(%s)" % (group.label or group.order), checks)


def pontryagin_character_check(n: int) -> Report:
    """Float-backend check that grp(Z_n) is isomorphic to fun(Z_n) through the
    character basis change λ_g ↦ Σ_x ω^{gx} δ_x (ω a primitive n-th root).

    Needs roots of unity, so the exact backend refuses to run it.
    """
    if backend_name() != "float":
        raise RuntimeError("character basis change needs the float backend")
    from .groups import cyclic

    group = cyclic(n)
    fun = function_algebra(group)
    grp = group_algebra(group)
    cols = []
    for g in range(n):
        col = {}
        for x in range(n):
            z = cmath.exp(2j * cmath.pi * g * x / n)
            col[x] = CFloat(z.real, z.imag)
        cols.append(col)
    t = LinearMap(n, n, cols)

    checks = [
        sweep("multiplicative", product(range(n), repeat=2),
              lambda gh: vec_eq(t.apply(grp.algebra.basis_product(*gh)),
                                fun.algebra.multiply_vec(t.cols[gh[0]], t.cols[gh[1]]))),
        Check("unital", vec_eq(t.apply(grp.algebra.unit), fun.algebra.unit), ()),
        sweep("star_preserving", range(n),
              lambda g: vec_eq(t.apply(grp.algebra.star.cols[g]),
                               fun.algebra.star_vec(t.cols[g]))),
        Check("coproduct_intertwined",
              fun.coproduct.compose(t) == t.tensor(t).compose(grp.coproduct), ()),
        Check("counit_intertwined", fun.counit.compose(t) == grp.counit, ()),
        Check("antipode_intertwined", fun.antipode.compose(t) == t.compose(grp.antipode), ()),
        Check("haar_intertwined", fun.haar_state.compose(t) == grp.haar_state, ()),
    ]
    return Report("characters(Z%d)" % n, checks)
