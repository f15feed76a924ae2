from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqg.algebra
import fqg.fourier
import fqg.hopf
import fqg.qfamily
from fqg.algebra import BlockAlgebra, InvalidDataError, StarAlgebra, scalar_algebra
from fqg.classical import enumerate_automorphisms, universal_classical_family
from fqg.constructors import function_algebra, group_algebra
from fqg.fourier import DualPair, convolution_algebra, dual_pair, verify_fourier_identities
from fqg.fixtures import (broken_adjoint_family, counit_degenerate_family,
                          target_permuted_family, translation_family, trivial_hopf_target)
from fqg.groups import cyclic, named_group
from fqg.hopf import (QuantumGroup, check_hopf_morphism, dual_algebra, dual_coproduct,
                      verify_quantum_group)
from fqg.linalg import LinearMap, flip_map, leg_compose
from fqg.qfamily import (QuantumFamily, check_action, check_family,
                         check_convolution_preservation, compose,
                         double_hat_formula_matches, hat, identity_family,
                         is_automorphism_family, slice_commutative,
                         verify_dual_equivalences)
from fqg.scalar import QQi, object_cache, scalar, use_backend

from support import accumulate, nonzero, perturbed

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=3)
entries = st.builds(QQi, fractions, fractions)


def test_identity_family_passes_everything():
    qf = identity_family(function_algebra(cyclic(3)))
    rep = check_family(qf)
    assert rep.passed
    rep = check_convolution_preservation(qf)
    assert rep.passed
    ok, _ = is_automorphism_family(qf)
    assert ok


def test_counit_degenerate_family_is_hom_but_rank_one():
    qf = counit_degenerate_family(function_algebra(cyclic(3)))
    rep = check_family(qf)
    assert rep.check("unital_star_hom").passed
    assert not rep.check("podles").passed
    assert rep.check("podles").witness == (1,)


def test_counit_degenerate_failure_set_frozen():
    # computed directly: on F(Z_2), α(δ_0 ⋆ δ_0) = (1/2)·1⊗1 but
    # α(δ_0) ⋆' α(δ_0) = 1⊗1, so the convolution product is NOT preserved;
    # the adjoint and counit survive, the Haar element and state do not.
    qf = counit_degenerate_family(function_algebra(cyclic(2)))
    rep = check_convolution_preservation(qf)
    got = {c.name: c.passed for c in rep.checks}
    assert got == {"conv_product": False, "conv_adjoint": True,
                   "haar_element": False, "counit": True, "haar_state": False}


def test_universal_family_preserves_all_convolution_structure():
    qf = universal_classical_family(named_group("D4"))
    rep = check_convolution_preservation(qf)
    assert rep.passed, rep.failed_names()


def test_hat_of_identity_is_identity():
    g = function_algebra(cyclic(4))
    qf = identity_family(g)
    h = hat(qf)
    assert h.alpha == qf.alpha  # same matrix on the dual coordinates
    assert h.source is not qf.source


def _random_family(coeffs):
    """An arbitrary linear map F(Z_3) -> F(Z_3)⊗C² from 18 coefficients."""
    g = function_algebra(cyclic(3))
    b = BlockAlgebra([1, 1])
    cols = []
    it = iter(coeffs)
    for j in range(3):
        col = {}
        for r in range(6):
            v = next(it)
            if not v.is_zero():
                col[r] = v
        cols.append(col)
    return QuantumFamily(g, b, LinearMap(3, 6, cols))


@given(st.lists(entries, min_size=18, max_size=18))
@settings(max_examples=20)
def test_hat_formulas_agree_for_arbitrary_linear_maps(coeffs):
    qf = _random_family(coeffs)
    hat(qf)  # raises if the two closed formulas disagree


def _second_route(pair, f_alpha):
    """f∘(h(η)⁻¹·F̂∘Ŝ), the route of ``hat`` through the dual transform."""
    return f_alpha.compose(pair.fourier_dual.compose(pair.dual.antipode)).scale(
        pair.primal.haar_of_eta().inv())


def _f_alpha(pair, qf):
    return leg_compose(pair.fourier, qf.alpha, qf.target_algebra.dim, 0)


@pytest.mark.parametrize("name", ["Z3", "S3", "Q8"])
def test_hat_routes_agree_once_per_pair(name, monkeypatch):
    """On a verified pair F⁻¹ = h(η)⁻¹·F̂∘Ŝ holds, so hat builds only the
    route through F⁻¹, which equals the second route; the per-pair test runs
    once for all the families on the pair."""
    original = fqg.qfamily._routes_agree.__wrapped__
    calls = []

    def counted(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(fqg.qfamily, "_routes_agree", object_cache(counted))
    qf = universal_classical_family(named_group(name))
    pair = dual_pair(qf.source)
    for family in (_fresh(qf), identity_family(qf.source)):
        f_alpha = _f_alpha(pair, family)
        assert hat(family).alpha == f_alpha.compose(pair.fourier_inv) \
            == _second_route(pair, f_alpha)
    assert len(calls) == 1 and fqg.qfamily._routes_agree(pair)


def test_hat_compares_per_family_when_the_pair_routes_differ():
    """A pair whose F⁻¹ has entry (r, c) doubled fails the per-pair test, so
    each family is compared on both routes: the map raises exactly when they
    differ, which is when α(e_r) != 0."""
    qf = universal_classical_family(named_group("S3"))
    good = dual_pair(qf.source)
    n = good.primal.dim
    cols = [dict(c) for c in good.fourier_inv.cols]
    r, c = next((r, c) for c, col in enumerate(cols) for r in col)
    cols[c][r] = cols[c][r] * scalar(2)
    bad = DualPair(good.primal, good.dual, good.fourier, LinearMap(n, n, cols),
                   good.fourier_dual)
    assert not fqg.qfamily._routes_agree(bad)
    killed = LinearMap(n, qf.alpha.target_dim, [{} if j == r else col
                                                for j, col in enumerate(qf.alpha.cols)])
    for alpha, differ in ((qf.alpha, True), (killed, False)):
        f_alpha = _f_alpha(bad, QuantumFamily(qf.source, qf.target_algebra, alpha))
        via_inverse = f_alpha.compose(bad.fourier_inv)
        assert (via_inverse != _second_route(bad, f_alpha)) is differ
        if differ:
            with pytest.raises(AssertionError, match="formulas disagree"):
                fqg.qfamily._dual_family_map(bad, f_alpha)
        else:
            assert fqg.qfamily._dual_family_map(bad, f_alpha) == via_inverse


def test_hat_routes_are_compared_per_family_on_the_float_backend(monkeypatch):
    """The per-pair test rests on exact equality, so the float backend never
    asks it and compares the two routes on every family."""
    def refused(pair):
        raise AssertionError("the per-pair route test is exact only")

    monkeypatch.setattr(fqg.qfamily, "_routes_agree", refused)
    with use_backend("float"):
        qf = universal_classical_family(named_group("S3"))
        pair = dual_pair(qf.source)
        assert hat(qf).alpha == _second_route(pair, _f_alpha(pair, qf))


@given(st.lists(entries, min_size=18, max_size=18))
@settings(max_examples=20)
def test_double_hat_is_antipode_conjugation_for_arbitrary_maps(coeffs):
    qf = _random_family(coeffs)
    assert double_hat_formula_matches(qf)


@given(st.lists(entries, min_size=18, max_size=18))
@settings(max_examples=10)
def test_dual_equivalences_hold_for_arbitrary_maps(coeffs):
    qf = _random_family(coeffs)
    rep = verify_dual_equivalences(qf)
    assert rep.passed, [(c.name, c.witness) for c in rep.checks]


def _tensor_and_compose(f, alpha, m, leg):
    """The one-leg map through the Kronecker product: (f⊗id_m)∘α for leg 0,
    (id⊗f)∘α for leg 1, where α maps into X⊗B and m = dim B."""
    one = scalar(1)
    if leg == 0:
        return f.tensor(LinearMap.identity(m, one)).compose(alpha)
    return LinearMap.identity(alpha.target_dim // m, one).tensor(f).compose(alpha)


def _one_leg_oracle(qf):
    g, m = qf.source, qf.target_algebra.dim
    pair = dual_pair(g)
    assert hat(qf).alpha == _tensor_and_compose(pair.fourier, qf.alpha, m, 0).compose(
        pair.fourier_inv)
    assert leg_compose(g.antipode, qf.alpha, m, 0) == \
        _tensor_and_compose(g.antipode, qf.alpha, m, 0)
    perm = [(j + 1) % m for j in range(m)]
    pmat = LinearMap(m, m, [{perm[j]: scalar(1)} for j in range(m)])
    assert target_permuted_family(qf, perm).alpha == _tensor_and_compose(pmat, qf.alpha, m, 1)


ONE_LEG_FAMILIES = {
    "universal(S3)": lambda: universal_classical_family(named_group("S3")),
    "universal(D4)∘universal(D4)": lambda: compose(
        universal_classical_family(named_group("D4")),
        universal_classical_family(named_group("D4"))),
    "translation(Z4)": lambda: translation_family(cyclic(4)),
    "identity(grp(S3)) over M1+M2": lambda: identity_family(
        group_algebra(named_group("S3")), BlockAlgebra([1, 2])),
}


@pytest.mark.parametrize("name", sorted(ONE_LEG_FAMILIES))
def test_one_leg_maps_match_the_tensor_and_compose_formula(name):
    _one_leg_oracle(ONE_LEG_FAMILIES[name]())


@given(st.lists(entries, min_size=18, max_size=18))
@settings(max_examples=20)
def test_one_leg_maps_match_the_tensor_and_compose_formula_on_arbitrary_maps(coeffs):
    _one_leg_oracle(_random_family(coeffs))


def test_compose_matches_the_tensor_and_compose_formula():
    beta = universal_classical_family(named_group("S3"))
    gamma = translation_family(named_group("S3"))
    assert compose(beta, gamma).alpha == _tensor_and_compose(
        beta.alpha, gamma.alpha, gamma.target_algebra.dim, 0)


def _shuffled_tensor_coproduct(hb, hc):
    """shuffle∘(Δ_B⊗Δ_C), with shuffle = id_B⊗flip(B, C)⊗id_C, from
    Kronecker products, and ε_B⊗ε_C: the Hopf data of B⊗C by definition."""
    mb, mc = hb.coproduct.source_dim, hc.coproduct.source_dim
    one = scalar(1)
    shuffle = LinearMap.identity(mb, one).tensor(flip_map(mb, mc, one)).tensor(
        LinearMap.identity(mc, one))
    return (shuffle.compose(hb.coproduct.tensor(hc.coproduct)),
            hb.counit.tensor(hc.counit))


@pytest.mark.parametrize("pair", ["universal(Z5), translation(Z5)",
                                  "universal(D4), universal(D4)"])
def test_composed_coproduct_is_the_shuffled_tensor_product(pair):
    z5, d4 = named_group("Z5"), named_group("D4")
    beta, gamma = {
        "universal(Z5), translation(Z5)": (universal_classical_family(z5),
                                           translation_family(z5)),
        "universal(D4), universal(D4)": (universal_classical_family(d4),
                                         universal_classical_family(d4)),
    }[pair]
    hopf = compose(beta, gamma).hopf_on_target
    coproduct, counit = _shuffled_tensor_coproduct(beta.hopf_on_target, gamma.hopf_on_target)
    m = beta.target_algebra.dim * gamma.target_algebra.dim
    assert hopf.coproduct.source_dim == m and hopf.coproduct.target_dim == m * m
    assert hopf.coproduct == coproduct
    assert hopf.counit == counit


def test_hat_of_universal_family_is_automorphism_family_on_dual():
    qf = universal_classical_family(cyclic(4))
    ok, rep = is_automorphism_family(hat(qf))
    assert ok, rep.failed_names()


def test_double_hat_is_the_identity_on_automorphism_families():
    # automorphism families commute with the antipode, so conjugating by it
    # returns the same matrix
    for qf in (universal_classical_family(named_group("S3")),
               identity_family(function_algebra(cyclic(4)))):
        assert hat(hat(qf)).alpha == qf.alpha


def test_dual_equivalences_witness_values():
    idf = identity_family(function_algebra(cyclic(3)))
    rep = verify_dual_equivalences(idf)
    assert rep.passed
    for item in ("item1_multiplicative", "item2_star", "item3_unital",
                 "item4_haar_state"):
        assert rep.check(item).witness == (True, True)

    eps = counit_degenerate_family(function_algebra(cyclic(2)))
    rep = verify_dual_equivalences(eps)
    assert rep.passed
    assert rep.check("item1_multiplicative").witness == (False, False)
    assert rep.check("item3_unital").witness == (False, False)

    broken = broken_adjoint_family(function_algebra(cyclic(2)))
    rep = verify_dual_equivalences(broken)
    assert rep.passed
    assert rep.check("item2_star").witness == (False, False)


def test_is_automorphism_family_catalog():
    ok, _ = is_automorphism_family(identity_family(function_algebra(cyclic(3))))
    assert ok
    ok, rep = is_automorphism_family(universal_classical_family(named_group("S3")))
    assert ok
    assert rep.check("double_hat_identity").passed
    assert rep.check("dual_family_automorphism").passed
    ok, _ = is_automorphism_family(counit_degenerate_family(function_algebra(cyclic(3))))
    assert not ok


def test_compose_with_identity_is_unit_factor_isomorphic():
    qf = universal_classical_family(cyclic(3))
    idf = identity_family(qf.source)  # over the one-dimensional algebra
    left = compose(idf, qf)
    # B⊗C with B one-dimensional: index (0, c) ↔ c, so matrices agree verbatim
    assert left.alpha == qf.alpha
    right = compose(qf, identity_family(qf.source))
    assert right.alpha == qf.alpha


def test_compose_refuses_families_over_different_quantum_groups():
    # Z4 and K4 have the same order, and fun(Z4) and grp(Z4) the same dimension
    z4 = universal_classical_family(cyclic(4))
    k4 = universal_classical_family(named_group("K4"))
    on_grp = identity_family(group_algebra(cyclic(4)))
    for beta, gamma in ((z4, k4), (k4, z4), (z4, on_grp), (on_grp, z4)):
        with pytest.raises(InvalidDataError, match="same quantum group"):
            compose(beta, gamma)


def test_compose_universal_z5_is_automorphism_family_of_dim_16():
    qf = universal_classical_family(cyclic(5))
    comp = compose(qf, qf)
    assert comp.target_algebra.dim == 16
    ok, rep = is_automorphism_family(comp)
    assert ok, rep.failed_names()


def test_compose_associative_up_to_reindexing():
    qf = universal_classical_family(cyclic(3))
    left = compose(compose(qf, qf), qf)
    right = compose(qf, compose(qf, qf))
    assert left.alpha == right.alpha


def test_action_equation():
    uf = universal_classical_family(named_group("S3"))
    assert check_action(uf).passed
    idf = identity_family(function_algebra(cyclic(3)), hopf_on_target=trivial_hopf_target())
    assert check_action(idf).passed


def test_action_fails_for_non_group_permutation_of_target():
    uf = universal_classical_family(cyclic(3))
    # swapping the two points of Aut(Z_3) moves the identity: not a group map
    bad = target_permuted_family(uf, [1, 0])
    rep = check_action(bad)
    assert not rep.passed
    assert rep.checks[0].witness


def test_slices_recover_enumerated_automorphisms():
    for name, count in (("S3", 6), ("Z8", 4)):
        group = named_group(name)
        uf = universal_classical_family(group)
        slices = slice_commutative(uf)
        auts = enumerate_automorphisms(group)
        assert len(slices) == count
        one = scalar(1)
        mats = [LinearMap(group.order, group.order,
                          [{psi[y]: one} for y in range(group.order)])
                for psi in auts]
        for s in slices:
            assert any(s == m for m in mats)
        for m in mats:
            assert any(s == m for s in slices)


def test_identity_family_slices_to_identity_map():
    g = function_algebra(cyclic(4))
    maps = slice_commutative(identity_family(g))
    assert maps == [LinearMap.identity(4, scalar(1))]


def test_slice_rejects_non_pointwise_target():
    g = function_algebra(cyclic(2))
    target = group_algebra(cyclic(2)).algebra  # basis is not idempotent
    one = scalar(1)
    cols = [{j * 2 + 0: one} for j in range(2)]
    qf = QuantumFamily(g, target, LinearMap(2, 4, cols))
    with pytest.raises(InvalidDataError):
        slice_commutative(qf)


def _permutation(n, sigma):
    return LinearMap(n, n, [{sigma[x]: scalar(1)} for x in range(n)])


def _conjugation(g, u, u_inv):
    """x ↦ u x u⁻¹ on the algebra of g."""
    a = g.algebra
    return LinearMap(g.dim, g.dim, [a.multiply_vec(a.multiply_vec(u, {j: scalar(1)}), u_inv)
                                    for j in range(g.dim)])


def _with_functionals(g, counit=None, haar=None):
    """g with its counit or Haar state replaced: no quantum group any more,
    but slicing does not verify its source."""
    return QuantumGroup(g.algebra, g.coproduct, counit or g.counit, g.antipode,
                        haar or g.haar_state, g.haar_element, "replaced")


def _slice_cases():
    """(source, slice, message): each slice passes every test before the one
    whose message it names.  Over the one-dimensional index algebra the family
    is its one slice."""
    one = scalar(1)
    fun3, grp3 = function_algebra(cyclic(3)), group_algebra(cyclic(3))
    grp_s3 = group_algebra(named_group("S3"))
    s = next(x for x in range(6) if x and named_group("S3").element_order(x) == 2)
    e = named_group("S3").identity
    negate = _permutation(3, (0, 2, 1))  # x ↦ -x, an automorphism of Z3
    return {
        "bijective": (fun3, LinearMap(3, 3, [{}, {}, {}]), "is not bijective"),
        "unital": (fun3, LinearMap.identity(3, scalar(2)), "is not unital"),
        "multiplicative": (grp3, LinearMap(3, 3, [{0: one}, {1: one}, {2: scalar(2)}]),
                           "is not multiplicative"),
        # conjugation by the self-adjoint u = 2 + s, whose square 5 + 4s is not central
        "star": (grp_s3, _conjugation(grp_s3, {e: scalar(2), s: one},
                                      {e: scalar(Fraction(2, 3)), s: scalar(Fraction(-1, 3))}),
                 "is not a \\*-map"),
        # a *-automorphism of fun(Z3) swapping δ_0 and δ_1: 1 = -2 but 0 = -0
        "antipode": (fun3, _permutation(3, (1, 0, 2)), "commute with the antipode"),
        # 1 ↔ 2, 4 ↔ 5 commutes with x ↦ -x but is not additive (see _relabelled)
        "coproduct": (function_algebra(cyclic(6)), _permutation(6, (0, 2, 1, 3, 5, 4)),
                      "intertwine the coproduct"),
        # a Hopf automorphism, against a counit or Haar state that it moves
        "counit": (_with_functionals(fun3, counit=LinearMap(3, 1, [{}, {0: one}, {}])),
                   negate, "preserve the counit"),
        "haar": (_with_functionals(fun3, haar=LinearMap(3, 1, [{0: scalar(Fraction(k, 6))}
                                                              for k in (3, 2, 1)])),
                 negate, "preserve the haar state"),
    }


@pytest.mark.parametrize("law", ["bijective", "unital", "multiplicative", "star",
                                 "antipode", "coproduct", "counit", "haar"])
def test_slice_names_the_first_law_its_map_breaks(law):
    g, psi, message = _slice_cases()[law]
    qf = QuantumFamily(g, scalar_algebra(), psi)
    with pytest.raises(InvalidDataError, match="^slice 0 .*" + message):
        slice_commutative(qf)


def _recorded_slice_checks(monkeypatch):
    """Record each slice check of ``slice_commutative``: ("coalgebra", ψ) for
    the coalgebra laws alone and ("hopf", ψ, names) for the whole
    ``check_hopf_morphism`` report."""
    calls = []
    coalgebra, hopf = fqg.qfamily.morphism_coalgebra_checks, fqg.qfamily.check_hopf_morphism

    def coalgebra_only(g, h, t):
        calls.append(("coalgebra", t))
        return coalgebra(g, h, t)

    def in_full(g, h, t):
        report = hopf(g, h, t)
        calls.append(("hopf", t, tuple(c.name for c in report.checks)))
        return report

    monkeypatch.setattr(fqg.qfamily, "morphism_coalgebra_checks", coalgebra_only)
    monkeypatch.setattr(fqg.qfamily, "check_hopf_morphism", in_full)
    return calls


def test_slices_of_a_composite_are_verified_once_per_distinct_map(monkeypatch):
    """S3∘S3 has 36 slices, the 6 automorphisms each 6 times over; each
    distinct one runs only the coalgebra laws, since the family is a unital
    *-homomorphism."""
    uf = universal_classical_family(named_group("S3"))
    calls = _recorded_slice_checks(monkeypatch)
    slices = slice_commutative(compose(uf, uf))
    assert len(slices) == 36
    assert [kind for kind, *_ in calls] == ["coalgebra"] * 6
    checked = [t for _, t in calls]
    assert all(any(s == t for t in checked) for s in slices)
    assert all(a != b for i, a in enumerate(checked) for b in checked[:i])


def test_slices_of_a_family_that_is_no_star_hom_check_all_seven_laws(monkeypatch):
    """Over fun(Z2), slice 0 of this family is the identity of grp(Z3) and
    slice 1 breaks the product, so ``unital_star_hom`` fails: slice 0 runs
    all seven laws and passes, slice 1 is refused for its product."""
    grp3 = group_algebra(cyclic(3))
    one = scalar(1)
    b = function_algebra(cyclic(2)).algebra
    cols = [{j * 2: one, j * 2 + 1: scalar(2) if j == 2 else one} for j in range(3)]
    qf = QuantumFamily(grp3, b, LinearMap(3, 6, cols))
    assert not check_family(qf).check("unital_star_hom").passed
    calls = _recorded_slice_checks(monkeypatch)
    with pytest.raises(InvalidDataError, match="^slice 1 is not multiplicative"):
        slice_commutative(qf)
    laws = ("multiplicative", "unital", "star_preserving", "coproduct_intertwined",
            "counit_intertwined", "antipode_intertwined", "haar_intertwined")
    assert [(kind, names) for kind, _, names in calls] == [("hopf", laws)] * 2


def test_slices_are_checked_in_full_on_the_float_backend(monkeypatch):
    """Neither the star-hom certificate nor the dedupe applies on the float
    backend: each of the 16 slices of Z5∘Z5 runs all seven laws."""
    with use_backend("float"):
        uf = universal_classical_family(named_group("Z5"))
        calls = _recorded_slice_checks(monkeypatch)
        assert len(slice_commutative(compose(uf, uf))) == 16
    assert [kind for kind, *_ in calls] == ["hopf"] * 16


def test_translation_family_is_star_hom_with_podles_but_not_conv():
    qf = translation_family(named_group("S3"))
    rep = check_family(qf)
    assert rep.passed
    conv = check_convolution_preservation(qf)
    assert not conv.check("conv_product").passed
    ok, _ = is_automorphism_family(qf)
    assert not ok


# -- generator certificates for the family laws: oracle against full sweeps ----

def _reference_sweeps(qf):
    """Reference: ``(passed, witness)`` of unital_star_hom and of
    conv_product, by full lexicographic sweeps straight from the tables."""
    g, b, alpha = qf.source, qf.target_algebra, qf.alpha.cols
    a, m = g.algebra, qf.target_algebra.dim
    n = a.dim

    def apply(v):
        acc = {}
        for j, c in v.items():
            for r, d in alpha[j].items():
                accumulate(acc, r, c * d)
        return nonzero(acc)

    def tensor_times(first, u, v):
        """u·v on A⊗B, the first leg multiplied by the table ``first``."""
        acc = {}
        for (p, cp), (q, cq) in product(u.items(), v.items()):
            (x1, b1), (x2, b2) = divmod(p, m), divmod(q, m)
            for (k1, c1), (k2, c2) in product(first.get(x1, {}).get(x2, {}).items(),
                                              b.mult.get(b1, {}).get(b2, {}).items()):
                accumulate(acc, k1 * m + k2, cp * cq * c1 * c2)
        return nonzero(acc)

    def tensor_star(v):
        acc = {}
        for p, c in v.items():
            x, q = divmod(p, m)
            for (k1, c1), (k2, c2) in product(a.star.cols[x].items(), b.star.cols[q].items()):
                accumulate(acc, k1 * m + k2, c.conj() * c1 * c2)
        return nonzero(acc)

    def star_hom():
        unit = nonzero({x * m + q: cx * cq for x, cx in a.unit.items()
                         for q, cq in b.unit.items()})
        if apply(a.unit) != unit:
            return False, ("unit",)
        for i, j in product(range(n), repeat=2):
            if apply(a.mult.get(i, {}).get(j, {})) != tensor_times(a.mult, alpha[i], alpha[j]):
                return False, ("multiplicative", i, j)
        for i in range(n):
            if apply(a.star.cols[i]) != tensor_star(alpha[i]):
                return False, ("star", i)
        return True, ()

    def conv_product():
        ct = convolution_algebra(g).mult
        for i, j in product(range(n), repeat=2):
            if apply(ct.get(i, {}).get(j, {})) != tensor_times(ct, alpha[i], alpha[j]):
                return False, (i, j)
        return True, ()

    return [star_hom(), conv_product()]


def _assert_certificates_agree(qf):
    got = [check_family(qf).check("unital_star_hom"),
           check_convolution_preservation(qf).check("conv_product")]
    assert [(c.passed, tuple(c.witness)) for c in got] == _reference_sweeps(qf)


def _family(g, b, cols, label):
    return QuantumFamily(g, b, LinearMap(g.dim, g.dim * b.dim, cols), label=label)


def _relabelled(g):
    """α(e_x) = e_φ(x)⊗1 on Z6, with φ swapping 1 ↔ 2 and 4 ↔ 5: φ fixes 0 and
    commutes with x ↦ -x, but φ(1 + 1) = 1 != φ(1) + φ(1).  On fun(Z6) it is a
    *-automorphism that breaks the convolution product, on grp(Z6) a unital
    *-map that breaks the product; both products are generated by e_1 alone."""
    phi = (0, 2, 1, 3, 5, 4)
    return _family(g, scalar_algebra(), [{phi[x]: scalar(1)} for x in range(6)],
                   "relabelled(%s)" % g.label)


def _skew_idempotents():
    """fun(Z2) -> fun(Z2)⊗M2 through the idempotents P0 = E00 + E01 and
    P1 = E11 - E01: orthogonal and summing to 1, so α is a unital
    homomorphism, but not self-adjoint, so only the star identities fail."""
    one = scalar(1)
    p0, p1 = {0: one, 1: one}, {1: -one, 3: one}

    def col(first, second):
        return {**first, **{4 + k: c for k, c in second.items()}}

    return _family(function_algebra(cyclic(2)), BlockAlgebra([2]),
                   [col(p0, p1), col(p1, p0)], "skew-idempotents")


def _z6():
    return function_algebra(cyclic(6)), group_algebra(cyclic(6))


def _doubled_z6():
    """grp(Z6)'s algebra with e_2·e_1 = 2e_3: no longer associative, and
    still monomial with the one generator e_1."""
    a = _z6()[1].algebra
    mult = {i: dict(row) for i, row in a.mult.items()}
    mult[2][1] = {3: scalar(2)}
    return StarAlgebra(6, mult, a.unit, a.star, "doubled")


def _coproduct_family(b):
    """α = Δ: grp(Z6) -> grp(Z6)⊗B, a unital *-homomorphism for B = grp(Z6)."""
    return QuantumFamily(_z6()[1], b, _z6()[1].coproduct, label="coproduct")


def _second_leg(g, b):
    """α(e_x) = e_0⊗λ_x into g⊗B: a unital *-homomorphism while both products
    are those of grp(Z6), whose unit e_0 is its own square."""
    return _family(g, b, [{x: scalar(1)} for x in range(6)], "second-leg")


def _graded(g, b):
    """α(δ_x) = δ_x⊗λ_x into g⊗B: with g = fun(Z6) and B = grp(Z6) it
    preserves the convolution product, whose δ_x⋆δ_y is a multiple of
    δ_{x+y}."""
    return _family(g, b, [{x * 6 + x: scalar(1)} for x in range(6)], "graded")


def _replaced(g, algebra=None, coproduct=None):
    return QuantumGroup(algebra or g.algebra, coproduct or g.coproduct, g.counit,
                        g.antipode, g.haar_state, g.haar_element, "perturbed")


def _moved_convolution():
    """fun(Z6) with the term δ_4⊗δ_3 of Δ(δ_1) moved to δ_4⊗δ_4, so that
    δ_2⋆δ_1 becomes a multiple of δ_4: ⋆ is no longer associative."""
    fun = _z6()[0]
    cols = [dict(col) for col in fun.coproduct.cols]
    cols[1][4 * 6 + 4] = cols[1].pop(4 * 6 + 3)
    return _replaced(fun, coproduct=LinearMap(6, 36, cols))


# Families that each defeat one part of a certificate if that part were
# missing: the product the certificate uses is generated by e_1 alone (or
# by every index, for skew-idempotents), and each failure sits at a left
# factor other than e_1, in a product that is not associative, or in a star
# identity.
TARGETED_CASES = {
    "relabelled-fun": lambda: _relabelled(_z6()[0]),
    "relabelled-grp": lambda: _relabelled(_z6()[1]),
    "skew-idempotents": _skew_idempotents,
    "nonassociative-target-hom": lambda: _coproduct_family(_doubled_z6()),
    "nonassociative-target-conv": lambda: _graded(_z6()[0], _doubled_z6()),
    "nonassociative-source-hom":
        lambda: _second_leg(_replaced(_z6()[1], algebra=_doubled_z6()), _z6()[1].algebra),
    "nonassociative-convolution": lambda: _graded(_moved_convolution(), _z6()[1].algebra),
}


@pytest.mark.parametrize("name", sorted(TARGETED_CASES))
def test_family_certificates_fall_back_where_their_lemma_does_not_reach(name):
    qf = TARGETED_CASES[name]()
    assert not all(passed for passed, _ in _reference_sweeps(qf))
    _assert_certificates_agree(qf)


def _oracle_family(name):
    kind, _, arg = name.partition("-")
    if kind == "blocks":
        return identity_family(group_algebra(named_group("S3")), BlockAlgebra([1, 2]))
    universal = universal_classical_family(named_group(arg))
    if kind == "compose":
        return compose(universal, universal)
    return hat(universal) if kind == "hat" else universal


ORACLE_FAMILIES = ("universal-S3", "universal-D4", "universal-Q8", "hat-S3", "hat-D4",
                   "hat-Q8", "compose-S3", "blocks")


@settings(max_examples=200)
@given(st.sampled_from(ORACLE_FAMILIES), st.sampled_from(("alpha", "keep")), st.data())
def test_family_certificates_agree_with_full_sweeps(name, part, data):
    base = _oracle_family(name)
    n, m = base.source.dim, base.target_algebra.dim
    cols = dict(enumerate(base.alpha.cols))
    if part == "alpha":
        cols = perturbed(cols, list(range(n)), n * m, data)
    _assert_certificates_agree(_family(base.source, base.target_algebra,
                                       [cols.get(j, {}) for j in range(n)], "perturbed"))


def _fresh(qf):
    return QuantumFamily(qf.source, qf.target_algebra, qf.alpha, qf.hopf_on_target, qf.label)


def test_every_multiplicative_law_consults_the_generator_certificate(monkeypatch):
    """Every *-homomorphism law with the product identity tries
    ``hom_on_generators`` first, whatever its target: the coproduct (through
    the dual coproduct), the counit into ℂ, a Hopf morphism (and its
    coproduct law through the transpose on the duals), a family, its
    convolution law and ``fourier_convolution``, whether ⋆ is diagonal (that
    of grp(Γ)) or not (that of fun(Γ))."""
    original = fqg.algebra.hom_on_generators
    consulted = []

    def recorded(a, c, alpha, identities, b=None):
        consulted.append((alpha, b))
        return original(a, c, alpha, identities, b)

    for module in (fqg.algebra, fqg.hopf):
        monkeypatch.setattr(module, "hom_on_generators", recorded)

    def consults(run):
        consulted.clear()
        assert run().passed
        return list(consulted)

    qf = universal_classical_family(named_group("S3"))
    s = qf.source
    g = QuantumGroup(s.algebra, s.coproduct, s.counit, s.antipode, s.haar_state,
                     s.haar_element, s.label)
    dual = dual_algebra(g)
    # fun(S3) has 6 generators and its dual algebra grp(S3) 2: Δ is certified
    # through the dual coproduct
    assert consults(lambda: verify_quantum_group(g)) == [(dual_coproduct(g), dual),
                                                         (g.counit, None)]
    pair = dual_pair(g)
    assert consults(lambda: verify_fourier_identities(pair)) == [(pair.fourier, None)]
    ident = LinearMap.identity(g.dim, scalar(1))
    # a Hopf morphism T: its product law, then Δ through Tᵀ on the duals
    assert consults(lambda: check_hopf_morphism(g, g, ident)) == [(ident, None),
                                                                  (ident.transpose(), None)]
    target = (qf.alpha, qf.target_algebra)
    assert consults(lambda: check_family(_fresh(qf))) == [target]
    assert consults(lambda: check_convolution_preservation(_fresh(qf))) == [target]
    grp = group_algebra(named_group("S3"))
    pair = dual_pair(QuantumGroup(grp.algebra, grp.coproduct, grp.counit, grp.antipode,
                                  grp.haar_state, grp.haar_element, grp.label))
    assert not convolution_algebra(g)._diag and convolution_algebra(pair.primal)._diag
    assert consults(lambda: verify_fourier_identities(pair)) == [(pair.fourier, None)]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_family_certificates_skip_most_of_the_s4_sweeps(backend, monkeypatch):
    calls = {"multiplicative": 0, "conv_product": 0}
    predicate = fqg.algebra.hom_predicate

    def counted_predicate(a, c, alpha, b=None):
        holds = predicate(a, c, alpha, b)
        # conv_product is the multiplicative identity on the convolution algebra
        key = "multiplicative" if a is qf_hat.source.algebra else "conv_product"

        def counted(idx):
            calls[key] += idx[0] == "multiplicative"
            return holds(idx)
        return counted

    with use_backend(backend):
        qf = universal_classical_family(named_group("S4"))
        qf_hat = hat(qf)
        monkeypatch.setattr(fqg.algebra, "hom_predicate", counted_predicate)
        assert check_family(_fresh(qf_hat)).passed
        assert check_convolution_preservation(_fresh(qf)).passed
    n = qf.source.dim
    if backend == "exact":
        assert max(calls.values()) < n * n / 4
    else:
        assert calls == {"multiplicative": n * n, "conv_product": n * n}
