"""The one-sided certificates of the pairwise laws against their full sweeps.

Every battery below runs twice on fresh objects: as it is, and with each
module's ``sweep`` replaced by one that always sweeps in full and also asks
the certificate, which must never pass a law the sweep fails.  Both runs
must give the same verdicts and witnesses."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqg.algebra
import fqg.fourier
import fqg.hopf
import fqg.qfamily
from fqg.algebra import (InvalidDataError, StarAlgebra, _basis_generators, tensor_algebra,
                         tensor_vec, verify_star_algebra)
from fqg.classical import universal_classical_family
from fqg.constructors import function_algebra, group_algebra
from fqg.fixtures import translation_family
from fqg.fourier import build_dual, verify_fourier_identities
from fqg.groups import CATALOG, named_group
from fqg.hopf import QuantumGroup, check_hopf_morphism, dual_algebra, verify_quantum_group
from fqg.linalg import LinearMap, leg_compose
from fqg.qfamily import (QuantumFamily, _pointwise, _tensor_coproduct, compose,
                         double_hat_formula_matches, hat)
from fqg.report import Check, Report, first_failure
from fqg.scalar import scalar, use_backend
from fqg.selftest import family_catalog

from support import perturbed



def _tensor_quantum_group(g1, g2):
    """G1⊗G2: every structure map is the tensor of the two, the coproduct
    with its middle legs swapped."""
    return QuantumGroup(tensor_algebra(g1.algebra, g2.algebra),
                        _tensor_coproduct(g1.coproduct, g2.coproduct),
                        g1.counit.tensor(g2.counit), g1.antipode.tensor(g2.antipode),
                        g1.haar_state.tensor(g2.haar_state),
                        tensor_vec(g1.haar_element, g2.haar_element, g2.dim),
                        "%s (x) %s" % (g1.label, g2.label))


@lru_cache(maxsize=None)
def _case(name):
    if name == "fun(Z2) (x) grp(Z3)":
        return _tensor_quantum_group(function_algebra(named_group("Z2")),
                                     group_algebra(named_group("Z3")))
    kind, group = name[:3], name[4:-1]
    return (function_algebra if kind == "fun" else group_algebra)(named_group(group))


CASES = ("fun(Z3)", "grp(S3)", "fun(Z2) (x) grp(Z3)")


def _rebuilt(g, mult=None, star=None, unit=None, **maps):
    """A copy of ``g`` on a fresh algebra, so no verdict is memoised, with
    the table, the star matrix, the unit or the maps given replaced."""
    a = g.algebra
    algebra = StarAlgebra(a.dim, a.mult if mult is None else mult,
                          a.unit if unit is None else unit,
                          a.star if star is None else star, a.label)
    parts = {"coproduct": g.coproduct, "counit": g.counit, "antipode": g.antipode,
             "haar_state": g.haar_state, "haar_element": g.haar_element}
    parts.update(maps)
    return QuantumGroup(algebra, label=g.label, **parts)


def _batteries(g):
    """The reports of every battery with a certificate: the star algebra,
    the quantum group, the antipode as a Hopf morphism,
    and the Fourier identities when the Fourier matrix is invertible."""
    reports = [verify_star_algebra(g.algebra), verify_quantum_group(g),
               check_hopf_morphism(g, g, g.antipode)]
    try:
        pair = build_dual(g, verify=False)
    except InvalidDataError:  # a singular Fourier matrix
        return reports
    return reports + [verify_fourier_identities(pair)]


def _verdicts(reports):
    return [(r.subject, [(c.name, c.passed, tuple(c.witness)) for c in r.checks])
            for r in reports]


def _audited(run):
    """The verdicts of the reports ``run()`` makes with every check swept in
    full, and {check: certificate verdict} of each certificate asked on the
    way; a certificate that passes a failing sweep fails the test."""
    certified = {}

    def audited(name, indices, pred, certificate=None):
        witness = first_failure(indices, pred)
        if certificate is not None:
            certified[name] = bool(certificate())
            assert witness is None or not certified[name], (name, witness)
        return Check(name, witness is None, witness or ())

    with pytest.MonkeyPatch.context() as m:
        for module in (fqg.algebra, fqg.hopf, fqg.fourier):
            m.setattr(module, "sweep", audited)
        verdicts = _verdicts(run())
    return verdicts, certified


def _assert_certificates_agree(g):
    """The batteries on fresh copies of ``g`` give the same verdicts with
    their certificates as swept in full; returns the certificate verdicts."""
    verdicts, certified = _audited(lambda: _batteries(_rebuilt(g)))
    assert _verdicts(_batteries(_rebuilt(g))) == verdicts
    return certified


def _mutant(g, part, data):
    """``g`` with one entry of one part changed (see :func:`_perturbed`)."""
    n = g.dim
    if part == "product":
        pairs = {(i, j): terms for i, row in g.algebra.mult.items() for j, terms in row.items()}
        mult = {}
        for (i, j), terms in perturbed(pairs, [(i, j) for i in range(n) for j in range(n)],
                                        n, data).items():
            mult.setdefault(i, {})[j] = terms
        return _rebuilt(g, mult=mult)
    if part == "star":
        cols = perturbed(dict(enumerate(g.algebra.star.cols)), list(range(n)), n, data)
        return _rebuilt(g, star=LinearMap(n, n, [cols.get(j, {}) for j in range(n)]))
    if part in ("unit", "haar_element"):
        vec = g.algebra.unit if part == "unit" else g.haar_element
        return _rebuilt(g, **{part: perturbed({0: vec}, [0], n, data)[0]})
    matrix = getattr(g, part)
    cols = perturbed(dict(enumerate(matrix.cols)), list(range(n)), matrix.target_dim, data)
    return _rebuilt(g, **{part: LinearMap(n, matrix.target_dim,
                                          [cols.get(j, {}) for j in range(n)])})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CASES),
       st.sampled_from(("product", "star", "unit", "coproduct", "counit", "antipode",
                        "haar_state", "haar_element")),
       st.data())
def test_certificates_agree_with_full_sweeps_on_mutants(case, part, data):
    _assert_certificates_agree(_mutant(_case(case), part, data))


# the certificates that pass on the unmutated cases: every law but one, as
# S is anti-multiplicative, so on grp(S3) it is no algebra morphism (each case
# is cocommutative, so S does intertwine Δ); the
# counit and antipode laws take the dual table only where the product table
# states fewer entries than Δ: fun(Z3) (3 against 9), not grp(S3) (36
# against 6) nor fun(Z2) (x) grp(Z3) (18 against 12)
_CERTIFIED = {"associativity", "star_antimultiplicative", "coassociativity",
              "coproduct_multiplicative", "coproduct_star", "counit_multiplicative",
              "haar_invariance", "haar_element_absorbing", "multiplicative",
              "coproduct_intertwined", "fourier_convolution", "fourier_dual_convolution"}
_DUAL_TABLE = {"counit_law", "antipode_law"}
PASSING = {
    "fun(Z3)": _CERTIFIED | _DUAL_TABLE,
    "grp(S3)": _CERTIFIED - {"multiplicative"},
    "fun(Z2) (x) grp(Z3)": _CERTIFIED,
}


@pytest.mark.parametrize("case", CASES)
def test_certificates_pass_the_unmutated_cases(case):
    certified = _assert_certificates_agree(_case(case))
    assert {name for name, ok in certified.items() if ok} == PASSING[case]


def _named_check(g, name):
    return next(c for r in _batteries(_rebuilt(g)) for c in r.checks if c.name == name)


def test_a_diagonal_table_with_overlapping_star_columns():
    """(e_0 e_1)* = 0, but e_1* e_0* = e_1 (e_0 + e_1) = e_1: the star
    columns of e_0 and e_1 overlap, so the certificate refuses and the sweep
    names (0, 1)."""
    one = scalar(1)
    star = LinearMap(3, 3, [{0: one, 1: one}, {1: one}, {2: one}])
    algebra = StarAlgebra(3, {i: {i: {i: one}} for i in range(3)},
                          {i: one for i in range(3)}, star, "overlapping stars")
    assert algebra._diag

    def run():
        return [verify_star_algebra(StarAlgebra(3, algebra.mult, algebra.unit, star))]

    verdicts, certified = _audited(run)
    assert _verdicts(run()) == verdicts
    assert certified["star_antimultiplicative"] is False
    check = run()[0].check("star_antimultiplicative")
    assert (check.passed, tuple(check.witness)) == (False, (0, 1))


def test_a_counit_with_two_nonzero_entries_on_fun_s3():
    """ε(e_0) = ε(e_1) = 1 on the diagonal fun(S3): the images of e_0 and
    e_1 in ℂ overlap, so ε(e_0 e_1) = 0 but ε(e_0)ε(e_1) = 1."""
    g = function_algebra(named_group("S3"))
    cols = [dict(c) for c in g.counit.cols]
    cols[1] = {0: scalar(1)}
    bad = _rebuilt(g, counit=LinearMap(g.dim, 1, cols))
    assert _assert_certificates_agree(bad)["counit_multiplicative"] is False
    check = _named_check(bad, "counit_multiplicative")
    assert (check.passed, tuple(check.witness)) == (False, (0, 1))


def test_a_non_tracial_haar_state_on_grp_s3():
    """h(λ_1) = 1 as well as h(λ_e) = 1 on grp(S3): λ_2 λ_3 = λ_1 while
    λ_3 λ_2 is not, so h is no trace and the sweep names (2, 3)."""
    g = group_algebra(named_group("S3"))
    cols = [dict(c) for c in g.haar_state.cols]
    cols[1] = {0: scalar(1)}
    bad = _rebuilt(g, haar_state=LinearMap(g.dim, 1, cols))
    check = _named_check(bad, "haar_tracial")
    assert (check.passed, tuple(check.witness)) == (False, (2, 3))


def test_a_doubled_antipode_entry_on_fun_s3():
    """S(e_3) = 2e_4 on fun(S3), whose table states fewer entries than Δ:
    the antipode law of the dual table fails, so its certificate refuses and
    the sweep on fun(S3) names e_0, whose coproduct reaches every column of
    S.  The counit law does not read S, and its certificate passes."""
    g = function_algebra(named_group("S3"))
    cols = [dict(c) for c in g.antipode.cols]
    cols[3] = {4: scalar(2)}
    bad = _rebuilt(g, antipode=LinearMap(g.dim, g.dim, cols))
    certified = _assert_certificates_agree(bad)
    assert (certified["antipode_law"], certified["counit_law"]) == (False, True)
    check = _named_check(bad, "antipode_law")
    assert (check.passed, tuple(check.witness)) == (False, (0,))


def test_a_coproduct_term_that_breaks_only_the_right_counit_law():
    """Δ(e_1) on fun(S3) gains e_2⊗e_0, with e_0 the identity: (ε⊗id)Δ
    reads only the terms e_0⊗y and still gives e_1, but (id⊗ε)Δ(e_1) =
    e_1 + e_2.  The left unit law of the dual table holds and the right one
    fails, so the certificate refuses and the sweep names e_1."""
    g = function_algebra(named_group("S3"))
    n = g.dim
    cols = [dict(c) for c in g.coproduct.cols]
    cols[1][2 * n + 0] = scalar(1)
    bad = _rebuilt(g, coproduct=LinearMap(n, n * n, cols))
    assert _assert_certificates_agree(bad)["counit_law"] is False
    check = _named_check(bad, "counit_law")
    assert (check.passed, tuple(check.witness)) == (False, (1,))


def test_a_moved_haar_state_on_fun_s3():
    """h(e_1) = 1/3 and h(e_2) = 0 on fun(S3): h·e_k* = e_k*(1)h fails on
    the generators of the dual grp(S3), so the invariance certificate
    refuses and the sweep names e_0, whose coproduct reads h at every
    point."""
    g = function_algebra(named_group("S3"))
    cols = [dict(c) for c in g.haar_state.cols]
    cols[1], cols[2] = {0: scalar(Fraction(1, 3))}, {}
    bad = _rebuilt(g, haar_state=LinearMap(g.dim, 1, cols))
    assert _assert_certificates_agree(bad)["haar_invariance"] is False
    check = _named_check(bad, "haar_invariance")
    assert (check.passed, tuple(check.witness)) == (False, (0,))


def test_a_moved_haar_element_on_grp_s3():
    """η(e_0) = 0 and η(e_1) = 1/3 on grp(S3): λ_1η is no longer η, so
    the absorbing certificate refuses on the generators of grp(S3) and the
    sweep names e_1 (e_0 is the unit)."""
    g = group_algebra(named_group("S3"))
    eta = dict(g.haar_element)
    del eta[0]
    eta[1] = scalar(Fraction(1, 3))
    bad = _rebuilt(g, haar_element=eta)
    assert _assert_certificates_agree(bad)["haar_element_absorbing"] is False
    check = _named_check(bad, "haar_element_absorbing")
    assert (check.passed, tuple(check.witness)) == (False, (1,))


def test_a_coproduct_entry_rotated_by_i_on_grp_s3():
    """Δ(λ_1) = iλ_1⊗λ_1 on grp(S3): Δ stays coassociative, so the dual
    is still associative, but Δ(λ_1*) = iλ_1⊗λ_1 while Δ(λ_1)* =
    -iλ_1⊗λ_1; the law of the dual fails on its generators, the certificate
    refuses and the sweep names e_1."""
    g = group_algebra(named_group("S3"))
    n = g.dim
    cols = [dict(c) for c in g.coproduct.cols]
    cols[1] = {r: c * scalar(0, 1) for r, c in cols[1].items()}
    bad = _rebuilt(g, coproduct=LinearMap(n, n * n, cols))
    certified = _assert_certificates_agree(bad)
    assert (certified["coassociativity"], certified["coproduct_star"]) == (True, False)
    check = _named_check(bad, "coproduct_star")
    assert (check.passed, tuple(check.witness)) == (False, (1,))


def test_a_coproduct_that_is_not_unital_refuses_the_invariance_certificate():
    """fun(Z2) with the unit 2e_0 + e_1: Δ(1) is no longer 1⊗1, so
    ε̂(φ) = φ(1) is not multiplicative on the dual grp(Z2).  The law
    h·e_k* = e_k*(1)h still holds on its one generator e_1*, yet fails at
    e_0*, so only the coproduct_unital verdict can refuse the certificate,
    and the sweep names e_0."""
    g = function_algebra(named_group("Z2"))

    def bad():
        return _rebuilt(g, unit={0: scalar(2), 1: scalar(1)})

    dual, h = dual_algebra(bad()), {j: col[0] for j, col in enumerate(g.haar_state.cols)}
    assert _basis_generators(dual) == (1,)
    assert dual.multiply_vec(h, {1: scalar(1)}) == dual.multiply_vec({1: scalar(1)}, h) == h
    verdicts, certified = _audited(lambda: [verify_quantum_group(bad())])
    assert _verdicts([verify_quantum_group(bad())]) == verdicts
    assert certified["haar_invariance"] is False
    checks = {name: (ok, witness) for name, ok, witness in verdicts[0][1]}
    assert checks["coproduct_unital"] == (False, ())
    assert checks["haar_invariance"] == (False, (0,))


def test_a_counit_that_is_not_multiplicative_refuses_the_absorbing_certificate():
    """grp(Z2) with ε(λ_0) = 2: ε is no longer multiplicative, as
    ε(λ_0 λ_0) = 2.  The law λη = ε(λ)η still holds on the one generator
    λ_1, yet fails at λ_0, so only the counit_multiplicative verdict can
    refuse the certificate, and the sweep names e_0."""
    g = group_algebra(named_group("Z2"))

    def bad():
        return _rebuilt(g, counit=LinearMap(2, 1, [{0: scalar(2)}, {0: scalar(1)}]))

    assert _basis_generators(bad().algebra) == (1,)
    verdicts, certified = _audited(lambda: [verify_quantum_group(bad())])
    assert _verdicts([verify_quantum_group(bad())]) == verdicts
    assert certified["haar_element_absorbing"] is False
    checks = {name: (ok, witness) for name, ok, witness in verdicts[0][1]}
    assert checks["counit_multiplicative"] == (False, (0, 0))
    assert checks["haar_element_absorbing"] == (False, (0,))


def _rebased(g, t, t_inv):
    """``g`` on the basis e'_i = T e_i, where T and its inverse are given:
    every structure map is conjugated by T, so the result is again a
    quantum group."""
    a, n = g.algebra, g.dim
    mult = {}
    for i in range(n):
        for j in range(n):
            terms = t_inv.apply(a.multiply_vec(t.cols[i], t.cols[j]))
            if terms:
                mult.setdefault(i, {})[j] = terms
    star = LinearMap(n, n, [t_inv.apply(a.star_vec(col)) for col in t.cols])
    algebra = StarAlgebra(n, mult, t_inv.apply(a.unit), star, "rebased " + a.label)
    return QuantumGroup(algebra, t_inv.tensor(t_inv).compose(g.coproduct.compose(t)),
                        g.counit.compose(t), t_inv.compose(g.antipode.compose(t)),
                        g.haar_state.compose(t), t_inv.apply(g.haar_element), algebra.label)


def test_an_antipode_that_is_not_symmetric_takes_the_dual_table():
    """fun(Z3) on the basis e_0, e_0 + e_1, e_2: S is no longer a symmetric
    matrix, so the antipode law of the dual table, which reads Sᵀ, tells S
    from Sᵀ, and the table still states fewer entries than Δ."""
    one = scalar(1)
    t = LinearMap(3, 3, [{0: one}, {0: one, 1: one}, {2: one}])
    t_inv = LinearMap(3, 3, [{0: one}, {0: -one, 1: one}, {2: one}])
    g = _rebased(function_algebra(named_group("Z3")), t, t_inv)
    assert g.antipode != g.antipode.transpose()
    certified = _assert_certificates_agree(g)
    assert all(r.passed for r in _batteries(_rebuilt(g)))
    assert certified["counit_law"] is certified["antipode_law"] is True


def test_a_translation_is_multiplicative_but_does_not_intertwine_the_coproduct():
    """The slice of the translation family of S3 at a point g != e is
    δ_y ↦ δ_gy: an algebra automorphism of fun(S3), but Δ(δ_gy) sums over
    the pairs with product gy, (T⊗T)Δ(δ_y) over the pairs (ga, gb) with ab =
    y.  Tᵀ, λ_y ↦ λ_{g⁻¹y} on the dual grp(S3), is not multiplicative, so the
    certificate refuses and the column comparison fails, with no witness."""
    qf = translation_family(named_group("S3"))
    g, m = qf.source, qf.target_algebra.dim
    t = LinearMap(g.dim, g.dim, [_pointwise(qf.alpha, m)[j][1] for j in range(g.dim)])

    def run():
        return [check_hopf_morphism(_rebuilt(g), _rebuilt(g), t)]

    verdicts, certified = _audited(run)
    assert _verdicts(run()) == verdicts
    assert certified["coproduct_intertwined"] is False
    checks = {name: (ok, witness) for name, ok, witness in verdicts[0][1]}
    assert checks["multiplicative"] == (True, ())
    assert checks["coproduct_intertwined"] == (False, ())


# -- the double-hat identity, certified once per dual pair ----------------------


def _double_hat_families(name):
    """A catalog universal family, the entries of ``family_catalog()``, or
    the composite of the Z5 universal family with itself."""
    if name == "family-catalog":
        return [fam for _, fam, _ in family_catalog()]
    z5 = universal_classical_family(named_group("Z5"))
    return [compose(z5, z5) if name == "compose-Z5"
            else universal_classical_family(named_group(name))]


def _double_hat_compared(qf):
    """The full comparison: hat(hat(α)) built and compared with (S⊗id)∘α∘S."""
    anti = qf.source.antipode
    return hat(hat(qf)).alpha == leg_compose(anti, qf.alpha, qf.target_algebra.dim,
                                             0).compose(anti)


def _hat_refused(qf):
    raise AssertionError("the certificate builds no hat")


@pytest.mark.parametrize("name", list(CATALOG) + ["family-catalog", "compose-Z5"])
def test_the_double_hat_certificate_agrees_with_the_full_comparison(name, monkeypatch):
    """The identity holds for every linear α, the negatives of the family
    catalog included, so the full comparison passes on each; the
    certificate, asked with ``hat`` refused, passes on each without building
    one."""
    families = _double_hat_families(name)
    assert all(_double_hat_compared(qf) is True for qf in families)
    monkeypatch.setattr(fqg.qfamily, "hat", _hat_refused)
    assert all(double_hat_formula_matches(qf) is True for qf in families)


def _failing_lemma(pair):
    return Report("fourier-iteration", [Check("iterate_is_scaled_antipode", False, ("matrix",))])


def _asked_too_late(*args):
    raise AssertionError("h(η) = 0 is decided first")


@pytest.mark.parametrize("case", ["float", "lemma", "unverified", "haar-of-eta"])
def test_the_double_hat_identity_is_compared_where_its_certificate_refuses(case, monkeypatch):
    """On the float backend, on a pair whose iteration lemma fails, on a
    source that fails verification and on one with h(η) = 0, hat(hat(α)) is
    built and compared.  The last two are no quantum groups, so ``hat`` is
    replaced by the identity there; S3's universal family commutes with S,
    so the comparison still passes."""
    with use_backend("float" if case == "float" else "exact"):
        qf = universal_classical_family(named_group("S3"))
        s = qf.source
        built = []
        hat_of = fqg.qfamily.hat
        if case == "lemma":
            monkeypatch.setattr(fqg.qfamily, "check_iteration_lemma", _failing_lemma)
        elif case != "float":
            eta, counit = s.haar_element, s.counit
            if case == "unverified":
                counit = LinearMap(s.dim, 1, [{0: scalar(1)}] * s.dim)
            else:
                eta = {}
                monkeypatch.setattr(fqg.qfamily, "verify_quantum_group", _asked_too_late)
                monkeypatch.setattr(fqg.qfamily, "check_iteration_lemma", _asked_too_late)
            g = QuantumGroup(s.algebra, s.coproduct, counit, s.antipode, s.haar_state, eta,
                             case)
            qf = QuantumFamily(g, qf.target_algebra, qf.alpha)
            assert (g.haar_of_eta().is_zero()) is (case == "haar-of-eta")
            hat_of = lambda family: family  # noqa: E731

        def recorded(family):
            built.append(family)
            return hat_of(family)

        monkeypatch.setattr(fqg.qfamily, "hat", recorded)
        assert double_hat_formula_matches(qf) is True
    assert len(built) == 2 and built[0] is qf
