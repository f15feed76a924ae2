import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqg.algebra
import fqg.hopf
from fqg.algebra import InvalidDataError, StarAlgebra, tensor_mult, tensor_vec
from fqg.constructors import function_algebra, group_algebra
from fqg.groups import CATALOG, cyclic, named_group
from fqg.classical import enumerate_automorphisms
from fqg.hopf import (QuantumGroup, _gram_positivity_check, check_haar_antipode_identity,
                      check_hopf_morphism, dual_algebra, solve_haar_element, solve_haar_state,
                      verify_quantum_group)
from fqg.linalg import LinearMap, leg_apply, vec_eq
from fqg.scalar import QQi, scalar, use_backend

from support import accumulate, benchmark_ladder_groups, nonzero, perturbed


def test_catalog_groups_verify():
    assert verify_quantum_group(function_algebra(cyclic(4))).passed
    assert verify_quantum_group(group_algebra(named_group("S3"))).passed


def test_broken_coproduct_is_reported():
    g = function_algebra(cyclic(4))
    one = scalar(1)
    # swap two non-identity basis vectors before comultiplying
    perm = LinearMap(4, 4, [{0: one}, {2: one}, {1: one}, {3: one}])
    bad = QuantumGroup(g.algebra, g.coproduct.compose(perm), g.counit,
                       g.antipode, g.haar_state, g.haar_element, "broken")
    rep = verify_quantum_group(bad)
    assert not rep.passed
    assert {"coassociativity", "counit_law", "antipode_law"} & set(rep.failed_names())


def _independent_invariance_holds(algebra, coproduct, h):
    """Definition-level oracle: (id⊗h)Δ(a) = h(a)·1 entrywise."""
    n = algebra.dim
    for j in range(n):
        per_i = {}
        for r, c in coproduct.cols[j].items():
            i, k = divmod(r, n)
            hk = h.cols[k].get(0)
            if hk is None:
                continue
            per_i[i] = per_i.get(i, scalar(0)) + c * hk
        hj = h.cols[j].get(0) or scalar(0)
        expected = {i: hj * u for i, u in algebra.unit.items()}
        got = {i: v for i, v in per_i.items() if not v.is_zero()}
        expected = {i: v for i, v in expected.items() if not v.is_zero()}
        if not vec_eq(got, expected):
            return False
    return True


def test_haar_state_solver_function_algebra():
    g = function_algebra(cyclic(3))
    solved = solve_haar_state(g.algebra, g.coproduct)
    third = scalar(Fraction(1, 3))
    for j in range(3):
        assert solved.cols[j].get(0) == third
    assert _independent_invariance_holds(g.algebra, g.coproduct, solved)
    # the solved state is the stored one
    assert solve_haar_state(g.algebra, g.coproduct) == g.haar_state


def test_haar_state_solver_group_ring():
    g = group_algebra(cyclic(2))
    solved = solve_haar_state(g.algebra, g.coproduct)
    assert solved.cols[0].get(0) == scalar(1)
    assert solved.cols[1].get(0) is None
    assert _independent_invariance_holds(g.algebra, g.coproduct, solved)


def test_haar_element_solver():
    fun6 = function_algebra(cyclic(6))
    eta = solve_haar_element(fun6.algebra, fun6.counit)
    assert vec_eq(eta, {0: scalar(1)})
    assert fun6.haar_of(eta) == scalar(Fraction(1, 6))

    grp4 = group_algebra(cyclic(4))
    eta = solve_haar_element(grp4.algebra, grp4.counit)
    q = scalar(Fraction(1, 4))
    assert vec_eq(eta, {g: q for g in range(4)})


@pytest.mark.parametrize("kind", ["fun", "grp"])
@pytest.mark.parametrize("name", sorted(set(CATALOG) | set(benchmark_ladder_groups())))
def test_h_is_the_haar_element_of_the_dual(name, kind):
    """h solved on G is η solved on the dual algebra, whose counit is the
    unit of A, and both solvers return the stored data on the benchmark's
    ladder groups too."""
    g = (function_algebra if kind == "fun" else group_algebra)(named_group(name))
    h = solve_haar_state(g.algebra, g.coproduct)
    assert h == g.haar_state
    assert vec_eq(solve_haar_element(g.algebra, g.counit), g.haar_element)
    unit_as_counit = LinearMap(g.dim, 1, [{0: g.algebra.unit[i]} if i in g.algebra.unit else {}
                                          for i in range(g.dim)])
    assert vec_eq(solve_haar_element(dual_algebra(g), unit_as_counit), h.transpose().cols[0])


@pytest.mark.parametrize("index", [-1, 4, 0.0])
def test_a_haar_element_index_outside_the_basis_is_refused(index):
    """η's indices are ints in 0..n-1, as the unit's are: -1 is not read as
    the last basis element, and n and 0.0 are refused here instead of
    raising IndexError or TypeError in verify_quantum_group."""
    g = group_algebra(cyclic(4))
    with pytest.raises(InvalidDataError):
        QuantumGroup(g.algebra, g.coproduct, g.counit, g.antipode, g.haar_state,
                     {index: scalar(1)})


def test_haar_element_value_is_inverse_dimension():
    for name in ("Z5", "S3", "Q8"):
        for build in (function_algebra, group_algebra):
            qg = build(named_group(name))
            assert qg.haar_of_eta() == scalar(Fraction(1, qg.dim))


def test_haar_antipode_identity_positive():
    assert check_haar_antipode_identity(function_algebra(named_group("S3"))).passed
    assert check_haar_antipode_identity(group_algebra(cyclic(4))).passed


def test_haar_antipode_identity_detects_perturbed_state():
    g = function_algebra(cyclic(4))
    cols = [dict(c) for c in g.haar_state.cols]
    cols[1] = {0: scalar(Fraction(1, 2))}
    bad_h = LinearMap(4, 1, cols)
    bad = QuantumGroup(g.algebra, g.coproduct, g.counit, g.antipode,
                       bad_h, g.haar_element, "perturbed-h")
    assert not check_haar_antipode_identity(bad).passed


def test_shape_validation():
    g = function_algebra(cyclic(2))
    with pytest.raises(InvalidDataError):
        QuantumGroup(g.algebra, g.antipode, g.counit, g.antipode,
                     g.haar_state, g.haar_element)


def test_haar_state_solver_rejects_non_invariant_coproduct():
    # a grouplike "coproduct" on the two-point function algebra admits no
    # normalized invariant functional, so the solver must refuse
    g = function_algebra(cyclic(2))
    one = scalar(1)
    diag = LinearMap(2, 4, [{0: one}, {3: one}])
    with pytest.raises(InvalidDataError):
        solve_haar_state(g.algebra, diag)


# -- the solvers' refusals, message by message ---------------------------------

def _refusal(solve, *args):
    with pytest.raises(InvalidDataError) as exc:
        solve(*args)
    return str(exc.value)


def test_haar_state_solver_messages():
    alg = function_algebra(cyclic(2)).algebra
    one = scalar(1)
    # Δ = 0 forces h = 0; Δ(x) = 1⊗x leaves every h invariant
    zero = LinearMap(2, 4, [{}, {}])
    assert _refusal(solve_haar_state, alg, zero) == \
        "haar state is not unique (solution space has dimension 0)"
    left_unit = LinearMap(2, 4, [{0: one, 2: one}, {1: one, 3: one}])
    assert _refusal(solve_haar_state, alg, left_unit) == \
        "haar state is not unique (solution space has dimension 2)"
    # Δ(e0) = 1⊗e0 = -Δ(e1): the invariant h have h1 = -h0, so h(1) = 0
    killing = LinearMap(2, 4, [{0: one, 2: one}, {0: -one, 2: -one}])
    assert _refusal(solve_haar_state, alg, killing) == \
        "invariant functional kills the unit; no haar state"


def test_haar_element_solver_messages():
    one = scalar(1)
    star = LinearMap.identity(2, one)
    fun2 = function_algebra(cyclic(2)).algebra
    zero_counit = LinearMap(2, 1, [{}, {}])
    assert _refusal(solve_haar_element, fun2, zero_counit) == \
        "haar element is not unique (solution space has dimension 0)"
    null_product = StarAlgebra(2, {}, {0: one}, star)
    assert _refusal(solve_haar_element, null_product, zero_counit) == \
        "haar element is not unique (solution space has dimension 2)"
    # the dual numbers C[x]/x² with ε(x) = 0: the only candidate is x, and ε(x) = 0
    dual_numbers = StarAlgebra(2, {0: {0: {0: one}, 1: {1: one}}, 1: {0: {1: one}}},
                               {0: one}, star)
    counit = LinearMap(2, 1, [{0: one}, {}])
    assert _refusal(solve_haar_element, dual_numbers, counit) == \
        "counit kills every candidate haar element"


# -- generator certificates: oracle against full sweeps -----------------------

def _full_coassociativity_sweep(cols, n):
    """Reference: the first j with (Δ⊗id)Δ(e_j) != (id⊗Δ)Δ(e_j)."""
    for j in range(n):
        left, right = {}, {}
        for r, c in cols.get(j, {}).items():
            a, b = divmod(r, n)
            for r2, c2 in cols.get(a, {}).items():
                accumulate(left, divmod(r2, n) + (b,), c * c2)
            for r2, c2 in cols.get(b, {}).items():
                accumulate(right, (a,) + divmod(r2, n), c * c2)
        if nonzero(left) != nonzero(right):
            return False, (j,)
    return True, ()


def _full_multiplicativity_sweep(mult, cols, n):
    """Reference: the first (i, j) with Δ(e_i e_j) != Δ(e_i)Δ(e_j)."""
    for i, j in product(range(n), repeat=2):
        lhs, rhs = {}, {}
        for k, c in mult.get(i, {}).get(j, {}).items():
            for r, d in cols.get(k, {}).items():
                accumulate(lhs, r, c * d)
        for (r1, c1), (r2, c2) in product(cols.get(i, {}).items(), cols.get(j, {}).items()):
            (p, q), (s, t) = divmod(r1, n), divmod(r2, n)
            for (k1, d1), (k2, d2) in product(mult.get(p, {}).get(s, {}).items(),
                                              mult.get(q, {}).get(t, {}).items()):
                accumulate(rhs, k1 * n + k2, c1 * c2 * d1 * d2)
        if nonzero(lhs) != nonzero(rhs):
            return False, (i, j)
    return True, ()


@settings(max_examples=300)
@given(st.sampled_from(("S3", "Z6", "D4", "Q8")), st.sampled_from(("fun", "grp")),
       st.sampled_from(("product", "coproduct")), st.data())
def test_coalgebra_certificates_agree_with_full_sweeps(group, kind, part, data):
    g = (function_algebra if kind == "fun" else group_algebra)(named_group(group))
    n = g.dim
    mult, cols = g.algebra.mult, dict(enumerate(g.coproduct.cols))
    if part == "product":
        # the pairs (i, j) as keys, so one draw serves both tables
        pairs = perturbed({(i, j): terms for i, row in mult.items() for j, terms in row.items()},
                           list(product(range(n), repeat=2)), n, data)
        mult = {}
        for (i, j), terms in pairs.items():
            mult.setdefault(i, {})[j] = terms
    else:
        cols = perturbed(cols, list(range(n)), n * n, data)
    algebra = StarAlgebra(n, mult, g.algebra.unit, g.algebra.star, "perturbed")
    delta = LinearMap(n, n * n, [cols.get(k, {}) for k in range(n)])
    rep = verify_quantum_group(QuantumGroup(algebra, delta, g.counit, g.antipode,
                                            g.haar_state, g.haar_element, "perturbed"))
    got = {name: (rep.check(name).passed, tuple(rep.check(name).witness))
           for name in ("coassociativity", "coproduct_multiplicative")}
    assert got == {"coassociativity": _full_coassociativity_sweep(cols, n),
                   "coproduct_multiplicative": _full_multiplicativity_sweep(mult, cols, n)}


def _fresh_copy(g):
    return QuantumGroup(g.algebra, g.coproduct, g.counit, g.antipode, g.haar_state,
                        g.haar_element, g.label)


@pytest.mark.parametrize("build", [function_algebra, group_algebra])
def test_multiplicativity_certificate_takes_few_tensor_products(build, monkeypatch):
    g = _fresh_copy(build(cyclic(32)))
    calls = []
    kernel = fqg.algebra.tensor_mult

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(fqg.algebra, "tensor_mult", counted)
    assert verify_quantum_group(g).passed
    assert len(calls) <= 4 * g.dim


def test_coassociativity_certificate_applies_no_coproduct_leg(monkeypatch):
    g = _fresh_copy(function_algebra(cyclic(16)))
    leg_apply = fqg.hopf.leg_apply
    legs_of_delta = []

    def counted(m, v, right_dim, leg):
        if m is g.coproduct:
            legs_of_delta.append(leg)
        return leg_apply(m, v, right_dim, leg)

    monkeypatch.setattr(fqg.hopf, "leg_apply", counted)
    assert verify_quantum_group(g).passed
    assert legs_of_delta == []


# -- Hopf morphisms: oracle against Kronecker products and plain loops ---------

MORPHISM_CHECKS = ["multiplicative", "unital", "star_preserving", "coproduct_intertwined",
                   "counit_intertwined", "antipode_intertwined", "haar_intertwined"]


def _reference_hopf_morphism(g, h, t):
    """The seven verdicts of check_hopf_morphism, with (T⊗T)∘Δ as the
    Kronecker product T.tensor(T) composed with Δ."""
    a, b, n = g.algebra, h.algebra, g.dim
    return [
        all(vec_eq(t.apply(a.basis_product(i, j)), b.multiply_vec(t.cols[i], t.cols[j]))
            for i, j in product(range(n), repeat=2)),
        vec_eq(t.apply(a.unit), b.unit),
        all(vec_eq(t.apply(a.star.cols[i]), b.star_vec(t.cols[i])) for i in range(n)),
        h.coproduct.compose(t) == t.tensor(t).compose(g.coproduct),
        h.counit.compose(t) == g.counit,
        h.antipode.compose(t) == t.compose(g.antipode),
        h.haar_state.compose(t) == g.haar_state,
    ]


def _permutation_map(perm):
    return LinearMap(len(perm), len(perm), [{perm[j]: scalar(1)} for j in range(len(perm))])


def _morphism_cases():
    s3, z3 = named_group("S3"), cyclic(3)
    aut = enumerate_automorphisms(s3)[-1]
    # fixes the identity and swaps an element of order 2 with one of order 3
    two = next(x for x in range(6) if s3.element_order(x) == 2)
    three = next(x for x in range(6) if s3.element_order(x) == 3)
    bad = list(range(6))
    bad[two], bad[three] = three, two
    fun, grp, fun3 = function_algebra(s3), group_algebra(s3), function_algebra(z3)
    return {
        "fun-identity": (fun, fun, LinearMap.identity(6, scalar(1))),
        "fun-automorphism": (fun, fun, _permutation_map(aut)),
        "fun-bijection": (fun, fun, _permutation_map(bad)),
        "grp-automorphism": (grp, grp, _permutation_map(aut)),
        "grp-bijection": (grp, grp, _permutation_map(bad)),
        "fun-doubled": (fun, fun, LinearMap.identity(6, scalar(2))),
        "fun3-rotated": (fun3, fun3, LinearMap.identity(3, scalar(0, 1))),
    }


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_morphism_cases())), st.booleans(), st.data())
def test_hopf_morphism_checks_match_kronecker_reference(case, change, data):
    g, h, t = _morphism_cases()[case]
    if change:  # one entry set to 1, 2, -1 or i
        cols = [dict(col) for col in t.cols]
        j = data.draw(st.integers(0, g.dim - 1))
        k = data.draw(st.integers(0, h.dim - 1))
        cols[j][k] = data.draw(st.sampled_from([scalar(1), scalar(2), scalar(-1), scalar(0, 1)]))
        t = LinearMap(g.dim, h.dim, cols)
    rep = check_hopf_morphism(g, h, t)
    assert [c.name for c in rep.checks] == MORPHISM_CHECKS
    assert [c.passed for c in rep.checks] == _reference_hopf_morphism(g, h, t)


def test_hopf_morphism_of_the_wrong_shape_raises():
    fun3, fun2 = function_algebra(cyclic(3)), function_algebra(cyclic(2))
    ones = [{0: scalar(1)}] * 3
    for g, h, t in ((fun3, fun2, LinearMap(3, 3, ones)), (fun3, fun3, LinearMap(2, 3, ones[:2])),
                    (fun3, fun3, LinearMap(3, 2, ones))):
        with pytest.raises(ValueError, match="composition shape mismatch"):
            check_hopf_morphism(g, h, t)


def test_hopf_morphism_verdicts_on_named_maps():
    verdicts = {case: check_hopf_morphism(*args).failed_names()
                for case, args in _morphism_cases().items()}
    assert verdicts["fun-identity"] == verdicts["fun-automorphism"] == []
    assert verdicts["grp-automorphism"] == []
    # a bijection of points keeps the pointwise structure, not the group law
    assert verdicts["fun-bijection"] == ["coproduct_intertwined", "antipode_intertwined"]
    assert "multiplicative" in verdicts["grp-bijection"]
    assert verdicts["fun-doubled"][:2] == ["multiplicative", "unital"]
    assert verdicts["fun3-rotated"][:3] == MORPHISM_CHECKS[:3]


# h on the basis, as (re, im) pairs, and the haar_positive witness it gives:
# on fun(Z3) the Gram matrix h(e_j* e_i) is diag(h); on grp(Z3) it is
# h(λ_{i-j}), Hermitian exactly when h(λ_2) = conj(h(λ_1))
GRAM_CASES = [
    ("fun", [(1, 0), (1, 0), (-1, 0)], ("pivot", 2)),
    ("grp", [(1, 0), (0, 1), (0, 0)], ("not-hermitian", 0, 1)),
    ("grp", [(1, 0), (1, 0), (1, 0)], ("pivot", 1)),
    ("grp", [(1, 0), (Fraction(2, 3), 0), (Fraction(2, 3), 0)], ()),
    ("grp", [(1, 0), (Fraction(2, 3), 0), (Fraction(1, 3), 0)], ("not-hermitian", 0, 1)),
]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("kind, values, witness", GRAM_CASES)
def test_haar_gram_check_names_its_first_failure(backend, kind, values, witness):
    with use_backend(backend):
        g = (function_algebra if kind == "fun" else group_algebra)(cyclic(3))
        h = LinearMap(3, 1, [{0: scalar(re, im)} for re, im in values])
        changed = QuantumGroup(g.algebra, g.coproduct, g.counit, g.antipode, h,
                               g.haar_element)
        check = _gram_positivity_check(changed)
        assert (check.name, check.passed, check.witness) == ("haar_positive", not witness, witness)
        report = verify_quantum_group(changed)
        assert [c.witness for c in report.checks if c.name == "haar_positive"] == [witness]


def _dense_gram_witness(g):
    """haar_positive's witness from the full Gram matrix: every pair scanned,
    every entry eliminated (the check before it read stated entries only)."""
    a, n = g.algebra, g.dim
    one = scalar(1)
    zero = one - one
    gram = [[g.haar_of(a.multiply_vec(a.star.cols[j], {i: one})) or zero for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not (gram[i][j] - gram[j][i].conj()).is_zero():
                return ("not-hermitian", i, j)
    for k in range(n):
        piv = gram[k][k]
        if not (piv.is_real() and piv.re > (0 if type(one) is QQi else 1e-9)):
            return ("pivot", k)
        for i in range(k + 1, n):
            f = gram[i][k] * piv.inv()
            gram[i] = [x if j < k else x - f * gram[k][j] for j, x in enumerate(gram[i])]
    return ()


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", ["Z4", "S3", "D4", "Q8"])
def test_haar_gram_check_agrees_with_the_dense_scan(backend, name):
    import random

    rng = random.Random(name)
    with use_backend(backend):
        for g in (function_algebra(named_group(name)), group_algebra(named_group(name))):
            n = g.dim
            for trial in range(12):
                values = [scalar(rng.randint(-1, 3), rng.randint(-1, 1) if trial % 3 else 0)
                          for _ in range(n)]
                if trial % 2:  # h(x*) = conj(h(x)), so only the pivots can fail
                    star = g.algebra.star.cols
                    for i in range(n):
                        (k, c), = star[i].items()
                        if k < i:
                            values[i] = (values[k] * c).conj()
                        elif k == i:
                            values[i] = scalar(values[i].re)
                h = LinearMap(n, 1, [{0: v} for v in values])
                changed = QuantumGroup(g.algebra, g.coproduct, g.counit, g.antipode, h,
                                       g.haar_element)
                assert _gram_positivity_check(changed).witness == _dense_gram_witness(changed)


# -- the Haar/antipode exchange identity: oracle against tensor_mult ----------


def _tensor_mult_identity_witness(g):
    """haar_antipode_identity's witness from its definition, each basis pair
    formed on A⊗A with tensor_mult and then h on the second leg, as the check
    did before it contracted Δ with the pairing table; () when it holds."""
    a, n = g.algebra, g.dim
    one = scalar(1)
    h, delta, anti, unit = g.haar_state, g.coproduct, g.antipode, a.unit
    for b, c in product(range(n), repeat=2):
        lhs = anti.apply(leg_apply(
            h, tensor_mult(a, a, delta.cols[b], tensor_vec(unit, {c: one}, n)), n, 1))
        rhs = leg_apply(h, tensor_mult(a, a, tensor_vec(unit, {b: one}, n), delta.cols[c]), n, 1)
        if not vec_eq(lhs, rhs):
            return (b, c)
    return ()


def _identity_mutant(g, rng):
    """``g`` with one entry of h, S, Δ or the unit scaled by 2, -1 or i, or
    zeroed."""
    part = rng.choice(("haar_state", "antipode", "coproduct", "unit"))
    factor = scalar(*rng.choice(((2, 0), (-1, 0), (0, 1), (0, 0))))
    a = g.algebra
    parts = {"coproduct": g.coproduct, "counit": g.counit, "antipode": g.antipode,
             "haar_state": g.haar_state}
    unit = dict(a.unit)
    if part == "unit":
        k = rng.choice(sorted(unit))
        unit[k] = unit[k] * factor
    else:
        m = parts[part]
        cols = [dict(col) for col in m.cols]
        j = rng.choice([j for j, col in enumerate(cols) if col])
        k = rng.choice(sorted(cols[j]))
        cols[j][k] = cols[j][k] * factor
        parts[part] = LinearMap(m.source_dim, m.target_dim, cols)
    return QuantumGroup(StarAlgebra(a.dim, a.mult, unit, a.star, a.label), parts["coproduct"],
                        parts["counit"], parts["antipode"], parts["haar_state"],
                        g.haar_element, "%s, %s changed" % (g.label, part))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_haar_antipode_identity_matches_the_tensor_mult_definition(backend):
    rng = random.Random(24)
    failing = 0
    with use_backend(backend):
        catalog = [build(named_group(name)) for name in CATALOG
                   for build in (function_algebra, group_algebra)]
        for g in catalog:
            assert _tensor_mult_identity_witness(g) == ()
            assert check_haar_antipode_identity(g).passed
        small = [g for g in catalog if g.dim <= 8]
        for _ in range(320):
            bad = _identity_mutant(rng.choice(small), rng)
            witness = _tensor_mult_identity_witness(bad)
            check = check_haar_antipode_identity(bad).check("haar_antipode_identity")
            assert (check.passed, tuple(check.witness)) == (not witness, witness), bad.label
            failing += bool(witness)
    assert failing >= 150
