import random
from fractions import Fraction
from itertools import product

import pytest

from fqg.algebra import BlockAlgebra, InvalidDataError, StarAlgebra, _disjoint_supports
from fqg.classical import (MagicMatrix, _commutative, _entry_checks, _translation_invariant,
                           automorphism_group,
                           check_cyclic_identity, check_dual_group_theorem,
                           check_dualact_consequences, check_magic_unitary,
                           check_order_properties, check_pointwise_relations,
                           enumerate_automorphisms,
                           enumerate_automorphisms_brute, extract_matrix,
                           group_of_function_algebra, group_of_group_algebra,
                           universal_classical_family)
from fqg.constructors import function_algebra, group_algebra
from fqg.fixtures import (counit_degenerate_family, sign_twisted_dual_family,
                          translation_family, trivial_hopf_target)
from fqg.fourier import dual_pair
from fqg.groups import CATALOG, FiniteGroup, cyclic, klein4, named_group
from fqg.hopf import QuantumGroup
from fqg.linalg import LinearMap, vec_eq
from fqg.qfamily import QuantumFamily, hat, identity_family
from fqg.scalar import scalar, use_backend

from support import SCALINGS, automorphisms_by_full_scan, count_multiply_vec

AUT_ORDERS = {"Z2": 1, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Z7": 6, "Z8": 4,
              "K4": 6, "S3": 6, "D4": 8, "Q8": 24, "S4": 24}


def test_automorphism_counts_match_brute_force_oracle():
    for name, expected in AUT_ORDERS.items():
        group = named_group(name)
        auts = enumerate_automorphisms(group)
        assert len(auts) == expected, name
        if group.order <= 8:
            assert enumerate_automorphisms_brute(group) == auts, name


ORACLE_GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "K4", "S3", "D4", "Q8",
                 "Z2xZ4", "Z2xZ2xZ2")


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_pruned_oracle_matches_the_full_bijection_scan(name):
    group = named_group(name)
    assert enumerate_automorphisms_brute(group) == automorphisms_by_full_scan(group)


def test_pruned_oracle_with_the_identity_off_index_0():
    """Z4 as x·y = x + y + 2 mod 4, whose identity is 2: the two
    automorphisms fix 0 and 2 and fix or swap 1 and 3."""
    group = FiniteGroup([[(x + y + 2) % 4 for y in range(4)] for x in range(4)], "Z4+2")
    assert group.identity == 2
    auts = enumerate_automorphisms_brute(group)
    assert auts == automorphisms_by_full_scan(group) == [(0, 1, 2, 3), (0, 3, 2, 1)]


def test_brute_force_rejects_large_groups():
    with pytest.raises(InvalidDataError, match="^full bijection scan is limited to order 8$"):
        enumerate_automorphisms_brute(cyclic(9))
    with pytest.raises(InvalidDataError):
        enumerate_automorphisms_brute(named_group("S4"))


def test_pruned_search_rejects_groups_beyond_order_24():
    with pytest.raises(InvalidDataError):
        enumerate_automorphisms(named_group("S4xZ2"))


def test_automorphism_group_structure():
    aut, auts = automorphism_group(named_group("Z5"))
    assert aut.order == 4
    # Aut(Z_5) is cyclic of order 4: some element has order 4
    assert any(aut.element_order(x) == 4 for x in range(4))
    aut_k4, _ = automorphism_group(klein4())
    assert aut_k4.order == 6 and not aut_k4.is_abelian()


def test_extract_matrix_identity_family():
    g = function_algebra(cyclic(3))
    m = extract_matrix(identity_family(g))
    one = scalar(1)
    for x in range(3):
        for y in range(3):
            expected = {0: one} if x == y else {}
            assert vec_eq(m.entries[x][y], expected)


def test_extract_matrix_universal_z3_frozen():
    # Aut(Z_3) = {id, negation}; B = functions on it with id at index 0
    m = extract_matrix(universal_classical_family(cyclic(3)))
    one = scalar(1)
    assert vec_eq(m.entries[0][0], {0: one, 1: one})  # both maps fix 0
    assert vec_eq(m.entries[1][1], {0: one})
    assert vec_eq(m.entries[2][2], {0: one})
    assert vec_eq(m.entries[2][1], {1: one})
    assert vec_eq(m.entries[1][2], {1: one})
    for x in (1, 2):
        assert vec_eq(m.entries[0][x], {})
        assert vec_eq(m.entries[x][0], {})


def test_extract_matrix_counit_degenerate():
    # computed: α(δ_y) = δ_{y,e}·(Σ_x δ_x)⊗1, so p_{x,y} = δ_{y,e}·1 for all x
    qf = counit_degenerate_family(function_algebra(cyclic(3)))
    m = extract_matrix(qf)
    one = scalar(1)
    for x in range(3):
        for y in range(3):
            assert vec_eq(m.entries[x][y], {0: one} if y == 0 else {})


def test_extract_matrix_rejects_group_ring_source():
    qf = identity_family(group_algebra(cyclic(3)))
    with pytest.raises(InvalidDataError):
        extract_matrix(qf)


def test_group_recovery():
    fun = function_algebra(named_group("S3"))
    assert group_of_function_algebra(fun).table == named_group("S3").table
    grp = group_algebra(named_group("S3"))
    assert group_of_group_algebra(grp).table == named_group("S3").table
    with pytest.raises(InvalidDataError):
        group_of_group_algebra(fun)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_function_algebra_and_its_dual_group_ring_give_one_group(name):
    """Γ is read off the dual table of fun(Γ), Δ transposed, by the reader
    that reads it off the product of the group ring, here of the dual."""
    fun = function_algebra(named_group(name))
    assert (group_of_function_algebra(fun).table
            == group_of_group_algebra(dual_pair(fun).dual).table == named_group(name).table)


def test_the_group_readers_name_what_is_not_a_group():
    one, n = scalar(1), 3
    fun, grp = function_algebra(cyclic(n)), group_algebra(cyclic(n))

    def refusal(g, read, **parts):
        maps = {"coproduct": g.coproduct, "counit": g.counit, "antipode": g.antipode,
                "haar_state": g.haar_state, "haar_element": g.haar_element} | parts
        with pytest.raises(InvalidDataError) as exc:
            read(QuantumGroup(maps.pop("algebra", g.algebra), **maps))
        return str(exc.value)

    def coproduct(g, j, r, c):
        cols = [dict(col) for col in g.coproduct.cols]
        cols[j][r] = c
        return LinearMap(n, n * n, [{r: c for r, c in col.items() if c is not None}
                                    for col in cols])

    def table(i, j, terms):
        a = grp.algebra
        mult = {i2: dict(row) for i2, row in a.mult.items()}
        mult[i][j] = terms
        return StarAlgebra(n, mult, a.unit, a.star)

    law = "coproduct is not a group-law coproduct"
    assert refusal(fun, group_of_function_algebra, coproduct=coproduct(fun, 1, 1, scalar(2))) == law
    assert refusal(fun, group_of_function_algebra, coproduct=coproduct(fun, 1, 1, None)) == law
    assert refusal(fun, group_of_function_algebra, coproduct=coproduct(fun, 2, 3, one)) == law
    assert (refusal(grp, group_of_group_algebra, algebra=table(1, 1, {2: scalar(2)}))
            == "source is not a group ring (scaled product)")
    assert (refusal(grp, group_of_group_algebra, algebra=table(1, 1, {2: one, 0: one}))
            == "source is not a group ring (non-monomial product)")
    assert (refusal(grp, group_of_group_algebra, coproduct=coproduct(grp, 1, 1, one))
            == "source coproduct is not grouplike")


def test_pointwise_relations_positive():
    for name in ("S3", "Z6"):
        m = extract_matrix(universal_classical_family(named_group(name)))
        rep = check_pointwise_relations(m)
        assert rep.passed, rep.failed_names()
    m = extract_matrix(identity_family(function_algebra(cyclic(4))))
    assert check_pointwise_relations(m).passed


def test_translation_action_fails_convolution_relation_with_witness():
    m = extract_matrix(translation_family(named_group("S3")))
    rep = check_pointwise_relations(m)
    assert rep.check("entries_self_adjoint").passed
    assert rep.check("entries_idempotent").passed
    assert rep.check("row_sums_one").passed
    conv = rep.check("conv_hom_relation")
    assert not conv.passed
    assert len(conv.witness) == 3


def test_magic_unitary_on_automorphism_families():
    for name in ("Z6", "S3", "Q8"):
        m = extract_matrix(universal_classical_family(named_group(name)))
        assert check_magic_unitary(m).passed


@pytest.mark.parametrize("projection", ["corner", "averaged"])
def test_magic_unitary_two_by_two_over_m2(projection):
    b = BlockAlgebra([2])
    one = scalar(1)
    half = scalar(Fraction(1, 2))
    if projection == "corner":
        q = {0: one}                          # e_00
    else:
        q = {0: half, 1: half, 2: half, 3: half}  # averaging projection
    unit = dict(b.unit)
    one_minus_q = {k: unit.get(k, scalar(0)) - q.get(k, scalar(0))
                   for k in set(unit) | set(q)}
    one_minus_q = {k: v for k, v in one_minus_q.items() if not v.is_zero()}
    m = MagicMatrix(cyclic(2), b, [[q, one_minus_q], [one_minus_q, q]])
    rep = check_magic_unitary(m)
    assert rep.passed, rep.failed_names()


def test_magic_unitary_rows_only_counterexample():
    b = BlockAlgebra([1, 1])
    one = scalar(1)
    p0, p1 = {0: one}, {1: one}
    m = MagicMatrix(cyclic(2), b, [[p0, p1], [p0, p1]])
    rep = check_magic_unitary(m)
    assert rep.check("row_sums_one").passed
    assert not rep.check("column_sums_one").passed
    assert not rep.check("column_orthogonality").passed


def test_dualact_consequences():
    for name in ("Z6", "Q8"):
        m = extract_matrix(universal_classical_family(named_group(name)))
        rep = check_dualact_consequences(m)
        assert rep.passed, (name, rep.failed_names())
    m = extract_matrix(identity_family(function_algebra(cyclic(3))))
    assert check_dualact_consequences(m).passed


def test_order_properties_z6_mismatch_zero():
    z6 = cyclic(6)
    m = extract_matrix(universal_classical_family(z6))
    rep = check_order_properties(m)
    assert rep.passed, rep.failed_names()
    # explicit spot check: x of order 2, y of order 3 forces a zero entry
    x = next(g for g in range(6) if z6.element_order(g) == 2)
    y = next(g for g in range(6) if z6.element_order(g) == 3)
    assert vec_eq(m.entries[x][y], {})


def test_order_properties_identity_family():
    m = extract_matrix(identity_family(function_algebra(named_group("S3"))))
    assert check_order_properties(m).passed


def test_inductive_relation_diagonal_case_on_s3():
    group = named_group("S3")
    m = extract_matrix(universal_classical_family(group))
    b = m.target
    tbl = group.table
    for x in range(6):
        for y in range(6):
            pxy = m.entries[x][y]
            if not pxy:
                continue
            # k = 1, u = y: p_{x,y} p_{x^2, y^2} = p_{x,y}
            x2, y2 = tbl[x][x], tbl[y][y]
            assert vec_eq(b.multiply_vec(pxy, m.entries[x2][y2]), pxy)


@pytest.mark.parametrize("name", ["Z4", "Z5", "Z8", "Z9"])
def test_cyclic_identity(name):
    m = extract_matrix(universal_classical_family(named_group(name)))
    rep = check_cyclic_identity(m)
    assert rep.passed, rep.failed_names()


def test_cyclic_identity_rejects_noncyclic():
    m = extract_matrix(universal_classical_family(klein4()))
    with pytest.raises(InvalidDataError):
        check_cyclic_identity(m)


def test_universal_family_trivial_group():
    qf = universal_classical_family(cyclic(1))
    assert qf.target_algebra.dim == 1
    from fqg.qfamily import is_automorphism_family

    ok, _ = is_automorphism_family(qf)
    assert ok


def test_dual_group_theorem_positive_cases():
    for name in ("S3", "Z4"):
        fam = hat(universal_classical_family(named_group(name)))
        rep = check_dual_group_theorem(fam)
        assert rep.passed, (name, rep.failed_names())


def test_dual_group_theorem_identity_on_group_ring():
    base = identity_family(group_algebra(cyclic(4)))
    qf = QuantumFamily(base.source, base.target_algebra, base.alpha,
                       trivial_hopf_target(), base.label)
    rep = check_dual_group_theorem(qf)
    assert rep.passed, rep.failed_names()


def test_dual_group_theorem_negative_control_fails_at_idempotency():
    rep = check_dual_group_theorem(sign_twisted_dual_family())
    fails = rep.failed_names()
    assert fails and fails[0] == "entries_idempotent"
    assert rep.check("counit_of_entries").passed
    assert rep.check("coproduct_of_entries").passed


# -- the relation certificates against full sweeps ---------------------------------

CERTIFIED = ("shift_relation", "localized_relation", "inductive_relation", "power_domination",
             "power_row_commutation", "power_column_commutation", "row_orthogonality",
             "column_orthogonality", "entrywise_commutation")


def _is_cyclic(group):
    return any(group.element_order(x) == group.order for x in range(group.order))


def _full_sweeps(m):
    """(passed, witness) of each certified relation from plain lexicographic
    loops over its own equations, with no certificate in front;
    ``entrywise_commutation`` on a cyclic group only."""
    grp, b, p = m.group, m.target, m.entries
    n, tbl, inv = grp.order, grp.table, grp.inverse
    mul = b.multiply_vec
    live = [(x, y) for x in range(n) for y in range(n) if p[x][y]]
    exponent = grp.exponent()
    powers = [[grp.power(x, k) for k in range(2, grp.element_order(x) + 2)] for x in range(n)]

    def first(indices, pred):
        for w in indices:
            if not pred(*w):
                return False, w
        return True, ()

    def commute(x1, y1, x2, y2):
        return vec_eq(mul(p[x1][y1], p[x2][y2]), mul(p[x2][y2], p[x1][y1]))

    sweeps = {
        "power_row_commutation": first(
            ((x, y, xn, z) for x in range(n) for xn in powers[x]
             for y in range(n) if p[x][y] for z in range(n) if p[xn][z]), commute),
        "power_column_commutation": first(
            ((y, x, z, xn) for x in range(n) for xn in powers[x]
             for y in range(n) if p[y][x] for z in range(n) if p[z][xn]), commute),
        "row_orthogonality": first(
            ((x, y, z) for x, y in live for z in range(n) if z != y),
            lambda x, y, z: vec_eq(mul(p[x][y], p[x][z]), {})),
        "column_orthogonality": first(
            ((x, y, z) for y in range(n) for x in range(n) if p[x][y]
             for z in range(n) if z != x),
            lambda x, y, z: vec_eq(mul(p[x][y], p[z][y]), {})),
        "shift_relation": first(
            ((x, y, z, u) for x, y in live for z in range(n) for u in range(n)),
            lambda x, y, z, u: vec_eq(mul(p[x][y], p[z][u]),
                                      mul(p[x][y], p[tbl[x][z]][tbl[y][u]]))),
        "localized_relation": first(
            ((u, x, y, z) for u, y in live for x in range(n) for z in range(n)),
            lambda u, x, y, z: vec_eq(mul(p[u][y], p[x][tbl[y][z]]),
                                      mul(p[u][y], p[tbl[inv[u]][x]][z]))),
        "inductive_relation": first(
            ((x, y, k, u) for x, y in live for k in range(1, exponent + 1) for u in range(n)),
            lambda x, y, k, u: vec_eq(
                mul(p[x][y], p[grp.power(x, k + 1)][tbl[grp.power(y, k)][u]]),
                p[x][y] if u == y else {})),
        "power_domination": first(
            ((x, y, grp.power(x, k), grp.power(y, k))
             for x, y in live for k in range(2, exponent + 2)),
            lambda x, y, xn, yn: vec_eq(mul(p[x][y], p[xn][yn]), p[x][y])),
    }
    if _is_cyclic(grp):
        sweeps["entrywise_commutation"] = first(
            (live[i] + w for i in range(len(live)) for w in live[i + 1:]), commute)
    return sweeps


def _certified_checks(m):
    fresh = MagicMatrix(m.group, m.target, m.entries)
    checks = (check_dualact_consequences(fresh).checks + check_order_properties(fresh).checks
              + check_magic_unitary(fresh).checks)
    if _is_cyclic(m.group):
        checks += check_cyclic_identity(fresh).checks
    return {c.name: (c.passed, tuple(c.witness)) for c in checks if c.name in CERTIFIED}


def _swapping_target(group):
    """A magic unitary over M_2 fixing every point except the first four
    non-identity elements a < b < c < d: [[p, 1-p], [1-p, p]] on (a, b) with
    p = e_11 and [[q, 1-q], [1-q, q]] on (c, d) with q = [[1, 1], [1, 1]]/2.
    p and q do not commute."""
    b = BlockAlgebra([2])
    half = scalar(Fraction(1, 2))
    p = {0: scalar(1)}
    q = {k: half for k in range(4)}

    def complement(e):
        out = dict(b.unit)
        for k, c in e.items():
            out[k] = out.get(k, scalar(0)) - c
        return {k: c for k, c in out.items() if not c.is_zero()}

    n = group.order
    entries = [[dict(b.unit) if x == y else {} for y in range(n)] for x in range(n)]
    a, bb, c, d = [x for x in range(n) if x != group.identity][:4]
    for (u, v), e in (((a, bb), p), ((c, d), q)):
        entries[u][u] = entries[v][v] = e
        entries[u][v] = entries[v][u] = complement(e)
    return MagicMatrix(group, b, entries)


def _with_stored_zero(m):
    """``m`` with a zero coefficient stored in the first p[x][z] at a point q
    of a nonzero p[x][y], y != z, where p[x][z] states nothing at q.  Every
    relation reads the same, but the stated supports of row x overlap."""
    n = m.group.order
    entries = [[dict(e) for e in row] for row in m.entries]
    x, z, q = next((x, z, q) for x in range(n) for y in range(n) for q in entries[x][y]
                   for z in range(n) if z != y and q not in entries[x][z])
    entries[x][z][q] = scalar(0)
    return MagicMatrix(m.group, m.target, entries)


def _base_matrix(name):
    kind, group = name.split("-")
    if kind == "universal":
        return extract_matrix(universal_classical_family(named_group(group)))
    if kind == "zero":
        return _with_stored_zero(extract_matrix(universal_classical_family(named_group(group))))
    if kind == "translation":
        return extract_matrix(translation_family(named_group(group)))
    if kind == "identity":
        return extract_matrix(identity_family(function_algebra(named_group(group))))
    return _swapping_target(named_group(group))


ORACLE_MATRICES = (["universal-" + name for name in CATALOG]
                   + ["translation-S3", "identity-S3", "zero-S3",
                      "swap-S3", "swap-D4", "swap-Q8", "swap-Z5"])


def _single_entry_changes(m, rng, count):
    """Copies of ``m`` with one coefficient of one entry scaled by 2, -1 or
    i, zeroed, or moved onto another entry (where it adds): every such change
    when ``count`` is None, else ``count`` of them drawn by ``rng``."""
    n = m.group.order
    coeffs = [(x, y, k) for x in range(n) for y in range(n) for k in sorted(m.entries[x][y])]
    kinds = sorted(SCALINGS) + ["zero"] + [("move", x, y) for x in range(n) for y in range(n)]
    if count is None:
        picks = list(product(coeffs, kinds))
    else:
        picks = [(rng.choice(coeffs), rng.choice(kinds)) for _ in range(count)]
    for (x, y, k), change in picks:
        entries = [[dict(e) for e in row] for row in m.entries]
        c = entries[x][y].pop(k)
        if change in SCALINGS:
            entries[x][y][k] = c * SCALINGS[change]
        elif change != "zero":
            terms = entries[change[1]][change[2]]
            terms[k] = terms[k] + c if k in terms else c
            if terms[k].is_zero():
                del terms[k]
        yield MagicMatrix(m.group, m.target, entries)


@pytest.mark.parametrize("name", ORACLE_MATRICES)
def test_translation_certificate_agrees_with_full_sweeps(name):
    base = _base_matrix(name)
    # every single-entry change on the small groups, a seeded sample on the rest
    count = None if base.group.order <= 3 else 12
    rng = random.Random(name)
    for m in [base] + list(_single_entry_changes(base, rng, count)):
        assert _certified_checks(m) == _full_sweeps(m), name


def test_swapping_target_witnesses():
    # p and q are projections whose products need the noncommutative path;
    # the witnesses are the ones the lexicographic sweeps found when recorded,
    # and the commutation certificates refuse the M_2 target
    expected = {
        "S3": {"localized_relation": (1, 2, 1, 3), "shift_relation": (1, 1, 2, 2)},
        "D4": {"power_domination": (3, 4, 5, 0), "inductive_relation": (3, 4, 1, 1)},
        "Q8": {"inductive_relation": (1, 2, 1, 2), "power_row_commutation": (2, 1, 3, 3),
               "power_column_commutation": (1, 2, 3, 3)},
        "Z5": {"entrywise_commutation": (1, 1, 3, 3), "power_row_commutation": (1, 1, 3, 3)},
    }
    for name, pins in expected.items():
        m = _swapping_target(named_group(name))
        assert check_magic_unitary(m).passed, name
        assert not _commutative(m.target)
        got = _certified_checks(m)
        for check, witness in pins.items():
            assert got[check] == (False, witness), (name, check)


def test_a_stored_zero_makes_the_pointwise_certificates_refuse():
    # the relations hold, but L_q and the stated row supports gain a cell:
    # the certificates refuse and the sweeps pass
    m = _base_matrix("zero-S3")
    assert not _translation_invariant(m)
    assert not all(map(_disjoint_supports, m.entries))
    assert _translation_invariant(_base_matrix("universal-S3"))
    assert all(passed for passed, _ in _certified_checks(m).values())


def _fresh_universal_matrix(name):
    m = extract_matrix(universal_classical_family(named_group(name)))
    return MagicMatrix(m.group, m.target, m.entries)


def test_translation_certificate_forms_each_product_once(monkeypatch):
    # the four certified sweeps on universal(S4) make 2 products per equation
    # for each of live * n**2 equations and more; with the certificates only
    # the idempotency sweep of the magic-unitary battery forms products
    m = _fresh_universal_matrix("S4")
    n = m.group.order
    live = sum(1 for row in m.entries for e in row if e)
    assert (live, n) == (146, 24)
    calls = count_multiply_vec(monkeypatch)
    assert check_dualact_consequences(m).passed
    assert check_order_properties(m).passed
    assert len(calls) <= 1.25 * live * n ** 2


def test_diagonal_certificates_form_no_products(monkeypatch):
    # over the diagonal fun(Aut S4) the translation relation is read point
    # by point, the orthogonality sweeps off disjoint supports and the
    # commutation sweeps off the commutative table: no product is formed
    m = _fresh_universal_matrix("S4")
    z8 = _fresh_universal_matrix("Z8")
    for matrix in (m, z8):
        check_magic_unitary(matrix)  # memoised: its idempotency sweep forms products
    calls = count_multiply_vec(monkeypatch)
    assert _translation_invariant(m)
    orthogonality = _entry_checks(m.target, m.entries, ("row_orthogonality",
                                                        "column_orthogonality"))
    assert all(c.passed for c in orthogonality)
    assert check_order_properties(m).passed
    assert check_cyclic_identity(z8).check("entrywise_commutation").passed
    assert calls == []


def test_translation_certificate_skips_empty_entries(monkeypatch):
    # on the noncommutative M_2 target the certificate walks the products: a
    # product with an empty p[a][b] is empty, so only the live x live
    # products of two nonzero entries reach the kernel
    calls = count_multiply_vec(monkeypatch)
    for name in ("S3", "D4", "Q8"):
        m = _swapping_target(named_group(name))
        live = sum(1 for row in m.entries for e in row if e)
        before = len(calls)
        assert not _translation_invariant(m)
        assert 0 < len(calls) - before <= live ** 2


def test_float_backend_sweeps_the_translation_relations(monkeypatch):
    with use_backend("float"):
        m = _fresh_universal_matrix("S3")
        n = m.group.order
        live = sum(1 for row in m.entries for e in row if e)
        calls = count_multiply_vec(monkeypatch)
        assert check_dualact_consequences(m).passed
        assert check_order_properties(m).passed
    # shift_relation and localized_relation alone: 2 products per equation
    assert len(calls) >= 4 * live * n ** 2


def test_float_backend_sweeps_the_orthogonality_and_commutation_relations(monkeypatch):
    calls = count_multiply_vec(monkeypatch)
    with use_backend("float"):
        m = _fresh_universal_matrix("Z5")
        for run in (lambda: _entry_checks(m.target, m.entries, ("row_orthogonality",)),
                    lambda: _entry_checks(m.target, m.entries, ("column_orthogonality",)),
                    lambda: [check_order_properties(m)],
                    lambda: [check_cyclic_identity(m).check("entrywise_commutation")]):
            before = len(calls)
            assert all(c.passed for c in run())
            assert len(calls) > before


def test_podles_rank_eliminates_distinct_slices_only(monkeypatch):
    # hat(universal(S4)) has 576 nonzero slices, 24 of them distinct.  Each
    # states one entry, so the Podles rank counts the indices they sit at and
    # no elimination runs; spread over two entries each, the same slices are
    # eliminated once per distinct one, at the rank of all 576
    from fqg import linalg
    from fqg.qfamily import check_family

    fam = hat(universal_classical_family(named_group("S4")))
    fresh = QuantumFamily(fam.source, fam.target_algebra, fam.alpha,
                          fam.hopf_on_target, fam.label)
    rows = []
    rank_bareiss = linalg._rank_bareiss

    def counted(m, ncols):
        rows.append(len(m))
        return rank_bareiss(m, ncols)

    monkeypatch.setattr(linalg, "_rank_bareiss", counted)
    assert check_family(fresh).check("podles").passed
    assert rows == []

    n, m = fam.source.dim, fam.target_algebra.dim
    slices = [{} for _ in range(n * m)]
    for j, col in enumerate(fam.alpha.cols):
        for r, c in col.items():
            x, q = divmod(r, m)
            slices[j * m + q][x] = c
    slices = [v for v in slices if v]
    assert len(slices) == 576 and all(len(v) == 1 for v in slices)
    spread = [{k: c, (k + 1) % n: c} for v in slices for k, c in v.items()]
    rank = linalg.rank_of_vectors(spread, n)
    assert rows == [24]
    assert rank == rank_bareiss([linalg._gaussian_integer_row(v, n) for v in spread], n)
