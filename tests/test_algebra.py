import random
import time
from fractions import Fraction
from functools import partial, reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqg.algebra
from fqg.algebra import (BlockAlgebra, Element, InvalidDataError, StarAlgebra,
                         _basis_generators, _is_associative, hom_check, hom_indices,
                         hom_predicate, rank_of_span, scalar_algebra, tensor_algebra, tensor_mult,
                         verify_star_algebra)
from fqg.constructors import function_algebra, group_algebra
from fqg.fourier import convolution_algebra, dual_pair, verify_fourier_identities
from fqg.groups import CATALOG, cyclic, direct_product, named_group, symmetric
from fqg.hopf import dual_algebra, verify_quantum_group
from fqg.linalg import LinearMap, flip_map, vec_add_into, vec_eq
from fqg.qfamily import QuantumFamily, check_family, identity_family
from fqg.scalar import QQi, one_like, scalar, use_backend

from support import SCALINGS, benchmark_ladder_groups, count_multiply_vec

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=5)
coeff_lists = st.lists(st.builds(QQi, fractions, fractions), min_size=3, max_size=3)


@pytest.fixture(scope="module")
def fun_z2():
    return function_algebra(cyclic(2)).algebra


@pytest.fixture(scope="module")
def grp_z3():
    return group_algebra(cyclic(3)).algebra


def test_orthogonal_idempotents(fun_z2):
    d0, d1 = fun_z2.basis_element(0), fun_z2.basis_element(1)
    assert (d0 * d1).is_zero()
    assert d0 * d0 == d0


@given(coeff_lists)
def test_unit_law_random(coeffs):
    a = group_algebra(cyclic(3)).algebra
    x = a.element(coeffs)
    assert a.unit_element() * x == x
    assert x * a.unit_element() == x


def test_group_ring_product(grp_z3):
    l1, l2 = grp_z3.basis_element(1), grp_z3.basis_element(2)
    assert l1 * l2 == grp_z3.basis_element(0)


def test_star_examples(fun_z2, grp_z3):
    i_d0 = fun_z2.element({0: scalar(0, 1)})
    assert i_d0.star() == fun_z2.element({0: scalar(0, -1)})
    # group elements are unitary, so the involution inverts them
    assert grp_z3.basis_element(1).star() == grp_z3.basis_element(2)


@given(coeff_lists)
def test_star_involutive(coeffs):
    a = group_algebra(cyclic(3)).algebra
    x = a.element(coeffs)
    assert x.star().star() == x


def test_dimension_mismatch_rejected(fun_z2, grp_z3):
    with pytest.raises(InvalidDataError):
        fun_z2.basis_element(0) * grp_z3.basis_element(0)


def test_tensor_dimension_and_unit(fun_z2, grp_z3):
    t = tensor_algebra(fun_z2, grp_z3)
    assert t.dim == fun_z2.dim * grp_z3.dim
    assert verify_star_algebra(t).passed
    u = t.unit_element()
    assert u * u == u


def test_tensor_of_function_algebras_is_product_group_functions():
    z2 = cyclic(2)
    a = function_algebra(z2).algebra
    t = tensor_algebra(a, a)
    prod = function_algebra(direct_product(z2, z2)).algebra
    assert t.dim == prod.dim
    assert t.mult == prod.mult
    assert vec_eq(t.unit, prod.unit)
    assert t.star == prod.star


def test_tensor_associativity_on_structure_constants():
    a = function_algebra(cyclic(2)).algebra
    b = group_algebra(cyclic(2)).algebra
    c = BlockAlgebra([1, 1])
    left = tensor_algebra(tensor_algebra(a, b), c)
    right = tensor_algebra(a, tensor_algebra(b, c))
    assert left.mult == right.mult
    assert vec_eq(left.unit, right.unit)
    assert left.star == right.star


def _left_regular(a, i):
    """Dense matrix of x ↦ e_i x on ``a``: column j is e_i e_j."""
    zero = scalar(0)
    m = [[zero] * a.dim for _ in range(a.dim)]
    for j, terms in a.mult.get(i, {}).items():
        for k, c in terms.items():
            m[k][j] = c
    return m


def _kronecker(x, y):
    return [[cx * cy for cx in row_x for cy in row_y] for row_x in x for row_y in y]


def _root_of_i():
    """C[u]/(u² − i): the one structure constant of u·u is i."""
    one = scalar(1)
    return StarAlgebra(2, {0: {0: {0: one}, 1: {1: one}}, 1: {0: {1: one}, 1: {0: scalar(0, 1)}}},
                       {0: one}, LinearMap.identity(2, one), "C[u]/(u^2-i)")


_CONSTANT_ALGEBRAS = {
    "conv(Z3)": lambda: convolution_algebra(function_algebra(cyclic(3))),
    "grp(Z3)": lambda: group_algebra(cyclic(3)).algebra,
    "C[u]/(u^2-i)": _root_of_i,
}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("first,second", [
    ("conv(Z3)", "conv(Z3)"), ("conv(Z3)", "grp(Z3)"), ("grp(Z3)", "conv(Z3)"),
    ("C[u]/(u^2-i)", "C[u]/(u^2-i)"), ("C[u]/(u^2-i)", "conv(Z3)"),
    ("conv(Z3)", "C[u]/(u^2-i)")])
def test_tensor_table_is_the_kronecker_product_of_left_regular_maps(first, second, backend):
    # (e_i⊗f_k)(e_j⊗f_l) is column j·dim B + l of L(e_i)⊗L(f_k), entry by entry
    with use_backend(backend):
        a, b = _CONSTANT_ALGEBRAS[first](), _CONSTANT_ALGEBRAS[second]()
        t = tensor_algebra(a, b)
        assert any((c.re, c.im) != (1, 0) for row in t.mult.values()
                   for terms in row.values() for c in terms.values())
        for i, k in product(range(a.dim), range(b.dim)):
            left = _kronecker(_left_regular(a, i), _left_regular(b, k))
            for q in range(t.dim):
                column = {r: row[q] for r, row in enumerate(left) if not row[q].is_zero()}
                got = t.mult.get(i * b.dim + k, {}).get(q, {})
                assert vec_eq(got, column), (i, k, q)


def test_flip_is_star_isomorphism(fun_z2, grp_z3):
    a, b = fun_z2, grp_z3
    t_ab = tensor_algebra(a, b)
    t_ba = tensor_algebra(b, a)
    sigma = flip_map(a.dim, b.dim, scalar(1))
    for i in range(t_ab.dim):
        for j in range(t_ab.dim):
            lhs = sigma.apply(t_ab.basis_product(i, j))
            rhs = t_ba.multiply_vec(sigma.cols[i], sigma.cols[j])
            assert vec_eq(lhs, rhs)
    for i in range(t_ab.dim):
        assert vec_eq(sigma.apply(t_ab.star.cols[i]), t_ba.star_vec(sigma.cols[i]))
    back = flip_map(b.dim, a.dim, scalar(1))
    assert back.compose(sigma).entry(0, 0) == scalar(1)


def test_rank_of_span_examples(fun_z2):
    e0, e1 = fun_z2.basis_element(0), fun_z2.basis_element(1)
    assert rank_of_span([e0, e1, e0 + e1]) == 2
    assert rank_of_span([]) == 0
    assert rank_of_span([fun_z2.basis_element(i) for i in range(2)]) == 2


def test_verify_star_algebra_passes_on_catalog():
    assert verify_star_algebra(function_algebra(cyclic(3)).algebra).passed
    assert verify_star_algebra(group_algebra(named_group("S3")).algebra).passed


def test_verify_star_algebra_detects_broken_associativity():
    base = function_algebra(cyclic(3)).algebra
    mult = {i: dict(row) for i, row in base.mult.items()}
    mult[1][2] = {0: scalar(1)}  # orthogonality broken on one pair
    bad = StarAlgebra(3, mult, dict(base.unit), base.star, "broken")
    rep = verify_star_algebra(bad)
    assert not rep.passed
    assert "associativity" in rep.failed_names()
    assert rep.check("associativity").witness


ORACLE_ALGEBRAS = ("fun-S3", "grp-S3", "fun-Z6", "grp-Z6", "fun-D4", "grp-D4",
                   "fun-Q8", "grp-Q8", "blocks-1-2", "two-term")


def _two_term_algebra():
    """b0 b0 = b1 + b2, b1 b1 = b2 b2 = b0, b1 b2 = b2 b1 = -b0, other
    products 0.  b0 passes (x b0) y = x (b0 y), but b0 generates only the
    span of b0 and b1 + b2, and (b1 b1) b0 != b1 (b1 b0): a generator set
    must not count the two-term product as reaching b1 and b2."""
    one = scalar(1)
    mult = {0: {0: {1: one, 2: one}}, 1: {1: {0: one}, 2: {0: -one}},
            2: {2: {0: one}, 1: {0: -one}}}
    return StarAlgebra(3, mult, {}, LinearMap.identity(3, one), "two-term")


def _oracle_algebra(name):
    if name == "blocks-1-2":
        return BlockAlgebra([1, 2])
    if name == "two-term":
        return _two_term_algebra()
    kind, group = name.split("-")
    build = function_algebra if kind == "fun" else group_algebra
    return build(named_group(group)).algebra


def _perturbed_table(table, n, data):
    """A copy of a structure-constant table, kept as it is or with one drawn
    constant scaled by 2, -1 or i, zeroed, or moved to a drawn (i, j, k),
    where it adds to what is there (so a product can become two-term)."""
    (i, j), k = data.draw(st.sampled_from(sorted(((i, j), k) for i, row in table.items()
                                                 for j, terms in row.items() for k in terms)))
    change = data.draw(st.sampled_from(sorted(SCALINGS) + ["keep", "zero", "move"]))
    out = {i2: {j2: dict(terms) for j2, terms in row.items()} for i2, row in table.items()}
    if change == "keep":
        return out
    c = out[i][j].pop(k)
    if change in SCALINGS:
        out[i][j][k] = c * SCALINGS[change]
    elif change == "move":
        i2, j2 = data.draw(st.sampled_from(list(product(range(n), repeat=2))))
        terms = out.setdefault(i2, {}).setdefault(j2, {})
        k2 = data.draw(st.integers(0, n - 1))
        terms[k2] = terms[k2] + c if k2 in terms else c
    return out


def _full_associativity_sweep(table, n):
    """Reference: the first basis triple (i, j, k) with (e_i e_j) e_k !=
    e_i (e_j e_k), straight from the table."""
    def times(u, v):
        acc = {}
        for (i, ci), (j, cj) in product(u.items(), v.items()):
            for k, c in table.get(i, {}).get(j, {}).items():
                acc[k] = acc.get(k, scalar(0)) + ci * cj * c
        return {k: c for k, c in acc.items() if not c.is_zero()}

    e = [{i: scalar(1)} for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        if times(times(e[i], e[j]), e[k]) != times(e[i], times(e[j], e[k])):
            return False, (i, j, k)
    return True, ()


@settings(max_examples=300)
@given(st.sampled_from(ORACLE_ALGEBRAS), st.data())
def test_associativity_certificate_agrees_with_full_sweep(name, data):
    base = _oracle_algebra(name)
    table = _perturbed_table(base.mult, base.dim, data)
    check = verify_star_algebra(
        StarAlgebra(base.dim, table, base.unit, base.star, "perturbed")).check("associativity")
    assert (check.passed, tuple(check.witness)) == _full_associativity_sweep(table, base.dim)


def test_associativity_certificate_skips_the_cubic_sweep(monkeypatch):
    base = group_algebra(cyclic(64)).algebra
    n = base.dim
    fresh = StarAlgebra(n, base.mult, base.unit, base.star, base.label)
    calls = count_multiply_vec(monkeypatch)
    assert verify_star_algebra(fresh).passed
    assert len(calls) < n ** 3 / 4


def test_a_diagonal_table_is_associative_without_the_walk(monkeypatch):
    def walked(algebra):
        raise AssertionError("walked the generators of %s" % algebra.label)

    monkeypatch.setattr(fqg.algebra, "_basis_generators", walked)
    assert _is_associative(StarAlgebra(5, {i: {i: {i: scalar(1)}} for i in range(5)},
                                       {}, LinearMap.identity(5, scalar(1)), "diagonal"))
    base = group_algebra(cyclic(3)).algebra
    with pytest.raises(AssertionError, match="walked the generators of grp"):
        _is_associative(StarAlgebra(base.dim, base.mult, base.unit, base.star, "grp"))


def test_float_backend_sweeps_every_associativity_triple(monkeypatch):
    with use_backend("float"):
        base = group_algebra(cyclic(6)).algebra
        n = base.dim
        fresh = StarAlgebra(n, base.mult, base.unit, base.star, base.label)
        calls = count_multiply_vec(monkeypatch)
        assert verify_star_algebra(fresh).passed
    assert len(calls) >= 2 * n ** 3


def _closure(rows, gens):
    """Every index that is a product of the given ones, by a plain fixpoint."""
    reached = set(gens)
    while True:
        new = {k for i in reached for j in reached
               for k in rows.get(i, {}).get(j, {})} - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize("name", sorted(set(CATALOG) | set(benchmark_ladder_groups())))
def test_group_like_generators_skip_the_identity_and_reach_everything(name):
    group = named_group(name)
    fun = function_algebra(group)
    n = group.order
    for algebra in (group_algebra(group).algebra, convolution_algebra(fun)):
        gens = _basis_generators(algebra)
        assert group.identity not in gens
        assert _closure(algebra.mult, gens) == set(range(n))
    # every basis element of fun(G) is idempotent, so each one is a generator
    assert _basis_generators(fun.algebra) == tuple(range(n))


def _quadratic_generators(algebra):
    """The greedy generators as first written: each newly reached index
    walks the whole closure so far, quadratic in the dimension."""
    n = algebra.dim
    rows = algebra.mult
    if any(len(terms) != 1 for row in rows.values() for terms in row.values()):
        return tuple(range(n))
    empty: dict = {}
    idempotent = [g in rows.get(g, empty).get(g, empty) for g in range(n)]
    gens, closure, reached = [], [], [False] * n
    for g in sorted(range(n), key=idempotent.__getitem__):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        frontier = [g]
        while frontier:
            fresh = []
            for a in frontier:
                closure.append(a)
                for b in closure:
                    for terms in (rows.get(a, empty).get(b), rows.get(b, empty).get(a)):
                        for k in terms or ():
                            if not reached[k]:
                                reached[k] = True
                                fresh.append(k)
            frontier = fresh
    return tuple(gens)


def _quadratic_is_associative(algebra):
    """The associativity certificate as first written, with x over every
    index rather than the nonempty rows."""
    rows = algebra.mult
    empty: dict = {}
    everything = range(algebra.dim)
    for a in _quadratic_generators(algebra):
        right = rows.get(a, empty)
        for x in everything:
            row_x = rows.get(x, empty)
            xa = row_x.get(a)
            for y in (everything if xa is not None else right):
                lhs: dict = {}
                for k, c in (xa or {}).items():
                    vec_add_into(lhs, rows.get(k, empty).get(y, {}), c)
                rhs: dict = {}
                for k, c in right.get(y, {}).items():
                    vec_add_into(rhs, row_x.get(k, {}), c)
                if not vec_eq(lhs, rhs):
                    return False
    return True


def _random_table_algebra(seed):
    """A seeded sparse table: monomial with coefficients among 1, -1, ±i and
    1/2 for most seeds, a sum of two basis elements now and then."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    coeffs = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1), QQi(Fraction(1, 2))]
    mult = {}
    for i, j in product(range(n), repeat=2):
        if rng.random() < 0.3:
            ks = rng.sample(range(n), 2 if n > 1 and rng.random() < 0.02 else 1)
            mult.setdefault(i, {})[j] = {k: rng.choice(coeffs) for k in ks}
    return StarAlgebra(n, mult, {}, LinearMap.identity(n, scalar(1)), "random%d" % seed)


def _truncated_polynomials(n):
    """e_i e_j = e_{i+j} below n: associative, monomial and mostly empty."""
    mult = {i: {j: {i + j: scalar(1)} for j in range(n - i)} for i in range(n)}
    return StarAlgebra(n, mult, {0: scalar(1)}, LinearMap.identity(n, scalar(1)), "poly%d" % n)


def _catalog_algebra(*factors):
    """The tensor product of catalog algebras named by (kind, group) pairs."""
    return reduce(tensor_algebra, [
        (function_algebra if kind == "fun" else group_algebra)(named_group(name)).algebra
        for kind, name in factors])


def _quaternions():
    """The quaternions on 1, i, j, k: monomial and associative, with the
    signs ±1 as coefficients."""
    one, minus = scalar(1), scalar(-1)
    mult = {0: {x: {x: one} for x in range(4)}}
    for x in (1, 2, 3):
        mult[x] = {0: {x: one}, x: {0: minus}}
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        mult[x][y] = {z: one}
        mult[y][x] = {z: minus}
    return StarAlgebra(4, mult, {0: one}, LinearMap.identity(4, one), "H")


def _zero_left_factor():
    """e1·e1 = e2 and e0·e2 = e2, no other product: (e0·e1)·e1 = 0 but
    e0·(e1·e1) = e2, which only the row x = 0 of a = 1, where x·a = 0,
    shows."""
    one = scalar(1)
    return StarAlgebra(3, {0: {2: {2: one}}, 1: {1: {2: one}}}, {},
                       LinearMap.identity(3, one), "zero left factor")


def _changed(build, x, y, change):
    """``build()`` with e_x e_y = c·e_k negated ("flip"), moved to
    c·e_{k+1 mod n} ("move") or made 0 ("drop")."""
    base = build()
    mult = {i: dict(row) for i, row in base.mult.items()}
    ((k, c),) = mult[x].pop(y).items()
    if change != "drop":
        mult[x][y] = {k: -c} if change == "flip" else {(k + 1) % base.dim: c}
    return StarAlgebra(base.dim, mult, base.unit, base.star, "%s %s" % (base.label, change))


def _catalog_convolution(kind, name):
    """The convolution algebra of fun or grp of a catalog group."""
    return convolution_algebra((function_algebra if kind == "fun" else group_algebra)(
        named_group(name)))


def _walk_cases():
    """Label -> a function that builds each algebra the walk is compared on."""
    cases = {}
    for name in CATALOG:
        for kind in ("fun", "grp"):
            cases["%s(%s)" % (kind, name)] = partial(_catalog_algebra, (kind, name))
            cases["conv(%s(%s))" % (kind, name)] = partial(_catalog_convolution, kind, name)
        cases["fun(%s)(x)grp(S3)" % name] = partial(_catalog_algebra, ("fun", name), ("grp", "S3"))
        cases["grp(%s)(x)grp(Z2)" % name] = partial(_catalog_algebra, ("grp", name), ("grp", "Z2"))
    for n in (1, 5, 17):
        cases["poly%d" % n] = partial(_truncated_polynomials, n)
    for seed in range(40):
        cases["random%d" % seed] = partial(_random_table_algebra, seed)
    cases["zero left factor"] = _zero_left_factor
    # monomial tables whose coefficients are not all one scalar, which take
    # the product walk, and each with one product negated, moved or dropped
    for label, build in (("H", _quaternions), ("C[u]/(u^2-i)", _root_of_i)):
        cases[label] = build
        for x, row in build().mult.items():
            for y in row:
                for change in ("flip", "move", "drop"):
                    cases["%s %s e%d.e%d" % (label, change, x, y)] = partial(
                        _changed, build, x, y, change)
    # tables of one scalar, which take the row comparison, each with one
    # product moved or dropped
    for label in ("grp(S3)", "conv(fun(Z3))", "poly5"):
        build = cases[label]
        for x, row in build().mult.items():
            for y in row:
                for change in ("move", "drop"):
                    cases["%s %s e%d.e%d" % (label, change, x, y)] = partial(
                        _changed, build, x, y, change)
    return cases


WALK_CASES = _walk_cases()


@pytest.mark.parametrize("label", WALK_CASES)
def test_generator_walk_matches_the_quadratic_one(label):
    algebra = WALK_CASES[label]()
    assert _basis_generators(algebra) == _quadratic_generators(algebra)
    assert _is_associative(algebra) == _quadratic_is_associative(algebra)


def test_generator_walk_is_linear_in_an_empty_table():
    """An empty table has every index as a generator; walking it reads no
    product, so a large dimension costs time proportional to it."""
    n = 20_000
    empty = StarAlgebra(n, {}, {}, LinearMap(n, n, [{} for _ in range(n)]), "empty")
    start = time.process_time()
    assert _basis_generators(empty) == tuple(range(n))
    assert _is_associative(empty)
    assert time.process_time() - start < 2.0


def test_block_algebra_m2_plus_c():
    b = BlockAlgebra([2, 1])
    assert b.dim == 5
    rep = verify_star_algebra(b)
    assert rep.passed, rep.failed_names()
    # e_{00} e_{01} = e_{01}, e_{01} e_{01} = 0 inside the 2x2 block
    e00, e01 = b.basis_element(0), b.basis_element(1)
    assert e00 * e01 == e01
    assert (e01 * e01).is_zero()


def test_block_algebra_rejects_bad_weights():
    with pytest.raises(InvalidDataError):
        BlockAlgebra([2], trace_weights=[0])
    with pytest.raises(InvalidDataError):
        BlockAlgebra([])


def test_block_algebra_guards_string_weights_and_keeps_numeric_ones():
    # 1e99999999 would build a hundred-million-digit integer before any check
    start = time.perf_counter()
    with pytest.raises(InvalidDataError, match="exceeds"):
        BlockAlgebra([1], trace_weights=["1e99999999"])
    assert time.perf_counter() - start < 1
    with pytest.raises(InvalidDataError, match="zero denominator"):
        BlockAlgebra([1], trace_weights=["1/0"])
    assert BlockAlgebra([1, 1], trace_weights=["1/3", "0.1"]).trace_weights == \
        (Fraction(1, 3), Fraction(1, 10))
    assert BlockAlgebra([1], trace_weights=[0.1]).trace_weights == (Fraction(0.1),)


def test_block_algebra_refuses_dimension_above_group_order_limit():
    from fqg.groups import MAX_GROUP_ORDER

    assert BlockAlgebra([32]).dim == MAX_GROUP_ORDER
    for blocks in ([33], [1] * (MAX_GROUP_ORDER + 1), [10**6]):
        with pytest.raises(InvalidDataError, match="exceeds the limit"):
            BlockAlgebra(blocks)


def test_scalar_algebra_is_one_dimensional():
    c = scalar_algebra()
    assert c.dim == 1 and verify_star_algebra(c).passed


def test_element_validation(fun_z2):
    with pytest.raises(InvalidDataError):
        Element(fun_z2, {5: scalar(1)})


def test_elements_of_different_algebras_do_not_mix(fun_z2):
    # fun(Z2) and grp(Z2) have the same dimension, and neither is the other
    x = fun_z2.basis_element(1)
    y = group_algebra(cyclic(2)).algebra.basis_element(1)
    for op in (x.__mul__, x.__add__, x.__sub__):
        with pytest.raises(InvalidDataError, match="different algebras"):
            op(y)
    assert x != y and not x == y
    assert x == fun_z2.basis_element(1)


def test_unit_index_outside_the_basis_is_refused(fun_z2):
    one = scalar(1)
    for unit in ({0: one, 5: one}, {-1: one}, {2: scalar(0)}):
        with pytest.raises(InvalidDataError, match="unit index out of range"):
            StarAlgebra(2, fun_z2.mult, unit, fun_z2.star)


@pytest.mark.parametrize("unit", [{0.5: scalar(1)}, {0.0: scalar(1)}, {True: scalar(1)}],
                         ids=["half", "float-zero", "bool"])
def test_a_unit_index_that_is_not_an_int_is_refused(fun_z2, unit):
    # 0.0 and True pass the range test, and would be read as e_0 and e_1
    with pytest.raises(InvalidDataError, match="unit index .* is not an integer"):
        StarAlgebra(2, fun_z2.mult, unit, fun_z2.star)


@pytest.mark.parametrize("table", [
    {(0, 0): {0: 1}},               # keyed by pairs, the layout before rows
    {"0": {0: {0: scalar(1)}}},     # a row index that is not an int
    {0.0: {0: {0: scalar(1)}}},     # indices that pass the range test but are no
    {0: {0.0: {0: scalar(1)}}},     # ints; a diagonal table once, whose star
    {0: {0: {0.0: scalar(1)}}},     # law then raised TypeError
    {0: {0: {False: scalar(1)}}},
    {True: {1: {1: scalar(1)}}},
    {0: {0: 1}},                    # a product that is not a terms dict
    {0: {0: [1]}},
    [[{0: scalar(1)}]],             # a list of rows
    {0: {0: {0: 1}}},               # a coefficient that is not a scalar
], ids=["pair-keys", "string-row", "float-row", "float-column", "float-term", "bool-term",
        "bool-row", "int-terms", "list-terms", "list-table", "int-coefficient"])
def test_a_table_that_is_not_rows_of_dicts_names_the_layout(fun_z2, table):
    with pytest.raises(InvalidDataError, match=r"rows \{i: \{j: \{k: c\}\}\}"):
        StarAlgebra(2, table, fun_z2.unit, fun_z2.star)


# -- the row-indexed tensor kernel against the materialized tensor algebra ----

_KERNEL_ALGEBRAS = {
    "fun": lambda: function_algebra(named_group("S3")).algebra,
    "grp": lambda: group_algebra(cyclic(3)).algebra,
    "blocks": lambda: BlockAlgebra([1, 2]),
}
nonzero = st.builds(QQi, fractions, fractions).filter(lambda c: not c.is_zero())


def _sparse_vectors(dim):
    return st.dictionaries(st.integers(0, dim - 1), nonzero, max_size=6)


def _dense(dim):
    return {k: QQi(k % 3 - 1 or 2, Fraction(1, k + 1)) for k in range(dim)}


@pytest.mark.parametrize("first,second", [("fun", "grp"), ("grp", "blocks"),
                                          ("blocks", "fun"), ("fun", "fun")])
def test_tensor_mult_matches_tensor_algebra(first, second):
    a, b = _KERNEL_ALGEBRAS[first](), _KERNEL_ALGEBRAS[second]()
    ab = tensor_algebra(a, b)
    vectors = _sparse_vectors(ab.dim)

    @given(vectors, vectors)
    def agree(u, v):
        assert vec_eq(tensor_mult(a, b, u, v), ab.multiply_vec(u, v))

    agree()
    # dense against sparse makes the kernel walk both the row and the grouped v
    dense = _dense(ab.dim)
    some = {0: QQi(Fraction(2, 3), -1), ab.dim - 1: QQi(0, Fraction(1, 2))}
    for u, v in ((dense, dense), (dense, some), (some, dense)):
        assert vec_eq(tensor_mult(a, b, u, v), ab.multiply_vec(u, v))
    assert tensor_mult(a, b, {}, some) == {} == tensor_mult(a, b, some, {})


def test_convolution_kernel_matches_tensor_algebra():
    g = function_algebra(named_group("S3"))
    b = BlockAlgebra([1, 2])
    conv = StarAlgebra(g.dim, convolution_algebra(g).mult, {}, LinearMap.identity(g.dim, scalar(1)))
    ab = tensor_algebra(conv, b)
    vectors = _sparse_vectors(ab.dim)

    @given(vectors, vectors)
    def agree(u, v):
        assert vec_eq(tensor_mult(convolution_algebra(g), b, u, v), ab.multiply_vec(u, v))

    agree()
    dense = _dense(ab.dim)
    assert vec_eq(tensor_mult(convolution_algebra(g), b, dense, dense),
                  ab.multiply_vec(dense, dense))


# -- both product kernels against a plain loop over the structure constants ---


def _reference_product(a, u, v):
    """u·v in ``a`` by the definition: every pair of terms through ``a.mult``."""
    acc = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, ck in a.mult.get(i, {}).get(j, {}).items():
                t = ci * cj * ck
                acc[k] = acc[k] + t if k in acc else t
    return acc


def _reference_tensor_product(a, b, u, v):
    """u·v in A⊗B by the definition, with (x⊗y)(x'⊗y') = xx'⊗yy' read off
    ``a.mult`` and ``b.mult``."""
    db = b.dim
    acc = {}
    for p, cp in u.items():
        x1, y1 = divmod(p, db)
        for q, cq in v.items():
            x2, y2 = divmod(q, db)
            for k1, c1 in a.mult.get(x1, {}).get(x2, {}).items():
                for k2, c2 in b.mult.get(y1, {}).get(y2, {}).items():
                    t = cp * cq * c1 * c2
                    k = k1 * db + k2
                    acc[k] = acc[k] + t if k in acc else t
    return acc


def _fun(name):
    return lambda: function_algebra(named_group(name)).algebra


def _grp(name):
    return lambda: group_algebra(named_group(name)).algebra


def _tensor(first, second):
    return lambda: tensor_algebra(first(), second())


_ORACLE_ALGEBRAS = {
    "fun(S3)": _fun("S3"),
    "blocks[1]*4": lambda: BlockAlgebra([1] * 4),
    "fun(Z2)(x)fun(Z3)": _tensor(_fun("Z2"), _fun("Z3")),
    "fun(Z2)(x)blocks[1]*3": _tensor(_fun("Z2"), lambda: BlockAlgebra([1] * 3)),
    "fun(Z2)(x)grp(Z3)": _tensor(_fun("Z2"), _grp("Z3")),
    "grp(Z3)(x)fun(Z2)": _tensor(_grp("Z3"), _fun("Z2")),
    "grp(Z3)": _grp("Z3"),
    "blocks[1,2]": lambda: BlockAlgebra([1, 2]),
    # the convolution table's constants are 1/3, not 1
    "conv(Z3)": lambda: convolution_algebra(function_algebra(named_group("Z3"))),
}
_ORACLE_PAIRS = [("fun(S3)", "fun(S3)"), ("fun(S3)", "blocks[1]*4"),
                 ("blocks[1]*4", "fun(S3)"), ("fun(Z2)(x)fun(Z3)", "fun(Z2)(x)fun(Z3)"),
                 ("grp(Z3)", "fun(S3)"), ("fun(S3)", "grp(Z3)"),
                 ("fun(Z2)(x)grp(Z3)", "fun(S3)"), ("blocks[1,2]", "fun(Z2)(x)fun(Z3)"),
                 ("conv(Z3)", "fun(S3)"), ("grp(Z3)", "conv(Z3)"), ("conv(Z3)", "conv(Z3)")]
# few distinct small coefficients, so that sums of products cancel often
_cancelling = st.sampled_from([(1, 0), (-1, 0), (Fraction(1, 2), 0), (-2, 0), (0, 1), (0, -1)])


def _oracle_vectors(dim):
    return st.dictionaries(st.integers(0, dim - 1), _cancelling, max_size=8)


def _backend_vector(pairs):
    return {k: scalar(re, im) for k, (re, im) in pairs.items()}


def _assert_kernel_agrees(got, expected):
    assert vec_eq(got, expected)
    assert not any(c.is_zero() for c in got.values())


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(_ORACLE_ALGEBRAS))
def test_multiply_vec_matches_reference_loop(name, backend):
    with use_backend(backend):
        a = _ORACLE_ALGEBRAS[name]()
        assert a._diag == (name.count("grp") + name.count("[1,2]") + name.count("conv") == 0)
        vectors = _oracle_vectors(a.dim)

        @settings(max_examples=60, deadline=None)
        @given(vectors, vectors)
        def agree(u, v):
            u, v = _backend_vector(u), _backend_vector(v)
            for x, y in ((u, v), (v, u)):
                _assert_kernel_agrees(a.multiply_vec(x, y), _reference_product(a, x, y))

        agree()
        dense = {k: scalar(k % 3 - 1, Fraction(1, k + 1)) for k in range(a.dim)}
        _assert_kernel_agrees(a.multiply_vec(dense, dense), _reference_product(a, dense, dense))
        # a zero coefficient leaves no entry in the product
        one = {0: scalar(1)}
        assert a.multiply_vec(one, {0: scalar(0)}) == {}
        assert a.multiply_vec({}, one) == {} == a.multiply_vec(one, {})


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("first,second", _ORACLE_PAIRS)
def test_tensor_mult_matches_reference_loop(first, second, backend):
    with use_backend(backend):
        a, b = _ORACLE_ALGEBRAS[first](), _ORACLE_ALGEBRAS[second]()
        vectors = _oracle_vectors(a.dim * b.dim)

        @settings(max_examples=60, deadline=None)
        @given(vectors, vectors)
        def agree(u, v):
            u, v = _backend_vector(u), _backend_vector(v)
            for x, y in ((u, v), (v, u)):
                _assert_kernel_agrees(tensor_mult(a, b, x, y),
                                      _reference_tensor_product(a, b, x, y))

        agree()
        dense = {k: scalar(k % 3 - 1, Fraction(1, k + 1)) for k in range(a.dim * b.dim)}
        _assert_kernel_agrees(tensor_mult(a, b, dense, dense),
                              _reference_tensor_product(a, b, dense, dense))


# -- when the diagonal path is taken -------------------------------------------


def _diagonal_table(n):
    return {i: {i: {i: scalar(1)}} for i in range(n)}


def _table_algebra(mult, n=3):
    one = scalar(1)
    return StarAlgebra(n, mult, {i: one for i in range(n)}, LinearMap.identity(n, one))


def test_diagonal_table_is_detected_only_when_exact():
    assert _table_algebra(_diagonal_table(3))._diag
    one = scalar(1)
    assert not _table_algebra(_diagonal_table(3) | {1: {1: {1: scalar(2)}}})._diag
    missing = _diagonal_table(3)
    del missing[2]
    assert not _table_algebra(missing)._diag
    assert not _table_algebra(_diagonal_table(3) | {0: {0: {0: one}, 1: {0: one}}})._diag
    assert not _table_algebra(_diagonal_table(3) | {0: {0: {0: one, 1: one}}})._diag
    # an explicit zero entry, an empty product and an empty row are dropped
    # before the table is read
    assert _table_algebra(_diagonal_table(3) | {0: {0: {0: one}, 1: {1: scalar(0)}}})._diag
    assert _table_algebra(_diagonal_table(3) | {2: {2: {2: one, 0: scalar(0)}}})._diag
    assert _table_algebra(_diagonal_table(3) | {0: {0: {0: one}, 1: {}}})._diag
    assert not _table_algebra(_diagonal_table(3) | {2: {2: {2: scalar(0)}}})._diag
    with use_backend("float"):
        assert _table_algebra(_diagonal_table(3))._diag
        # equal to 1 within the tolerance, but not 1: the generic path
        near = _diagonal_table(3) | {1: {1: {1: scalar(1 + 1e-10)}}}
        assert vec_eq(near[1][1], {1: scalar(1)})
        assert not _table_algebra(near)._diag
        assert function_algebra(named_group("S3")).algebra._diag


def test_diagonal_flag_on_catalog_algebras():
    g = named_group("S3")
    fun = function_algebra(g)
    assert fun.algebra._diag
    assert not group_algebra(g).algebra._diag
    assert not convolution_algebra(fun)._diag
    assert tensor_algebra(fun.algebra, function_algebra(cyclic(2)).algebra)._diag
    assert not tensor_algebra(fun.algebra, group_algebra(cyclic(2)).algebra)._diag
    assert BlockAlgebra([1] * 3)._diag and not BlockAlgebra([1, 2])._diag


# -- the pointwise basis, read off the stated entries ---------------------------


def _quadratic_pointwise(a):
    """The n² scan of every table cell that has_pointwise_basis once made."""
    for i in range(a.dim):
        for j in range(a.dim):
            terms = a.mult.get(i, {}).get(j, {})
            if i == j:
                if len(terms) != 1 or i not in terms:
                    return False
                c = terms[i]
                if not (c - one_like(c)).is_zero():
                    return False
            elif terms:
                return False
    for i in range(a.dim):
        col = a.star.cols[i]
        if len(col) != 1 or i not in col:
            return False
        c = col[i]
        if not (c - one_like(c)).is_zero():
            return False
    if set(a.unit) != set(range(a.dim)):
        return False
    return all((c - one_like(c)).is_zero() for c in a.unit.values())


def _pointwise_cases():
    """Each catalog group's fun and grp, their convolution and dual algebras
    and two tensor products, the block algebras, and fun(Z3) perturbed."""
    cases = {}
    for name in CATALOG:
        for build in (function_algebra, group_algebra):
            g = build(named_group(name))
            cases[g.label] = g.algebra
            cases["conv " + g.label] = convolution_algebra(g)
            cases["dual " + g.label] = dual_algebra(g)
            cases[g.label + " (x) fun(Z2)"] = tensor_algebra(g.algebra, _fun("Z2")())
            cases["fun(Z3) (x) " + g.label] = tensor_algebra(_fun("Z3")(), g.algebra)
    for k in range(1, 5):
        cases["blocks[1]*%d" % k] = BlockAlgebra([1] * k)
    cases["blocks[2]"] = BlockAlgebra([2])
    one = scalar(1)
    f = _fun("Z3")()

    def perturbed(mult=f.mult, unit=f.unit, star=f.star):
        return StarAlgebra(3, mult, unit, star, "perturbed fun(Z3)")

    cases["diagonal 1 + 1e-12"] = perturbed(mult=f.mult | {1: {1: {1: scalar(1 + 1e-12)}}})
    cases["off-diagonal entry"] = perturbed(mult=f.mult | {0: f.mult[0] | {1: {1: one}}})
    cases["missing diagonal entry"] = perturbed(
        mult={i: row for i, row in f.mult.items() if i != 2})
    # as many products as basis vectors, one of them e_0 e_1 = e_0 in place of e_0 e_0
    cases["off-diagonal for a diagonal"] = perturbed(mult=f.mult | {0: {1: {0: one}}})
    cases["unit without index 2"] = perturbed(unit={0: one, 1: one})
    cases["star entry 2"] = perturbed(star=LinearMap(3, 3, [{0: one}, {1: scalar(2)}, {2: one}]))
    return cases


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_pointwise_basis_matches_the_quadratic_scan(backend):
    with use_backend(backend):
        cases = _pointwise_cases()
        for label, a in cases.items():
            assert a.has_pointwise_basis() == _quadratic_pointwise(a), label
        pointwise = {label for label, a in cases.items() if a.has_pointwise_basis()}
    assert {"fun(S4)", "dual grp(S4)", "fun(Q8) (x) fun(Z2)", "blocks[1]*4"} <= pointwise
    assert not {"grp(S4)", "conv fun(S4)", "blocks[2]", "fun(Z3) (x) grp(Z2)",
                "off-diagonal entry", "missing diagonal entry", "off-diagonal for a diagonal",
                "unit without index 2", "star entry 2"} & pointwise
    # 1 + 1e-12 is 1 within the float tolerance, and not 1 exactly
    assert ("diagonal 1 + 1e-12" in pointwise) == (backend == "float")


# -- the *-homomorphism laws of a map into a single algebra ---------------------

_HOM_ALGEBRAS = ("grp(Z3)", "fun(Z3)", "fun(S3)", "blocks[1,2]")
# a character of each: λ_g ↦ 1, evaluation at the identity, the [1] block
_CHARACTERS = {"grp(Z3)": (0, 1, 2), "fun(Z3)": (0,), "fun(S3)": (0,), "blocks[1,2]": (0,)}


def _hom_algebra(name):
    return {"grp(Z3)": _grp("Z3"), "fun(Z3)": _fun("Z3"), "fun(S3)": _fun("S3"),
            "blocks[1,2]": lambda: BlockAlgebra([1, 2])}[name]()


def _reference_hom_law(a, c, cols, idx):
    """Whether the map e_j ↦ cols[j] satisfies the identity at ``idx``, by
    plain loops over Element products and stars."""
    def image(x):
        acc = {}
        for j, cj in x.coeffs.items():
            for k, ck in cols[j].items():
                acc[k] = acc[k] + cj * ck if k in acc else cj * ck
        return Element(c, acc)

    if idx[0] == "unit":
        return image(a.unit_element()) == c.unit_element()
    if idx[0] == "multiplicative":
        x, y = a.basis_element(idx[1]), a.basis_element(idx[2])
        return image(x * y) == image(x) * image(y)
    x = a.basis_element(idx[1])
    return image(x.star()) == image(x).star()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_single_target_hom_predicate_matches_reference_loop(backend):
    with use_backend(backend):
        algebras = {name: _hom_algebra(name) for name in _HOM_ALGEBRAS}

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from(_HOM_ALGEBRAS), st.sampled_from(_HOM_ALGEBRAS),
               st.sampled_from(("random", "character", "identity")), st.data())
        def agree(source, target, kind, data):
            a, c = algebras[source], algebras[target]
            if kind == "random":
                cols = [_backend_vector(data.draw(_oracle_vectors(c.dim))) for _ in range(a.dim)]
            elif kind == "identity" and source == target:
                cols = [{j: scalar(1)} for j in range(a.dim)]
            else:
                cols = [dict(c.unit) if j in _CHARACTERS[source] else {} for j in range(a.dim)]
            changed = data.draw(st.booleans())
            if changed:  # set one entry of one image
                j = data.draw(st.integers(0, a.dim - 1))
                cols[j] = dict(cols[j])
                cols[j][data.draw(st.integers(0, c.dim - 1))] = scalar(*data.draw(_cancelling))
            alpha = LinearMap(a.dim, c.dim, cols)
            law = hom_predicate(a, c, alpha)
            verdicts = [law(idx) for idx in hom_indices(a.dim)]
            assert verdicts == [_reference_hom_law(a, c, cols, idx)
                                for idx in hom_indices(a.dim)]
            if kind == "character" or (kind == "identity" and source == target):
                assert all(verdicts) or changed
            for identity in ("unit", "multiplicative", "star"):
                expected = next((idx[1:] for idx in hom_indices(a.dim, (identity,))
                                 if not _reference_hom_law(a, c, cols, idx)), None)
                check = hom_check(identity, a, c, alpha, (identity,))
                assert check.passed == (expected is None)
                assert check.witness == (expected or ())

        agree()


# -- the star law of a map into C⊗B, through leg_apply ---------------------------


def _imaginary_z2():
    """C[Z2] on the basis {1, i·g}: e₁·e₁ = −e₀ and e₁* = −e₁, so its star
    matrix has an entry that is not 1."""
    one = scalar(1)
    return StarAlgebra(2, {0: {0: {0: one}, 1: {1: one}}, 1: {0: {1: one}, 1: {0: -one}}},
                       {0: one}, LinearMap(2, 2, [{0: one}, {1: -one}]), "C[Z2] on {1, ig}")


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_star_law_into_a_tensor_multiplies_by_the_star_matrices(backend):
    with use_backend(backend):
        b = _imaginary_z2()
        assert verify_star_algebra(b).passed and not b.star.all_ones()
        # the identity of C⊗B is a *-homomorphism onto C⊗B: the leg-wise star
        # is the star of the materialised tensor algebra on every basis vector
        for c in (b, group_algebra(cyclic(2)).algebra, _fun("Z3")(), BlockAlgebra([1, 2])):
            for first, second in ((c, b), (b, c)):
                t = tensor_algebra(first, second)
                ident = LinearMap.identity(t.dim, scalar(1))
                assert hom_check("id", t, first, ident, b=second).passed, t.label
                # i·id is not a *-map: i·e_0* against (i·e_0)* = −i·e_0*
                rotated = ident.scale(scalar(0, 1))
                assert hom_check("star", t, first, rotated, ("star",), second).witness == (0,)

        one, i = scalar(1), scalar(0, 1)
        grp = group_algebra(cyclic(2))
        a = grp.algebra
        # g ↦ 1⊗g = 1⊗(−i·e₁) is a *-homomorphism C[Z2] → C[Z2]⊗B
        good = LinearMap(2, 4, [{0: one}, {1: -i}])
        assert hom_check("hom", a, a, good, b=b).passed
        assert check_family(QuantumFamily(grp, b, good)).check("unital_star_hom").passed
        # g ↦ 1⊗e₁ is not: (1⊗e₁)* = −1⊗e₁, and (1⊗e₁)² = −1⊗e₀ is not α(1)
        bad = LinearMap(2, 4, [{0: one}, {1: one}])
        assert hom_check("star", a, a, bad, ("star",), b).witness == (1,)
        check = check_family(QuantumFamily(grp, b, bad)).check("unital_star_hom")
        assert not check.passed and check.witness == ("multiplicative", 1, 1)


# -- tables are shared, so no kernel may change one ------------------------------


def test_no_kernel_changes_a_table():
    """Algebras keep the rows and terms of their tables as given, and
    basis_product hands out the table's own dicts: a kernel that wrote into
    one would change every algebra sharing it.  S3 is built afresh, so every
    verdict below is computed, not read from a memo."""
    group = symmetric(3)
    fun, grp = function_algebra(group), group_algebra(group)
    blocks = BlockAlgebra([1, 2])
    both = tensor_algebra(fun.algebra, grp.algebra)
    algebras = [fun.algebra, grp.algebra, both, blocks, dual_algebra(fun),
                convolution_algebra(fun)]
    snapshots = [{i: {j: dict(terms) for j, terms in row.items()} for i, row in a.mult.items()}
                 for a in algebras]
    verdicts = []
    for g in (fun, grp):
        verdicts += [verify_quantum_group(g), verify_fourier_identities(dual_pair(g))]
        verdicts += [check_family(identity_family(g, target)) for target in (None, blocks, both)]
    assert [a.mult for a in algebras] == snapshots
    assert fqg.algebra._EMPTY == {}
    assert all(report.passed for report in verdicts)
