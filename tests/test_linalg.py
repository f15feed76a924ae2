from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqg import linalg
from fqg.linalg import (InvalidDataError, LinearMap, _eliminate, flip_map, leg_apply,
                        nullspace_basis, rank_of_vectors, vec_add_into, vec_eq)
from fqg.scalar import QQi, scalar, tolerance, use_backend, CFloat

ONE = QQi(1)


def naive_rank(rows, ncols):
    """Independent oracle: textbook Gaussian elimination over Fractions."""
    m = [[row.get(c, QQi(0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if not m[r][c].is_zero():
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c].inv()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not m[r][c].is_zero():
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
entries = st.builds(QQi, fractions, fractions)


@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=6))
def test_bareiss_rank_matches_naive_elimination(rows):
    vecs = [{i: x for i, x in enumerate(row) if not x.is_zero()} for row in rows]
    assert rank_of_vectors(vecs, 4) == naive_rank(vecs, 4)


# Gaussian integers that are not units, so Bareiss divides by pivots of norm > 1;
# small integer entries keep the minors near the size of those norms, where a
# wrong quotient shows as a wrong zero
NON_UNITS = [QQi(2, 1), QQi(1, -2), QQi(3), QQi(-1, 3), QQi(0, 2)]
small = st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3))
gaussian_entries = st.one_of(st.sampled_from(NON_UNITS), small, entries)


@st.composite
def rank_deficient_rows(draw):
    """Rows that are combinations of fewer base rows: tall, wide or square."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    nbase = draw(st.integers(1, max(1, nrows - 1)))
    base = draw(st.lists(st.lists(gaussian_entries, min_size=ncols, max_size=ncols),
                         min_size=nbase, max_size=nbase))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(gaussian_entries, min_size=nbase, max_size=nbase))
        acc = {}
        for c, b in zip(coeffs, base):
            vec_add_into(acc, {i: x for i, x in enumerate(b) if not x.is_zero()}, c)
        rows.append(acc)
    return rows, ncols, nbase


@given(rank_deficient_rows())
def test_rank_of_rank_deficient_gaussian_matrices_matches_naive(case):
    rows, ncols, nbase = case
    rank = rank_of_vectors(rows, ncols)
    assert rank == naive_rank(rows, ncols)
    assert rank <= nbase


@given(st.lists(st.lists(gaussian_entries, min_size=4, max_size=4), min_size=1, max_size=5),
       st.lists(st.integers(0, 9), min_size=1, max_size=12), st.randoms())
def test_rank_with_repeated_and_zero_rows_is_the_rank_of_the_distinct_ones(rows, picks, rng):
    # repeats are separate dicts, some with a Fraction where the original
    # holds an int; zero rows are empty or hold explicit zeros
    drawn = [{i: x for i, x in enumerate(row) if not x.is_zero()} for row in rows]
    zeros = [{}, {0: QQi(0)}, {1: QQi(0), 3: QQi(0, 0)}]
    pool = drawn + zeros
    vecs = []
    for k in picks:
        v = pool[k % len(pool)]
        vecs.append({i: QQi(Fraction(x.re), x.im) for i, x in v.items()} if k % 2 else dict(v))
    vecs += drawn
    rng.shuffle(vecs)
    nonzero = [v for v in drawn if v]
    assert rank_of_vectors(vecs, 4) == naive_rank(nonzero, 4) == rank_of_vectors(nonzero, 4)


def _bareiss_rank(vecs, ncols):
    """The rank through _rank_bareiss on every nonzero vector, as exact rank
    was taken before single-entry families were counted."""
    rows = [v for v in vecs if any(not x.is_zero() for x in v.values())]
    return linalg._rank_bareiss([linalg._gaussian_integer_row(v, ncols) for v in rows], ncols)


@given(st.lists(st.one_of(st.sampled_from([{}, {0: QQi(0)}, {3: QQi(0, 0)}]),
                          st.builds(lambda k, c: {k: c}, st.integers(0, 5), gaussian_entries)),
                max_size=12))
def test_rank_of_single_entry_vectors_counts_their_indices(vecs):
    # zero vectors, repeats and parallel duplicates such as {k: 1}, {k: 2}:
    # the rank is the Bareiss rank, and no elimination runs
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "_rank_bareiss", None)
        rank = rank_of_vectors(vecs, 6)
    assert rank == _bareiss_rank(vecs, 6) == naive_rank(vecs, 6)


def test_rank_of_single_entry_examples():
    two = QQi(2)
    assert rank_of_vectors([{1: ONE}, {1: two}, {}, {0: QQi(0)}], 3) == 1
    assert rank_of_vectors([{1: ONE}, {2: two}, {1: QQi(0, 1)}], 3) == 2
    assert rank_of_vectors([], 3) == _bareiss_rank([], 3) == 0
    # one vector with two entries sends the family to the elimination
    family = [{0: ONE}, {0: two}, {0: ONE, 1: ONE}, {0: ONE, 1: ONE}]
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "_rank_bareiss", lambda rows, ncols: calls.append(len(rows)) or 2)
        assert rank_of_vectors(family, 2) == 2
    assert calls == [3]
    assert _bareiss_rank(family, 2) == 2


def test_rank_examples():
    e0, e1 = {0: ONE}, {1: ONE}
    both = {0: ONE, 1: ONE}
    assert rank_of_vectors([e0, e1, both], 3) == 2
    assert rank_of_vectors([], 5) == 0
    assert rank_of_vectors([{i: ONE} for i in range(4)], 4) == 4


def test_rank_float_backend_tolerance():
    with use_backend("float", 1e-9):
        rows = [{0: CFloat(1.0)}, {0: CFloat(1.0), 1: CFloat(1e-12)}]
        assert rank_of_vectors(rows, 2) == 1


def test_flip_is_an_involution():
    f_ab = flip_map(2, 3, ONE)
    f_ba = flip_map(3, 2, ONE)
    assert f_ba.compose(f_ab) == LinearMap.identity(6, ONE)
    assert vec_eq(f_ab.apply({0 * 3 + 1: ONE}), {1 * 2 + 0: ONE})


def test_a_row_outside_the_target_is_refused():
    # a wrong row offset would otherwise read as a smaller map
    for cols in ([{5: 1}, {-1: 1}], [{0: ONE}, {2: ONE}], [{}, {-1: ONE}]):
        with pytest.raises(InvalidDataError, match="states a row outside 0..1"):
            LinearMap(2, 2, cols)
    assert LinearMap(2, 2, [{1: ONE}, {}]).cols == ({1: ONE}, {})


def test_compose_tensor_transpose():
    a = LinearMap.from_rows([[QQi(1), QQi(2)], [QQi(0), QQi(1)]])
    b = LinearMap.from_rows([[QQi(3)]])
    t = a.tensor(b)
    assert t.source_dim == 2 and t.target_dim == 2
    assert t.entry(0, 0) == QQi(3) and t.entry(0, 1) == QQi(6)
    assert a.transpose().transpose() == a


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_roundtrip(rows):
    m = LinearMap.from_rows(rows)
    try:
        inv = m.inverse()
    except ValueError:
        assert m.rank() < 3
        return
    assert inv.compose(m) == LinearMap.identity(3, ONE)
    assert m.compose(inv) == LinearMap.identity(3, ONE)


@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=5))
def test_nullspace_annihilates_and_has_complementary_dimension(rows):
    vecs = [{i: x for i, x in enumerate(row) if not x.is_zero()} for row in rows]
    basis = nullspace_basis(vecs, 4)
    assert len(basis) == 4 - naive_rank(vecs, 4)
    for v in basis:
        for row in vecs:
            acc = None
            for i, c in row.items():
                if i in v:
                    acc = c * v[i] if acc is None else acc + c * v[i]
            assert acc is None or acc.is_zero()


def test_inverse_refuses_a_map_singular_only_in_its_last_column():
    # columns 0 and 1 find pivots; the defect shows only after elimination
    m = LinearMap.from_rows([[ONE, QQi(0), ONE], [QQi(0), ONE, ONE], [QQi(0), QQi(0), QQi(0)]])
    with pytest.raises(ValueError, match="singular map"):
        m.inverse()


float_entries = st.builds(CFloat, st.floats(-1, 1), st.floats(-1, 1))


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(float_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_float_inverse_roundtrip_on_diagonally_dominant_maps(rows):
    n = len(rows)
    with use_backend("float", 1e-9):
        for i in range(n):
            rows[i][i] = rows[i][i] + CFloat(2.0 * n)  # |diagonal| > sum of the rest
        m = LinearMap.from_rows(rows)
        inv = m.inverse()
        identity = LinearMap.identity(n, CFloat(1.0))
        assert inv.compose(m) == identity
        assert m.compose(inv) == identity


small_ints = st.integers(-3, 3)


@given(st.lists(st.lists(st.tuples(small_ints, small_ints), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_float_nullspace_annihilates_and_has_complementary_dimension(rows):
    # small Gaussian integers: the exact rank is the float rank at tolerance 1e-9
    exact = [{i: QQi(re, im) for i, (re, im) in enumerate(row) if re or im} for row in rows]
    with use_backend("float", 1e-9):
        vecs = [{i: CFloat(re, im) for i, (re, im) in enumerate(row) if re or im} for row in rows]
        basis = nullspace_basis(vecs, 4)
        assert len(basis) == 4 - naive_rank(exact, 4)
        for v in basis:
            for row in vecs:
                acc = CFloat(0.0)
                for i, c in row.items():
                    if i in v:
                        acc = acc + c * v[i]
                assert acc.is_zero()


def _random_map(rng, source_dim, target_dim):
    cols = [{r: QQi(rng.randint(-3, 3), rng.randint(-1, 1)) for r in range(target_dim)
             if rng.random() < 0.6} for _ in range(source_dim)]
    return LinearMap(source_dim, target_dim, cols)


def _reference_apply(m, v):
    """m applied to v entry by entry, with every product formed."""
    acc = {}
    for j, c in v.items():
        for r, s in m.cols[j].items():
            acc[r] = acc[r] + c * s if r in acc else c * s
    return {r: s for r, s in acc.items() if not s.is_zero()}


def test_a_map_of_ones_applies_as_the_reference():
    import random

    rng = random.Random(11)
    dx, dy = 3, 2
    for _ in range(5):
        v = {k: QQi(rng.randint(-4, 4), rng.randint(-2, 2)) for k in range(dx * dy)
             if rng.random() < 0.7}
        for leg, d in ((0, dx), (1, dy)):
            for target in (d, d * d, 1):
                ones = LinearMap(d, target, [{r: ONE for r in range(target) if rng.random() < 0.6}
                                             for _ in range(d)])
                assert ones.all_ones()
                kron = (ones.tensor(LinearMap.identity(dy, ONE)) if leg == 0
                        else LinearMap.identity(dx, ONE).tensor(ones))
                u = {k: c for k, c in v.items() if k < d}
                assert vec_eq(ones.apply(u), _reference_apply(ones, u))
                assert vec_eq(kron.apply(v), _reference_apply(kron, v))
                assert vec_eq(leg_apply(ones, v, dy, leg), _reference_apply(kron, v))
    assert LinearMap(2, 2, [{}, {}]).all_ones()
    assert not LinearMap(2, 2, [{0: ONE}, {1: -ONE}]).all_ones()
    assert not LinearMap(1, 1, [{0: QQi(0, 1)}]).all_ones()
    with use_backend("float"):
        assert LinearMap.identity(2, CFloat(1.0)).all_ones()
        assert not LinearMap.identity(2, CFloat(1.0 + 1e-10)).all_ones()


def test_leg_apply_matches_kronecker_reference():
    import random

    rng = random.Random(7)
    dx, dy = 3, 2  # X and Y of different dimensions
    for _ in range(5):
        v = {k: QQi(rng.randint(-4, 4), rng.randint(-2, 2)) for k in range(dx * dy)
             if rng.random() < 0.7}
        for kind in ("square", "coproduct", "functional"):
            for leg, d in ((0, dx), (1, dy)):
                target = {"square": d, "coproduct": d * d, "functional": 1}[kind]
                m = _random_map(rng, d, target)
                if leg == 0:
                    ref = m.tensor(LinearMap.identity(dy, ONE)).apply(v)
                else:
                    ref = LinearMap.identity(dx, ONE).tensor(m).apply(v)
                assert vec_eq(leg_apply(m, v, dy, leg), ref), (kind, leg)


# -- dense references for the sparse Gauss-Jordan kernel ------------------------


def _dense_eliminate(rows, ncols):
    """The dense Gauss-Jordan routine that ``_eliminate`` replaced: the same
    pivot rules, every entry of every row updated."""
    if not rows or not ncols:
        return []
    nrows = len(rows)
    exact = type(rows[0][0]) is QQi
    tol = tolerance()
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = None
        if exact:
            for i in range(r, nrows):
                if not rows[i][c].is_zero():
                    piv = i
                    break
        else:
            best = tol
            for i in range(r, nrows):
                mag = rows[i][c].magnitude()
                if mag > best:
                    best = mag
                    piv = i
        if piv is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        pinv = rows[r][c].inv()
        top = rows[r] = [x * pinv for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        pivots.append(c)
    return pivots


def _dense_inverse(m):
    n = m.source_dim
    zero, one = scalar(0), scalar(1)
    rows = [[m.cols[c].get(r, zero) for c in range(n)] + [one if i == r else zero for i in range(n)]
            for r in range(n)]
    if len(_dense_eliminate(rows, n)) < n:
        raise ValueError("singular map")
    return LinearMap.from_rows([row[n:] for row in rows])


def _dense_nullspace(rows, ncols):
    live = [r for r in rows if not all(s.is_zero() for s in r.values())]
    zero, one = scalar(0), scalar(1)
    if not live:
        return [{i: one} for i in range(ncols)]
    dense = [[r.get(c, zero) for c in range(ncols)] for r in live]
    pivots = _dense_eliminate(dense, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = {free: one}
        for row, pc in zip(dense, pivots):
            if not row[free].is_zero():
                v[pc] = -row[free]
        basis.append(v)
    return basis


def _same_scalar(x, y):
    """Equal values: exactly on the exact backend, as floats (so only the
    sign of a zero may differ) on the float one."""
    if type(x) is QQi:
        return x == y
    return x.re == y.re and x.im == y.im


def _same_vector(u, v):
    return list(u) == list(v) and all(_same_scalar(u[k], v[k]) for k in u)


def _random_entry(rng, exact):
    """A nonzero scalar of the backend."""
    if exact:
        re, im = Fraction(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(-1, 1)
        return QQi(re if rng.random() < 0.5 else -re, im)
    return CFloat(rng.uniform(0.1, 2) * rng.choice((-1, 1)), rng.uniform(-1, 1))


def _oracle_matrices(seed, exact):
    """Square column lists: sparse, dense, monomial and singular ones."""
    import random

    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 5, 8):
        for density in (0.3, 1.0):
            out.append([{r: _random_entry(rng, exact) for r in range(n) if rng.random() < density}
                        for _ in range(n)])
        perm = rng.sample(range(n), n)
        out.append([{perm[c]: _random_entry(rng, exact)} for c in range(n)])
        if n > 1:  # the last column is a combination of the first two
            cols = [{r: _random_entry(rng, exact) for r in range(n)} for _ in range(n)]
            combo = dict(cols[0])
            vec_add_into(combo, cols[min(1, n - 2)], _random_entry(rng, exact))
            cols[-1] = combo
            out.append(cols)
    return out


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_elimination_matches_the_dense_reference(backend, seed):
    exact = backend == "exact"
    outcomes = set()
    with use_backend(backend, 1e-9):
        for cols in _oracle_matrices(seed, exact):
            n = len(cols)
            m = LinearMap(n, n, cols)
            zero = scalar(0)
            # the elimination itself: the same pivots, the same rows
            dense = [[m.cols[c].get(r, zero) for c in range(n)] for r in range(n)]
            sparse = [{c: s for c in range(n) if (s := m.cols[c].get(r)) is not None}
                      for r in range(n)]
            assert _eliminate(sparse, n) == _dense_eliminate(dense, n)
            for srow, drow in zip(sparse, dense):
                for c in range(n):
                    s = srow.get(c)
                    assert _same_scalar(zero if s is None else s, drow[c])
            # inverse
            try:
                want = _dense_inverse(m)
            except ValueError:
                outcomes.add("singular")
                with pytest.raises(ValueError, match="singular map"):
                    m.inverse()
            else:
                outcomes.add("invertible")
                got = m.inverse()
                assert len(got.cols) == len(want.cols)
                assert all(_same_vector(a, b) for a, b in zip(got.cols, want.cols))
            # null space of the rows, and the float rank
            rows = [{c: s for c in range(n) if (s := m.cols[c].get(r)) is not None}
                    for r in range(n)]
            got = nullspace_basis(rows, n)
            want = _dense_nullspace(rows, n)
            assert len(got) == len(want)
            assert all(_same_vector(a, b) for a, b in zip(got, want))
            if not exact:
                ref = [[row.get(c, zero) for c in range(n)] for row in rows if row]
                assert rank_of_vectors(rows, n) == len(_dense_eliminate(ref, n))
    assert outcomes == {"singular", "invertible"}
