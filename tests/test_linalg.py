from hypothesis import given
from hypothesis import strategies as st

from fqg.linalg import (LinearMap, flip_map, leg_apply, nullspace_basis,
                        rank_of_vectors, vec_eq)
from fqg.scalar import QQi, use_backend, CFloat

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


def _random_map(rng, source_dim, target_dim):
    cols = [{r: QQi(rng.randint(-3, 3), rng.randint(-1, 1)) for r in range(target_dim)
             if rng.random() < 0.6} for _ in range(source_dim)]
    return LinearMap(source_dim, target_dim, cols)


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
