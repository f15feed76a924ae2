"""Sparse exact linear algebra over the scalar backends.

Vectors are plain ``{index: scalar}`` dicts with zero entries omitted.
Linear maps are concrete matrices stored column-sparse; the full shape is
always declared, so every entry is retrievable even when not stored.
Rank uses fraction-free (Bareiss) elimination on the exact backend to keep
intermediate rationals from blowing up; the float backend pivots by
magnitude against the global tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import QQi, tolerance, zero_like


def vec_add_into(acc: dict, v: dict, c=None) -> None:
    """acc += c*v (c=None means 1); zero results are stripped."""
    if c is None:
        for k, s in v.items():
            cur = acc.get(k)
            t = s if cur is None else cur + s
            if t.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = t
    else:
        if c.is_zero():
            return
        for k, s in v.items():
            cur = acc.get(k)
            t = c * s if cur is None else cur + c * s
            if t.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = t


def vec_scale(v: dict, c) -> dict:
    if c is None or c.is_zero():
        return {}
    return {k: c * s for k, s in v.items()}


def vec_sub(u: dict, v: dict) -> dict:
    acc = dict(u)
    for k, s in v.items():
        cur = acc.get(k)
        t = -s if cur is None else cur - s
        if t.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = t
    return acc


def vec_conj(v: dict) -> dict:
    return {k: s.conj() for k, s in v.items()}


def vec_is_zero(v: dict) -> bool:
    return all(s.is_zero() for s in v.values())


def vec_eq(u: dict, v: dict) -> bool:
    if u == v:
        return True
    for k in u.keys() | v.keys():
        a = u.get(k)
        b = v.get(k)
        if a is None:
            if not b.is_zero():
                return False
        elif b is None:
            if not a.is_zero():
                return False
        elif not a == b:
            return False
    return True


def entry_eq(x, y) -> bool:
    """Equality of two entries where None stands for a structural zero."""
    if x is None:
        return y is None or y.is_zero()
    if y is None:
        return x.is_zero()
    return (x - y).is_zero()


def vec_from_dense(coeffs) -> dict:
    return {i: s for i, s in enumerate(coeffs) if not s.is_zero()}


class LinearMap:
    """A target_dim x source_dim matrix with declared source/target labels."""

    __slots__ = ("source_dim", "target_dim", "cols", "source", "target")

    def __init__(self, source_dim, target_dim, cols, source="", target=""):
        if len(cols) != source_dim:
            raise ValueError("expected %d columns, got %d" % (source_dim, len(cols)))
        clean = []
        for col in cols:
            clean.append({r: s for r, s in col.items() if 0 <= r < target_dim and not s.is_zero()})
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.cols = tuple(clean)
        self.source = source
        self.target = target

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows, source="", target=""):
        target_dim = len(rows)
        source_dim = len(rows[0]) if rows else 0
        cols = [dict() for _ in range(source_dim)]
        for r, row in enumerate(rows):
            if len(row) != source_dim:
                raise ValueError("ragged matrix")
            for c, s in enumerate(row):
                if not s.is_zero():
                    cols[c][r] = s
        return cls(source_dim, target_dim, cols, source, target)

    @classmethod
    def identity(cls, n, one, label=""):
        return cls(n, n, [{i: one} for i in range(n)], label, label)

    # -- access --------------------------------------------------------

    def entry(self, r, c):
        """Entry (r, c); None stands for a structural zero."""
        return self.cols[c].get(r)

    def apply(self, vec: dict) -> dict:
        cols = self.cols
        acc: dict = {}
        for j, c in vec.items():
            vec_add_into(acc, cols[j], c)
        return acc

    # -- algebra -------------------------------------------------------

    def compose(self, first: "LinearMap") -> "LinearMap":
        """self ∘ first (apply ``first``, then ``self``)."""
        if first.target_dim != self.source_dim:
            raise ValueError("composition shape mismatch: %d vs %d" % (first.target_dim, self.source_dim))
        cols = [self.apply(col) for col in first.cols]
        return LinearMap(first.source_dim, self.target_dim, cols, first.source, self.target)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product on the row-major tensor basis."""
        sd = self.source_dim * other.source_dim
        td = self.target_dim * other.target_dim
        ot = other.target_dim
        cols = []
        for c1 in self.cols:
            for c2 in other.cols:
                col = {}
                for r1, s1 in c1.items():
                    base = r1 * ot
                    for r2, s2 in c2.items():
                        col[base + r2] = s1 * s2
                cols.append(col)
        return LinearMap(sd, td, cols)

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim,
                         [vec_scale(col, c) for col in self.cols], self.source, self.target)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            vec_add_into(col, b)
            cols.append(col)
        return LinearMap(self.source_dim, self.target_dim, cols, self.source, self.target)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        return LinearMap(self.source_dim, self.target_dim,
                         [vec_sub(a, b) for a, b in zip(self.cols, other.cols)],
                         self.source, self.target)

    def transpose(self) -> "LinearMap":
        cols = [dict() for _ in range(self.target_dim)]
        for c, col in enumerate(self.cols):
            for r, s in col.items():
                cols[r][c] = s
        return LinearMap(self.target_dim, self.source_dim, cols, self.target, self.source)

    def conj(self) -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim,
                         [vec_conj(col) for col in self.cols], self.source, self.target)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.source_dim != other.source_dim or self.target_dim != other.target_dim:
            return False
        return all(vec_eq(a, b) for a, b in zip(self.cols, other.cols))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(vec_is_zero(col) for col in self.cols)

    def to_dense(self, zero):
        rows = []
        for r in range(self.target_dim):
            rows.append([self.cols[c].get(r, zero) for c in range(self.source_dim)])
        return rows

    def rank(self) -> int:
        return rank_of_vectors(list(self.cols), self.target_dim)

    def inverse(self) -> "LinearMap":
        """Exact Gauss-Jordan inverse; raises ValueError when singular."""
        if self.source_dim != self.target_dim:
            raise ValueError("only square maps invert")
        n = self.source_dim
        if n == 0:
            return LinearMap(0, 0, [])
        sample = _any_scalar(self.cols)
        if sample is None:
            raise ValueError("singular map")
        zero = zero_like(sample)
        one = zero + _unit_like(sample)
        m = self.to_dense(zero)
        inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
        exact = type(sample) is QQi
        tol = tolerance()
        for c in range(n):
            piv = None
            if exact:
                for r in range(c, n):
                    if not m[r][c].is_zero():
                        piv = r
                        break
            else:
                best = tol
                for r in range(c, n):
                    mag = m[r][c].magnitude()
                    if mag > best:
                        best = mag
                        piv = r
            if piv is None:
                raise ValueError("singular map")
            if piv != c:
                m[piv], m[c] = m[c], m[piv]
                inv[piv], inv[c] = inv[c], inv[piv]
            pinv = m[c][c].inv()
            m[c] = [x * pinv for x in m[c]]
            inv[c] = [x * pinv for x in inv[c]]
            for r in range(n):
                if r == c:
                    continue
                f = m[r][c]
                if f.is_zero():
                    continue
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[c])]
        return LinearMap.from_rows(inv, self.target, self.source)

    def _same_shape(self, other):
        if self.source_dim != other.source_dim or self.target_dim != other.target_dim:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "LinearMap(%d -> %d)" % (self.source_dim, self.target_dim)


def _any_scalar(cols):
    for col in cols:
        for s in col.values():
            return s
    return None


def _unit_like(sample):
    if type(sample) is QQi:
        return QQi(1)
    from .scalar import CFloat

    return CFloat(1.0)


def leg_apply(m: LinearMap, v: dict, right_dim: int, leg: int) -> dict:
    """Apply ``m`` to leg 0 or leg 1 of a sparse vector over X⊗Y.

    ``right_dim`` is dim Y.  ``m`` may be square, a coproduct (n → n²) or a
    1 x n functional; the result lives on m(X)⊗Y or X⊗m(Y), row-major.
    """
    cols = m.cols
    td = m.target_dim
    acc: dict = {}
    for r, c in v.items():
        x, y = divmod(r, right_dim)
        if leg == 0:
            col, base, step = cols[x], y, right_dim
        else:
            col, base, step = cols[y], x * td, 1
        for r2, c2 in col.items():
            k = base + r2 * step
            cur = acc.get(k)
            t = c * c2 if cur is None else cur + c * c2
            if t.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = t
    return acc


def flip_map(dim_a: int, dim_b: int, one) -> LinearMap:
    """The tensor flip e_i⊗f_j ↦ f_j⊗e_i as a permutation matrix."""
    cols = []
    for i in range(dim_a):
        for j in range(dim_b):
            cols.append({j * dim_a + i: one})
    return LinearMap(dim_a * dim_b, dim_b * dim_a, cols)


def _clear_denominators(row):
    """Scale a row of QQi in place so every component is a Gaussian integer."""
    l = 1
    for s in row:
        l = math.lcm(l, s.re.denominator, s.im.denominator)
    if l != 1:
        f = QQi(Fraction(l))
        for i, s in enumerate(row):
            row[i] = s * f
    return row


def rank_of_vectors(vectors, dim: int) -> int:
    """Rank of a family of sparse vectors inside a dim-dimensional space.

    Exact backend: fraction-free (Bareiss) elimination after clearing
    denominators.  Float backend: partial-pivot elimination with the global
    tolerance deciding what counts as zero.
    """
    rows = []
    sample = None
    for v in vectors:
        if not vec_is_zero(v):
            rows.append(v)
            if sample is None:
                sample = next(iter(v.values()))
    if not rows:
        return 0
    zero = zero_like(sample)
    dense = [[v.get(c, zero) for c in range(dim)] for v in rows]
    if type(sample) is QQi:
        return _rank_bareiss(dense, dim)
    return _rank_float(dense, dim)


def _rank_bareiss(m, ncols) -> int:
    for row in m:
        _clear_denominators(row)
    nrows = len(m)
    prev = None
    r = 0
    for c in range(ncols):
        if r == nrows or r == ncols:
            break
        piv = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[piv], m[r] = m[r], m[piv]
        pr = m[r]
        pv = pr[c]
        for i in range(r + 1, nrows):
            ri = m[i]
            f = ri[c]
            if f.is_zero():
                if prev is not None:
                    for j in range(c + 1, ncols):
                        ri[j] = (pv * ri[j]) / prev
                else:
                    for j in range(c + 1, ncols):
                        ri[j] = pv * ri[j]
            else:
                if prev is not None:
                    for j in range(c + 1, ncols):
                        ri[j] = (pv * ri[j] - f * pr[j]) / prev
                else:
                    for j in range(c + 1, ncols):
                        ri[j] = pv * ri[j] - f * pr[j]
            ri[c] = zero_like(pv)
        prev = pv
        r += 1
    return r


def _rank_float(m, ncols) -> int:
    tol = tolerance()
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv, best = None, tol
        for i in range(r, nrows):
            mag = m[i][c].magnitude()
            if mag > best:
                best = mag
                piv = i
        if piv is None:
            continue
        if piv != r:
            m[piv], m[r] = m[r], m[piv]
        pr = m[r]
        pv_inv = pr[c].inv()
        for i in range(r + 1, nrows):
            f = m[i][c] * pv_inv
            if f.is_zero():
                continue
            ri = m[i]
            for j in range(c, ncols):
                ri[j] = ri[j] - f * pr[j]
        r += 1
    return r


def nullspace_basis(rows, ncols: int):
    """Basis (list of sparse vectors) of {x : R x = 0} for sparse rows R."""
    live = [r for r in rows if not vec_is_zero(r)]
    if not live:
        from .scalar import one as backend_one

        return [{i: backend_one()} for i in range(ncols)]
    sample = next(iter(live[0].values()))
    zero = zero_like(sample)
    one = _unit_like(sample)
    dense = [[r.get(c, zero) for c in range(ncols)] for r in live]
    exact = type(sample) is QQi
    tol = tolerance()
    nrows = len(dense)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        if exact:
            for i in range(r, nrows):
                if not dense[i][c].is_zero():
                    piv = i
                    break
        else:
            best = tol
            for i in range(r, nrows):
                mag = dense[i][c].magnitude()
                if mag > best:
                    best = mag
                    piv = i
        if piv is None:
            continue
        if piv != r:
            dense[piv], dense[r] = dense[r], dense[piv]
        pinv = dense[r][c].inv()
        dense[r] = [x * pinv for x in dense[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = dense[i][c]
            if f.is_zero():
                continue
            dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = {free: one}
        for row_idx, pc in enumerate(pivots):
            coeff = dense[row_idx][free]
            if not coeff.is_zero():
                v[pc] = -coeff
        basis.append(v)
    return basis
