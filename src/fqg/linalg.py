"""Sparse exact linear algebra over the scalar backends.

Vectors are plain ``{index: scalar}`` dicts with zero entries omitted.
Linear maps are concrete matrices stored column-sparse; the full shape is
always declared, so every entry is retrievable even when not stored.
One Gauss-Jordan routine, ``_eliminate``, serves ``nullspace_basis``,
``LinearMap.inverse`` and float rank.  It works on sparse rows
``{column: scalar}`` and touches only the entries a pivot row states; it
pivots on the first nonzero entry on the exact backend and on the largest
magnitude above the global tolerance on the float backend.  Exact rank of
vectors that each have one nonzero entry is the number of distinct indices
they sit at, with no elimination.  Any other family has each row's
denominators cleared and goes through fraction-free (Bareiss) elimination
on Gaussian integers held as (re, im) pairs of Python ints, so no rational
arithmetic happens inside that elimination.
"""

from __future__ import annotations

import math

from .scalar import QQi, one_like, scalar, tolerance, zero_like


class InvalidDataError(ValueError):
    """Raised when user-supplied structures fail shape or axiom validation."""


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
    """A target_dim x source_dim matrix, stored as sparse columns.

    The columns are built here and never changed, so whether every entry is
    1 (:meth:`all_ones`) is decided once, on first use."""

    __slots__ = ("source_dim", "target_dim", "cols", "_ones")

    def __init__(self, source_dim, target_dim, cols):
        if len(cols) != source_dim:
            raise ValueError("expected %d columns, got %d" % (source_dim, len(cols)))
        clean = []
        for c, col in enumerate(cols):
            if col and (min(col) < 0 or max(col) >= target_dim):
                raise InvalidDataError("column %d states a row outside 0..%d"
                                       % (c, target_dim - 1))
            clean.append({r: s for r, s in col.items() if not s.is_zero()})
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.cols = tuple(clean)
        self._ones = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        target_dim = len(rows)
        source_dim = len(rows[0]) if rows else 0
        cols = [dict() for _ in range(source_dim)]
        for r, row in enumerate(rows):
            if len(row) != source_dim:
                raise ValueError("ragged matrix")
            for c, s in enumerate(row):
                if not s.is_zero():
                    cols[c][r] = s
        return cls(source_dim, target_dim, cols)

    @classmethod
    def identity(cls, n, one):
        return cls(n, n, [{i: one} for i in range(n)])

    # -- access --------------------------------------------------------

    def entry(self, r, c):
        """Entry (r, c); None stands for a structural zero."""
        return self.cols[c].get(r)

    def all_ones(self) -> bool:
        """Whether every entry is 1, read off its raw components (never
        through the float tolerance); then applying the map multiplies by
        nothing."""
        if self._ones is None:
            self._ones = all(s.re == 1 and s.im == 0 for col in self.cols for s in col.values())
        return self._ones

    def apply(self, vec: dict) -> dict:
        cols = self.cols
        ones = self.all_ones()
        acc: dict = {}
        for j, c in vec.items():
            for k, s in cols[j].items():
                p = c if ones else c * s
                cur = acc.get(k)
                t = p if cur is None else cur + p
                if t.is_zero():
                    acc.pop(k, None)
                else:
                    acc[k] = t
        return acc

    # -- algebra -------------------------------------------------------

    def compose(self, first: "LinearMap") -> "LinearMap":
        """self ∘ first (apply ``first``, then ``self``)."""
        if first.target_dim != self.source_dim:
            raise ValueError("composition shape mismatch: %d vs %d" % (first.target_dim, self.source_dim))
        cols = [self.apply(col) for col in first.cols]
        return LinearMap(first.source_dim, self.target_dim, cols)

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
                         [vec_scale(col, c) for col in self.cols])

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            vec_add_into(col, b)
            cols.append(col)
        return LinearMap(self.source_dim, self.target_dim, cols)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        return LinearMap(self.source_dim, self.target_dim,
                         [vec_sub(a, b) for a, b in zip(self.cols, other.cols)])

    def transpose(self) -> "LinearMap":
        cols = [dict() for _ in range(self.target_dim)]
        for c, col in enumerate(self.cols):
            for r, s in col.items():
                cols[r][c] = s
        return LinearMap(self.target_dim, self.source_dim, cols)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.source_dim != other.source_dim or self.target_dim != other.target_dim:
            return False
        return all(vec_eq(a, b) for a, b in zip(self.cols, other.cols))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(vec_is_zero(col) for col in self.cols)

    def rank(self) -> int:
        return rank_of_vectors(list(self.cols), self.target_dim)

    def inverse(self) -> "LinearMap":
        """Gauss-Jordan inverse of [M | I] on sparse rows; raises ValueError
        when singular."""
        if self.source_dim != self.target_dim:
            raise ValueError("only square maps invert")
        n = self.source_dim
        if n == 0:
            return LinearMap(0, 0, [])
        sample = _any_scalar(self.cols)
        if sample is None:
            raise ValueError("singular map")
        one = one_like(sample)
        m = [dict() for _ in range(n)]
        for c, col in enumerate(self.cols):
            for r, s in col.items():
                m[r][c] = s
        for r, row in enumerate(m):
            row[n + r] = one
        if len(_eliminate(m, n)) < n:
            raise ValueError("singular map")
        cols = [dict() for _ in range(n)]
        for r, row in enumerate(m):
            for c, s in row.items():
                if c >= n:
                    cols[c - n][r] = s
        return LinearMap(n, n, cols)

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


def leg_apply(m: LinearMap, v: dict, right_dim: int, leg: int) -> dict:
    """Apply ``m`` to leg 0 or leg 1 of a sparse vector over X⊗Y.

    ``right_dim`` is dim Y.  ``m`` may be square, a coproduct (n → n²) or a
    1 x n functional; the result lives on m(X)⊗Y or X⊗m(Y), row-major.
    """
    cols = m.cols
    td = m.target_dim
    ones = m.all_ones()
    acc: dict = {}
    for r, c in v.items():
        x, y = divmod(r, right_dim)
        if leg == 0:
            col, base, step = cols[x], y, right_dim
        else:
            col, base, step = cols[y], x * td, 1
        for r2, c2 in col.items():
            k = base + r2 * step
            p = c if ones else c * c2
            cur = acc.get(k)
            t = p if cur is None else cur + p
            if t.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = t
    return acc


def leg_compose(m: LinearMap, first: LinearMap, right_dim: int, leg: int) -> LinearMap:
    """(m⊗id)∘first for leg 0, (id⊗m)∘first for leg 1: :func:`leg_apply`
    on each column of ``first``, a map into X⊗Y with dim Y = ``right_dim``."""
    if leg == 0:
        target_dim = m.target_dim * right_dim
    else:
        target_dim = first.target_dim // right_dim * m.target_dim
    return LinearMap(first.source_dim, target_dim,
                     [leg_apply(m, col, right_dim, leg) for col in first.cols])


def flip_map(dim_a: int, dim_b: int, one) -> LinearMap:
    """The tensor flip e_i⊗f_j ↦ f_j⊗e_i as a permutation matrix."""
    cols = []
    for i in range(dim_a):
        for j in range(dim_b):
            cols.append({j * dim_a + i: one})
    return LinearMap(dim_a * dim_b, dim_b * dim_a, cols)


def rank_of_vectors(vectors, dim: int) -> int:
    """Rank of a family of sparse vectors inside a dim-dimensional space.

    Exact backend: when every nonzero vector has one entry, as every slice
    of a classical family does, the rank is the number of distinct indices
    they sit at.  Otherwise fraction-free (Bareiss) elimination on
    Gaussian-integer rows, one per distinct vector, since a repeated row
    cannot change the rank.  Float backend: ``_eliminate`` on every row,
    with the global tolerance deciding what counts as zero.
    """
    rows = [v for v in vectors if not vec_is_zero(v)]
    if not rows:
        return 0
    sample = next(iter(rows[0].values()))
    if type(sample) is QQi:
        if all(len(v) == 1 for v in rows):
            return len({k for v in rows for k in v})
        distinct = {frozenset(v.items()): v for v in rows}
        return _rank_bareiss([_gaussian_integer_row(v, dim) for v in distinct.values()], dim)
    return len(_eliminate([dict(v) for v in rows], dim))


_GZERO = (0, 0)


def _gaussian_integer_row(v: dict, dim: int) -> list:
    """Dense row of (re, im) int pairs: the QQi vector v times the lcm of its
    denominators, a nonzero scale that leaves the rank unchanged."""
    l = 1
    for s in v.values():
        l = math.lcm(l, s.re.denominator, s.im.denominator)
    row = [_GZERO] * dim
    for c, s in v.items():
        re, im = s.re, s.im
        row[c] = (re.numerator * (l // re.denominator), im.numerator * (l // im.denominator))
    return row


def _rank_bareiss(m, ncols) -> int:
    """Rank of a matrix over Z[i] given as rows of (re, im) int pairs.

    Bareiss elimination: row_i <- (a*row_i - f*pivot_row) / p, with a the
    pivot, f the entry of row_i below it and p the previous pivot.  By
    Sylvester's identity every such quotient lies in Z[i], so it is computed
    exactly as (t*conj(p)) // N(p) componentwise.  Eliminates ``m`` in place.
    """
    nrows = len(m)
    pr, pi, pn = 1, 0, 1  # previous pivot and its norm
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c] != _GZERO:
                break
        else:
            continue
        m[i], m[r] = m[r], m[i]
        top = m[r]
        ar, ai = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            fr, fi = row[c]
            for j in range(c + 1, ncols):
                xr, xi = row[j]
                yr, yi = top[j]
                tr = ar * xr - ai * xi - fr * yr + fi * yi
                ti = ar * xi + ai * xr - fr * yi - fi * yr
                row[j] = ((tr * pr + ti * pi) // pn, (ti * pr - tr * pi) // pn)
        pr, pi, pn = ar, ai, ar * ar + ai * ai
        r += 1
    return r


def _subtract_row(row: dict, f, top, zero) -> None:
    """row -= f*top for a sparse row and the (column, scalar) pairs ``top``.

    Each entry is computed as in a dense row, ``cur - f*b`` with an absent
    ``cur`` read as ``zero``, so float results are the dense ones.  An exact
    zero is dropped; a float result is kept as computed, as a dense row
    would keep it."""
    exact = type(zero) is QQi
    for k, b in top:
        cur = row.get(k)
        t = (zero if cur is None else cur) - f * b
        if exact and t.is_zero():
            row.pop(k, None)
        else:
            row[k] = t


def _eliminate(rows, ncols) -> list:
    """Gauss-Jordan reduction of sparse rows ``{column: scalar}`` over their
    first ``ncols`` columns, in place; a row may hold later columns, which
    ride along.

    The pivot is the first nonzero entry on the exact backend and the
    largest magnitude above the tolerance on the float backend.  Each pivot
    row is scaled to a leading 1 and cleared from every other row that holds
    its column.  A row update visits only the pivot row's entries and
    computes each as a dense row would (:func:`_subtract_row`).  Returns the
    pivot columns; the i-th of them leads ``rows[i]``.  On the exact backend
    the rows then get one pass through the :class:`QQi` constructor, which
    stores each integral component as an int where the arithmetic of the
    loop may have left a Fraction.
    """
    sample = _any_scalar(rows)
    if sample is None or not ncols:
        return []
    nrows = len(rows)
    exact = type(sample) is QQi
    zero = zero_like(sample)
    tol = tolerance()
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = None
        if exact:
            for i in range(r, nrows):
                x = rows[i].get(c)
                if x is not None and not x.is_zero():
                    piv = i
                    break
        else:
            best = tol
            for i in range(r, nrows):
                x = rows[i].get(c)
                if x is not None:
                    mag = x.magnitude()
                    if mag > best:
                        best = mag
                        piv = i
        if piv is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        pinv = rows[r][c].inv()
        top = rows[r] = {k: x * pinv for k, x in rows[r].items()}
        for i in range(nrows):
            row = rows[i]
            f = row.get(c)
            if i == r or f is None or f.is_zero():
                continue
            _subtract_row(row, f, top.items(), zero)
        pivots.append(c)
    if exact:
        for row in rows:
            for k, x in row.items():
                row[k] = QQi(x.re, x.im)
    return pivots


def nullspace_basis(rows, ncols: int):
    """Basis (list of sparse vectors) of {x : R x = 0} for sparse rows R."""
    live = [dict(r) for r in rows if not vec_is_zero(r)]
    if not live:
        return [{i: scalar(1)} for i in range(ncols)]
    one = one_like(next(iter(live[0].values())))
    pivots = _eliminate(live, ncols)
    pivot_set = set(pivots)
    basis = {free: {free: one} for free in range(ncols) if free not in pivot_set}
    for row, pc in zip(live, pivots):
        for k, coeff in row.items():
            v = basis.get(k)
            if v is not None and not coeff.is_zero():
                v[pc] = -coeff
    return list(basis.values())
