"""Finite-dimensional associative *-algebras presented by structure constants.

An algebra of dimension n is a sparse structure-constant tensor
``mult[(i, j)] = {k: c}`` meaning ``e_i e_j = sum_k c e_k``, a unit vector,
and an involution matrix ``St`` acting as ``(sum c_i e_i)* = sum conj(c_i)
St(e_i)``.  Everything is immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linalg import (LinearMap, flip_map, rank_of_vectors, vec_add_into,
                     vec_eq, vec_from_dense, vec_is_zero, vec_scale, vec_sub)
from .report import Check, Report, sweep
from .scalar import scalar, zero_like


class InvalidDataError(ValueError):
    """Raised when user-supplied structures fail shape or axiom validation."""


class StarAlgebra:
    __slots__ = ("dim", "mult", "unit", "star", "label", "_cache")

    def __init__(self, dim, mult, unit, star, label=""):
        if dim <= 0:
            raise InvalidDataError("dimension must be positive")
        clean = {}
        for (i, j), terms in mult.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InvalidDataError("structure constant index out of range")
            t = {k: c for k, c in terms.items() if not c.is_zero()}
            for k in t:
                if not 0 <= k < dim:
                    raise InvalidDataError("structure constant index out of range")
            if t:
                clean[(i, j)] = t
        self.dim = dim
        self.mult = clean
        self.unit = {i: c for i, c in dict(unit).items() if not c.is_zero()}
        if isinstance(star, LinearMap):
            if star.source_dim != dim or star.target_dim != dim:
                raise InvalidDataError("involution matrix must be %d x %d" % (dim, dim))
            self.star = star
        else:
            self.star = LinearMap.from_rows(star)
        self.label = label
        self._cache = {}

    # -- vector-level operations ----------------------------------------

    def multiply_vec(self, u: dict, v: dict) -> dict:
        mult = self.mult
        acc: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                terms = mult.get((i, j))
                if terms is None:
                    continue
                c = ci * cj
                if c.is_zero():
                    continue
                for k, ck in terms.items():
                    cur = acc.get(k)
                    t = c * ck if cur is None else cur + c * ck
                    if t.is_zero():
                        acc.pop(k, None)
                    else:
                        acc[k] = t
        return acc

    def star_vec(self, v: dict) -> dict:
        cols = self.star.cols
        acc: dict = {}
        for i, c in v.items():
            vec_add_into(acc, cols[i], c.conj())
        return acc

    def basis_product(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    # -- element construction --------------------------------------------

    def element(self, coeffs) -> "Element":
        return Element(self, coeffs)

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise InvalidDataError("basis index out of range")
        return Element(self, {i: scalar(1)})

    def unit_element(self) -> "Element":
        return Element(self, dict(self.unit))

    def zero_element(self) -> "Element":
        return Element(self, {})

    # -- structural predicates ---------------------------------------------

    def is_commutative(self) -> bool:
        for (i, j), terms in self.mult.items():
            if not vec_eq(terms, self.mult.get((j, i), {})):
                return False
        return True

    def has_pointwise_basis(self) -> bool:
        """True when the basis is orthogonal self-adjoint idempotents summing to 1.

        This is the structural shape of functions on a finite set, which is
        what commutative-family slicing requires.
        """
        for i in range(self.dim):
            for j in range(self.dim):
                terms = self.mult.get((i, j), {})
                if i == j:
                    if len(terms) != 1 or i not in terms:
                        return False
                    c = terms[i]
                    if not (c - _one_of(c)).is_zero():
                        return False
                elif terms:
                    return False
        for i in range(self.dim):
            col = self.star.cols[i]
            if len(col) != 1 or i not in col:
                return False
            c = col[i]
            if not (c - _one_of(c)).is_zero():
                return False
        if set(self.unit) != set(range(self.dim)):
            return False
        return all((c - _one_of(c)).is_zero() for c in self.unit.values())

    def __repr__(self):
        return "StarAlgebra(%r, dim=%d)" % (self.label, self.dim)


def _one_of(sample):
    from .scalar import CFloat, QQi

    return QQi(1) if type(sample) is QQi else CFloat(1.0)


class Element:
    """A vector in a StarAlgebra, stored sparsely."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StarAlgebra, coeffs):
        if not isinstance(coeffs, dict):
            coeffs = vec_from_dense(list(coeffs))
        for i in coeffs:
            if not 0 <= i < algebra.dim:
                raise InvalidDataError("coefficient index out of range")
        self.algebra = algebra
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}

    def dense(self):
        z = scalar(0)
        if self.coeffs:
            z = zero_like(next(iter(self.coeffs.values())))
        return [self.coeffs.get(i, z) for i in range(self.algebra.dim)]

    def coefficient(self, i: int):
        return self.coeffs.get(i)

    def is_zero(self) -> bool:
        return vec_is_zero(self.coeffs)

    def scaled(self, c) -> "Element":
        return Element(self.algebra, vec_scale(self.coeffs, c))

    def star(self) -> "Element":
        return Element(self.algebra, self.algebra.star_vec(self.coeffs))

    def __add__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        acc = dict(self.coeffs)
        vec_add_into(acc, other.coeffs)
        return Element(self.algebra, acc)

    def __sub__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        return Element(self.algebra, vec_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Element":
        return Element(self.algebra, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        return Element(self.algebra, self.algebra.multiply_vec(self.coeffs, other.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra.dim != other.algebra.dim:
            return False
        return vec_eq(self.coeffs, other.coeffs)

    __hash__ = None

    def _same_algebra(self, other):
        if self.algebra.dim != other.algebra.dim:
            raise InvalidDataError("elements live in different algebras")

    def __repr__(self):
        return "Element(%r)" % (self.coeffs,)


def multiply(algebra: StarAlgebra, x: Element, y: Element) -> Element:
    """Product of two elements through the structure-constant tensor."""
    if x.algebra.dim != algebra.dim or y.algebra.dim != algebra.dim:
        raise InvalidDataError("dimension mismatch")
    return Element(algebra, algebra.multiply_vec(x.coeffs, y.coeffs))


def star(algebra: StarAlgebra, x: Element) -> Element:
    """Conjugate-linear involution applied through the involution matrix."""
    if x.algebra.dim != algebra.dim:
        raise InvalidDataError("dimension mismatch")
    return Element(algebra, algebra.star_vec(x.coeffs))


# -- tensor calculus -------------------------------------------------------


def tensor_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """A⊗B on the row-major basis e_i⊗f_j ↦ i*dim(B)+j."""
    db = b.dim
    mult = {}
    for (i1, j1), ta in a.mult.items():
        for (i2, j2), tb in b.mult.items():
            terms = {}
            for k1, c1 in ta.items():
                base = k1 * db
                for k2, c2 in tb.items():
                    terms[base + k2] = c1 * c2
            mult[(i1 * db + i2, j1 * db + j2)] = terms
    unit = tensor_vec(a.unit, b.unit, db)
    star_map = a.star.tensor(b.star)
    label = "%s (x) %s" % (a.label or "A", b.label or "B")
    return StarAlgebra(a.dim * db, mult, unit, star_map, label)


def tensor_vec(u: dict, v: dict, dim_b: int) -> dict:
    """Outer product of sparse vectors on the row-major tensor basis."""
    acc = {}
    for i, ci in u.items():
        base = i * dim_b
        for j, cj in v.items():
            c = ci * cj
            if not c.is_zero():
                acc[base + j] = c
    return acc


def tensor_mult(a: StarAlgebra, b: StarAlgebra, u: dict, v: dict) -> dict:
    """Product of sparse vectors over A⊗B without materializing A⊗B."""
    db = b.dim
    am, bm = a.mult, b.mult
    acc: dict = {}
    for p, cp in u.items():
        x1, b1 = divmod(p, db)
        for q, cq in v.items():
            x2, b2 = divmod(q, db)
            ta = am.get((x1, x2))
            if ta is None:
                continue
            tb = bm.get((b1, b2))
            if tb is None:
                continue
            c = cp * cq
            if c.is_zero():
                continue
            for k1, c1 in ta.items():
                base = k1 * db
                cc = c * c1
                for k2, c2 in tb.items():
                    k = base + k2
                    cur = acc.get(k)
                    t = cc * c2 if cur is None else cur + cc * c2
                    if t.is_zero():
                        acc.pop(k, None)
                    else:
                        acc[k] = t
    return acc


def tensor_star(a: StarAlgebra, b: StarAlgebra, v: dict) -> dict:
    """(x⊗y)* = x*⊗y* applied to a sparse vector over A⊗B."""
    db = b.dim
    acc: dict = {}
    for p, c in v.items():
        x, y = divmod(p, db)
        piece = tensor_vec(a.star.cols[x], b.star.cols[y], db)
        vec_add_into(acc, piece, c.conj())
    return acc


def flip(a: StarAlgebra, b: StarAlgebra) -> LinearMap:
    """The flip A⊗B → B⊗A as a permutation matrix."""
    return flip_map(a.dim, b.dim, scalar(1))


def rank_of_span(vectors) -> int:
    """Exact rank of the span of a list of Elements (empty list has rank 0)."""
    vecs = []
    dim = None
    for x in vectors:
        if dim is None:
            dim = x.algebra.dim
        elif x.algebra.dim != dim:
            raise InvalidDataError("vectors live in different spaces")
        vecs.append(x.coeffs)
    if dim is None:
        return 0
    return rank_of_vectors(vecs, dim)


# -- finite-dimensional C*-algebras as sums of matrix blocks ---------------


class BlockAlgebra(StarAlgebra):
    """Direct sum of full matrix algebras with the matrix-unit basis.

    ``blocks=[n_1, ..., n_k]`` realizes ⊕ M_{n_i}; the involution is the
    conjugate transpose and the canonical trace carries one positive rational
    weight per block.
    """

    __slots__ = ("blocks", "trace_weights", "trace")

    def __init__(self, blocks, trace_weights=None, label=""):
        blocks = tuple(int(n) for n in blocks)
        if not blocks or any(n <= 0 for n in blocks):
            raise InvalidDataError("blocks must be positive integers")
        if trace_weights is None:
            trace_weights = [Fraction(1)] * len(blocks)
        trace_weights = tuple(Fraction(w) for w in trace_weights)
        if len(trace_weights) != len(blocks):
            raise InvalidDataError("one trace weight per block required")
        if any(w <= 0 for w in trace_weights):
            raise InvalidDataError("trace weights must be positive")
        dim = sum(n * n for n in blocks)
        one = scalar(1)

        offsets = []
        off = 0
        for n in blocks:
            offsets.append(off)
            off += n * n

        def idx(b, i, j):
            return offsets[b] + i * blocks[b] + j

        mult = {}
        unit = {}
        trace_row = {}
        star_cols = [{} for _ in range(dim)]
        for b, n in enumerate(blocks):
            w = scalar(trace_weights[b])
            for i in range(n):
                unit[idx(b, i, i)] = one
                trace_row[idx(b, i, i)] = w
                for j in range(n):
                    star_cols[idx(b, i, j)] = {idx(b, j, i): one}
                    for l in range(n):
                        mult[(idx(b, i, j), idx(b, j, l))] = {idx(b, i, l): one}
        star_map = LinearMap(dim, dim, star_cols)
        super().__init__(dim, mult, unit, star_map,
                         label or "blocks%s" % (list(blocks),))
        self.blocks = blocks
        self.trace_weights = trace_weights
        self.trace = LinearMap(dim, 1, [{0: c} if (c := trace_row.get(i)) is not None else {}
                                        for i in range(dim)])


def scalar_algebra(label="C") -> BlockAlgebra:
    """The one-dimensional *-algebra (the complex scalars)."""
    return BlockAlgebra([1], label=label)


# -- axiom verification ------------------------------------------------------


def verify_star_algebra(algebra: StarAlgebra) -> Report:
    """Check associativity, unit laws and involution axioms; report violations."""
    cached = algebra._cache.get("verify_star_algebra")
    if cached is not None:
        return cached
    n = algebra.dim
    one = scalar(1)
    unit = algebra.unit
    mult = algebra.mult
    star_cols = algebra.star.cols

    def unit_law(side_i):
        side, i = side_i
        e = {i: one}
        prod = algebra.multiply_vec(unit, e) if side == "left" else algebra.multiply_vec(e, unit)
        return vec_eq(prod, e)

    def associative(ijk):
        i, j, k = ijk
        return vec_eq(algebra.multiply_vec(mult.get((i, j), {}), {k: one}),
                      algebra.multiply_vec({i: one}, mult.get((j, k), {})))

    checks = [
        sweep("unit_law", ((side, i) for i in range(n) for side in ("left", "right")),
              unit_law),
        sweep("associativity", product(range(n), repeat=3), associative),
        sweep("star_involutive", range(n),
              lambda i: vec_eq(algebra.star_vec(algebra.star_vec({i: one})), {i: one})),
        sweep("star_antimultiplicative", product(range(n), repeat=2),
              lambda ij: vec_eq(algebra.star_vec(mult.get(ij, {})),
                                algebra.multiply_vec(star_cols[ij[1]], star_cols[ij[0]]))),
        Check("star_unit", vec_eq(algebra.star_vec(unit), unit), ()),
    ]

    if isinstance(algebra, BlockAlgebra):
        ok = algebra.dim == sum(b * b for b in algebra.blocks)
        checks.append(Check("block_dimension", ok, () if ok else (algebra.dim,)))

        def gram_entry(ij):
            i, j = ij
            g = _functional(algebra.trace,
                            algebra.multiply_vec(algebra.star_vec({j: one}), {i: one}))
            if i == j:
                return g is not None and g.is_real() and g.re > 0
            return g is None or g.is_zero()

        checks.append(sweep("trace_gram_diagonal_positive", product(range(n), repeat=2),
                            gram_entry))

    report = Report(algebra.label or "star-algebra", checks)
    algebra._cache["verify_star_algebra"] = report
    return report


def _functional(fmap: LinearMap, vec: dict):
    return fmap.apply(vec).get(0)
