"""Finite-dimensional associative *-algebras presented by structure constants.

An algebra of dimension n is a sparse structure-constant tensor held as
rows, ``mult[i][j] = {k: c}`` meaning ``e_i e_j = sum_k c e_k``, a unit
vector, and an involution matrix ``St`` acting as ``(sum c_i e_i)* = sum
conj(c_i) St(e_i)``.  A product the table does not state is 0.  Everything
is immutable after construction.

A *diagonal* table, e_i e_j = [i = j] e_i as for the functions on a finite
set, is recognised when the algebra is built, and its products skip the
table: the product of u and v is then u_i v_i at each i in both supports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, product

from .linalg import (InvalidDataError, LinearMap, leg_apply, rank_of_vectors, vec_add_into,
                     vec_eq, vec_from_dense, vec_is_zero, vec_sub)
from .report import Check, Report, first_failure, sweep
from .scalar import object_cache, one_like, parse_number, scalar


def exact_int(x, what: str) -> int:
    """``x`` if it is an int; a float, a string or a bool is refused rather
    than coerced, so a table or a size is taken as stated."""
    if type(x) is not int:
        raise InvalidDataError("%s %.40r is not an integer" % (what, x))
    return x


# the terms of a product that a table does not state; shared, never changed
_EMPTY: dict = {}


def _refuse_index(i):
    """Raise for a table index ``i`` that is not an int in range: a float or
    a bool (whose range test would hold) as a table that is not rows of int
    indices, any other int as out of range."""
    if type(i) is not int:
        raise TypeError("index %.40r is not an int" % (i,))
    raise InvalidDataError("structure constant index out of range")


class StarAlgebra:
    """A *-algebra on the basis e_0, ..., e_{dim-1}; see the module docstring.

    ``mult`` is the row-indexed table ``{i: {j: {k: c}}}``.  Its rows and
    terms dicts are kept as given, not copied, except a row that holds a
    zero coefficient or an empty terms dict: it is copied without them, and
    dropped if nothing is left.  So a large table is held once, and its
    builder must not change it afterwards.

    ``_diag`` is True when the cleaned table is exactly {i: {i: {i: 1}}} for
    every i, with each 1 read off its raw components rather than through the
    float tolerance; :meth:`multiply_vec` and :func:`tensor_mult` then take
    the diagonal path.  It is derived from the table, never set."""

    __slots__ = ("dim", "mult", "unit", "star", "label", "_cache", "_diag")

    def __init__(self, dim, mult, unit, star, label=""):
        if dim <= 0:
            raise InvalidDataError("dimension must be positive")
        clean = {}
        diag = True
        _type, _int = type, int  # local names: the test runs once per stated term
        try:  # a table that is not rows of dicts fails here, at no cost to one that is
            for i, row in mult.items():
                if _type(i) is not _int or not 0 <= i < dim:
                    _refuse_index(i)
                dirty = False
                for j, terms in row.items():
                    if _type(j) is not _int or not 0 <= j < dim:
                        _refuse_index(j)
                    if not terms:
                        dirty = True
                    for k, c in terms.items():
                        if _type(k) is not _int or not 0 <= k < dim:
                            _refuse_index(k)
                        if c.is_zero():
                            dirty = True
                if dirty:
                    row = {j: kept for j, terms in row.items()
                           if (kept := {k: c for k, c in terms.items() if not c.is_zero()})}
                if row:
                    clean[i] = row
                    if diag and (len(row) != 1 or (terms := row.get(i)) is None
                                 or len(terms) != 1 or (c := terms.get(i)) is None
                                 or c.re != 1 or c.im != 0):
                        diag = False
        except (TypeError, AttributeError) as exc:
            raise InvalidDataError("a product table is rows {i: {j: {k: c}}} of int indices "
                                   "and scalars c (%s)" % exc) from None
        unit = dict(unit)
        if not all(0 <= exact_int(i, "unit index") < dim for i in unit):
            raise InvalidDataError("unit index out of range")
        if star.source_dim != dim or star.target_dim != dim:
            raise InvalidDataError("involution matrix must be %d x %d" % (dim, dim))
        self.dim = dim
        self.mult = clean
        self._diag = diag and len(clean) == dim
        self.unit = {i: c for i, c in unit.items() if not c.is_zero()}
        self.star = star
        self.label = label
        self._cache = {}

    # -- vector-level operations ----------------------------------------

    def multiply_vec(self, u: dict, v: dict) -> dict:
        if not v:  # or each term of u would walk the empty v
            return {}
        if self._diag:
            if len(v) < len(u):
                u, v = v, u
            acc: dict = {}
            for i, ci in u.items():
                cj = v.get(i)
                if cj is not None:
                    c = ci * cj
                    if not c.is_zero():
                        acc[i] = c
            return acc
        mult = self.mult
        acc = {}
        for i, ci in u.items():
            row = mult.get(i)
            if row is None:
                continue
            for j, cj in v.items():
                terms = row.get(j)
                if terms is None:
                    continue
                c = ci * cj
                if c.is_zero():
                    continue
                for k, ck in terms.items():
                    p = c * ck
                    cur = acc.get(k)
                    t = p if cur is None else cur + p
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
        """The terms of e_i e_j: the table's own dict, never to be changed."""
        return self.mult.get(i, _EMPTY).get(j, _EMPTY)

    # -- element construction --------------------------------------------

    def element(self, coeffs) -> "Element":
        return Element(self, coeffs)

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise InvalidDataError("basis index out of range")
        return Element(self, {i: scalar(1)})

    def unit_element(self) -> "Element":
        return Element(self, dict(self.unit))

    # -- structural predicates ---------------------------------------------

    def is_commutative(self) -> bool:
        return all(vec_eq(terms, self.basis_product(j, i))
                   for i, row in self.mult.items() for j, terms in row.items())

    def has_pointwise_basis(self) -> bool:
        """True when the basis is orthogonal self-adjoint idempotents summing to 1.

        This is the structural shape of functions on a finite set, which is
        what commutative-family slicing requires.  Only the stated entries
        are read: the table must state e_i e_i = 1·e_i for every i and no
        other product, each star column be 1·e_i and the unit 1 at every i,
        each 1 up to the float tolerance.
        """
        def one_at(terms, i):
            c = terms.get(i)
            return len(terms) == 1 and c is not None and (c - one_like(c)).is_zero()

        n = self.dim
        return (len(self.mult) == n and len(self.unit) == n
                and all(len(row) == 1 and one_at(row.get(i, _EMPTY), i)
                        for i, row in self.mult.items())
                and all(one_at(col, i) for i, col in enumerate(self.star.cols))
                and all((c - one_like(c)).is_zero() for c in self.unit.values()))

    def __repr__(self):
        return "StarAlgebra(%r, dim=%d)" % (self.label, self.dim)


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

    def is_zero(self) -> bool:
        return vec_is_zero(self.coeffs)

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
        if self.algebra is not other.algebra:
            return False
        return vec_eq(self.coeffs, other.coeffs)

    __hash__ = None

    def _same_algebra(self, other):
        if self.algebra is not other.algebra:
            raise InvalidDataError("elements live in different algebras")

    def __repr__(self):
        return "Element(%r)" % (self.coeffs,)


# -- tensor calculus -------------------------------------------------------


def tensor_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """A⊗B on the row-major basis e_i⊗f_j ↦ i*dim(B)+j."""
    db = b.dim
    mult = {}
    for i1, row_a in a.mult.items():
        for i2, row_b in b.mult.items():
            mult[i1 * db + i2] = {j1 * db + j2: tensor_vec(ta, tb, db)
                                  for j1, ta in row_a.items() for j2, tb in row_b.items()}
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
    """Product of sparse vectors over A⊗B without materializing A⊗B.

    ``v`` is grouped by its first-leg index, so each term of ``u`` visits only
    the first-leg indices that both its row of A's table and ``v`` contain,
    walking whichever of the two is smaller, and reads its row of B's table
    once.  When B is diagonal (see :class:`StarAlgebra`), each group is a
    dict over the second-leg index, and a term of ``u`` looks up its own
    second-leg index in it instead of walking the group.
    """
    arows, brows, db, b_diag = a.mult, b.mult, b.dim, b._diag
    vrows: dict = {}
    if b_diag:
        for q, cq in v.items():
            x2, b2 = divmod(q, db)
            vrows.setdefault(x2, {})[b2] = cq
    else:
        for q, cq in v.items():
            x2, b2 = divmod(q, db)
            vrows.setdefault(x2, []).append((b2, cq))
    acc: dict = {}
    for p, cp in u.items():
        x1, b1 = divmod(p, db)
        row = arows.get(x1)
        if row is None:
            continue
        if len(row) < len(vrows):
            hits = [(ta, vrows[x2]) for x2, ta in row.items() if x2 in vrows]
        else:
            hits = [(row[x2], vs) for x2, vs in vrows.items() if x2 in row]
        if b_diag:
            for ta, vs in hits:
                cq = vs.get(b1)
                if cq is None:
                    continue
                c = cp * cq
                if c.is_zero():
                    continue
                for k1, c1 in ta.items():
                    k = k1 * db + b1
                    p = c * c1
                    cur = acc.get(k)
                    t = p if cur is None else cur + p
                    if t.is_zero():
                        acc.pop(k, None)
                    else:
                        acc[k] = t
            continue
        brow = brows.get(b1, _EMPTY)
        for ta, vs in hits:
            for b2, cq in vs:
                tb = brow.get(b2)
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
                        p = cc * c2
                        cur = acc.get(k)
                        t = p if cur is None else cur + p
                        if t.is_zero():
                            acc.pop(k, None)
                        else:
                            acc[k] = t
    return acc


@object_cache
def _monomial(algebra: StarAlgebra) -> tuple:
    """(monomial, uniform) for the table of ``algebra``: whether each stated
    product is a multiple c·e_k of one basis element, and whether, if so,
    every such c is one and the same scalar (1 in a group, dual or block
    table, 1/n for the convolution on the functions on a group of order n).
    One scan of the table, read by :func:`_basis_generators` and
    :func:`_is_associative` alike."""
    first = None
    uniform = True
    for row in algebra.mult.values():
        for terms in row.values():
            if len(terms) != 1:
                return False, False
            if uniform:
                (c,) = terms.values()
                if first is None:
                    first = c
                elif c is not first and c != first:
                    uniform = False
    return True, uniform


@object_cache
def _basis_generators(algebra: StarAlgebra) -> tuple:
    """Basis indices that generate ``algebra``: every basis element is a
    multiple of a product of them, so a subspace closed under the product
    that holds them is everything.

    A monomial table (:func:`_monomial`: each basis product is 0 or a
    multiple of one basis element) gets them greedily, as groups._generators
    does: the first index outside the closure of the ones before it, trying
    the idempotent indices (g·g a multiple of g) last, so the unit of a
    group-like table is reached as a product rather than picked.  The
    closure starts empty, not at the unit, whose law is a check of its own.
    Any other table gets every index.

    Each closure is walked through the products the table states: when an
    index a is taken up, its row (a·b) and its column (b·a) are read for
    the b reached so far, so every stated product is read at most twice and
    the walk is linear in the table, not quadratic in the dimension."""
    n = algebra.dim
    rows = algebra.mult
    if not _monomial(algebra)[0]:
        return tuple(range(n))
    cols: dict = {}  # b -> [a with a·b stated]; a dict per column would add MBs at order 192
    for a, row in rows.items():
        for b in row:
            cols.setdefault(b, []).append(a)
    idempotent = [g in algebra.basis_product(g, g) for g in range(n)]
    gens = []
    reached = [False] * n
    for g in sorted(range(n), key=idempotent.__getitem__):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        todo = [g]
        while todo:
            a = todo.pop()
            for b, (k,) in rows.get(a, _EMPTY).items():  # a·b = c·e_k
                if reached[b] and not reached[k]:
                    reached[k] = True
                    todo.append(k)
            for b in cols.get(a, ()):
                if reached[b]:
                    (k,) = rows[b][a]  # b·a = c·e_k
                    if not reached[k]:
                        reached[k] = True
                        todo.append(k)
    return tuple(gens)


@object_cache
def _is_associative(algebra: StarAlgebra) -> bool:
    """A one-sided certificate that the product of ``algebra`` is
    associative: True only if it is.  Decided once per algebra, for every
    certificate that needs it.

    For any bilinear product the a with (xa)y = x(ay) for all basis x, y form
    a subspace closed under the product (Light's test), so it is enough to
    check them for the generators a of :func:`_basis_generators`.  A
    diagonal table (e_i e_j = [i = j] e_i) is associative without a walk.  A
    monomial table whose coefficients are all one scalar (:func:`_monomial`),
    as every table the engine builds is, is compared a whole row x at a time
    (:func:`_monomial_rows_associative`).  Any other table is walked product
    by product: a triple with x·a = 0 and a·y = 0 has 0 on both sides and is
    skipped, and so is an x with no products at all."""
    if algebra._diag:
        return True
    rows = algebra.mult
    if all(_monomial(algebra)):
        return _monomial_rows_associative(rows, _basis_generators(algebra))
    everything = range(algebra.dim)
    for a in _basis_generators(algebra):
        right = rows.get(a, _EMPTY)  # y -> a·y
        for row_x in rows.values():
            xa = row_x.get(a)
            for y in (everything if xa is not None else right):
                lhs: dict = {}
                if xa is not None:
                    for k, c in xa.items():
                        terms = rows.get(k, _EMPTY).get(y)
                        if terms is not None:
                            vec_add_into(lhs, terms, c)
                rhs: dict = {}
                ay = right.get(y)
                if ay is not None:
                    for k, c in ay.items():
                        terms = row_x.get(k)
                        if terms is not None:
                            vec_add_into(rhs, terms, c)
                if not vec_eq(lhs, rhs):
                    return False
    return True


def _monomial_rows_associative(rows: dict, gens) -> bool:
    """Light's test on a monomial table ``rows`` whose coefficients are all
    one scalar c, one row x at a time, as groups._associative does for a
    group table.  With x·a = c·e_k1, (x·a)·y over all y is c times row k1 of
    the table, and x·(a·y) is c times {y: row_x[k] for a·y = c·e_k}, so one
    comparison of those two dicts is the whole test at x.  No product of two
    nonzero scalars is 0, so x·a = 0 needs x·(a·y) = 0 for every y."""
    for a in gens:
        right = [(y, k) for y, terms in rows.get(a, _EMPTY).items()
                 for k in terms]  # a·y = c·e_k
        for row_x in rows.values():
            xa = row_x.get(a)
            if xa is None:
                if any(k in row_x for _, k in right):
                    return False
                continue
            (k1,) = xa
            if rows.get(k1, _EMPTY) != {y: row_x[k] for y, k in right if k in row_x}:
                return False
    return True


# -- *-homomorphisms -----------------------------------------------------------


HOM_IDENTITIES = ("unit", "multiplicative", "star")


def hom_indices(n: int, identities=HOM_IDENTITIES):
    """The tagged indices of the *-homomorphism identities of a map out of an
    n-dimensional algebra, in check order.  Each index comes straight from
    ``itertools``, with no Python frame between it and a sweep."""
    tagged = {"unit": (("unit",),),
              "multiplicative": product(("multiplicative",), range(n), range(n)),
              "star": product(("star",), range(n))}
    return chain.from_iterable(tagged[identity] for identity in identities)


def hom_predicate(a: StarAlgebra, c: StarAlgebra, alpha: LinearMap, b=None):
    """Whether α: A → C, or α: A → C⊗B when ``b`` is given, satisfies the
    identity at a tagged index: ("unit",) for α(1) = 1, ("multiplicative",
    i, j) for α(e_i e_j) = α(e_i)α(e_j) and ("star", i) for α(e_i*) = α(e_i)*.
    A family is the case C = A, a coproduct C = B = A, a counit C = ℂ.
    Into C⊗B the star is (x⊗y)* = x*⊗y*: the conjugated vector goes through
    the star matrix of B on leg 1, then that of C on leg 0."""
    if b is None:
        mult, star = c.multiply_vec, c.star_vec
    else:
        mult = partial(tensor_mult, c, b)

        def star(v):
            conj = {k: s.conj() for k, s in v.items()}
            return leg_apply(c.star, leg_apply(b.star, conj, b.dim, 1), b.dim, 0)
    cols = alpha.cols

    def holds(idx):
        tag = idx[0]
        if tag == "multiplicative":
            i, j = idx[1:]
            return vec_eq(alpha.apply(a.basis_product(i, j)), mult(cols[i], cols[j]))
        if tag == "star":
            return vec_eq(alpha.apply(a.star.cols[idx[1]]), star(cols[idx[1]]))
        return vec_eq(alpha.apply(a.unit),
                      c.unit if b is None else tensor_vec(c.unit, b.unit, b.dim))
    return holds


def hom_check(name: str, a: StarAlgebra, c: StarAlgebra, alpha: LinearMap,
              identities=HOM_IDENTITIES, b=None, certificate=None) -> Check:
    """The check ``name`` that α: A → C, or α: A → C⊗B when ``b`` is given,
    satisfies ``identities`` of :func:`hom_predicate`; its witness is the
    first failing index of :func:`hom_indices`, untagged for one identity.
    ``certificate`` is :func:`sweep`'s; when the identities include the
    multiplicative one it defaults to :func:`hom_on_generators`."""
    if certificate is None and "multiplicative" in identities:
        certificate = partial(hom_on_generators, a, c, alpha, identities, b)
    check = sweep(name, hom_indices(a.dim, identities), hom_predicate(a, c, alpha, b),
                  certificate)
    if len(identities) == 1:
        check.witness = check.witness[1:]
    return check


def _disjoint_supports(vectors) -> bool:
    """Whether no index is in the support of two of ``vectors``."""
    seen: set = set()
    for v in vectors:
        if not seen.isdisjoint(v):
            return False
        seen.update(v)
    return True


def law_on_generators(a: StarAlgebra, law, images=None) -> bool:
    """A one-sided certificate that ``law`` holds at every basis pair (i, j)
    of A: True only if it does.  The law must be one whose good left factors,
    the a with the law at (a, x) for every basis x, form a subalgebra once A
    and the products the law reads are associative (the nucleus lemma); the
    caller vouches for the products, this decides A.  The law is then checked
    for i among the generators of A (:func:`_basis_generators`).

    ``images``, if given, are vectors u_i such that on a diagonal A (e_i e_j
    = [i = j] e_i) the law at i != j reads u_i u_j = 0 in a diagonal product.
    That product is pointwise and the scalars have no zero divisors, so the
    law is checked at the n pairs (i, i) only, and off them through the
    pairwise disjoint supports of the u_i, with no associativity decided."""
    n = a.dim
    if images is not None and a._diag:
        return _disjoint_supports(images) and all(law((i, i)) for i in range(n))
    return _is_associative(a) and first_failure(product(_basis_generators(a), range(n)),
                                                law) is None


def hom_on_generators(a: StarAlgebra, c: StarAlgebra, alpha: LinearMap, identities,
                      b=None) -> bool:
    """A one-sided certificate that α satisfies ``identities`` of
    :func:`hom_predicate`: True only if it does.  The multiplicative identity
    goes through :func:`law_on_generators`.  Into a diagonal target (C, or
    C⊗B with both diagonal) the images α(e_i) are its u_i, since α(e_i e_j) =
    0 off the diagonal of a diagonal A, and no associativity of the target is
    decided; into any other target C and B must be decided associative first.
    The other identities are checked in full."""
    holds = hom_predicate(a, c, alpha, b)
    diagonal = c._diag and (b is None or b._diag)
    return ((diagonal or (_is_associative(c) and (b is None or _is_associative(b))))
            and law_on_generators(a, lambda ij: holds(("multiplicative",) + ij),
                                  alpha.cols if diagonal else None)
            and first_failure(hom_indices(a.dim, [identity for identity in identities
                                                  if identity != "multiplicative"]),
                              holds) is None)


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
        blocks = tuple(exact_int(n, "block size") for n in blocks)
        if not blocks or any(n <= 0 for n in blocks):
            raise InvalidDataError("blocks must be positive integers")
        from .groups import MAX_GROUP_ORDER  # groups imports this module

        dim = sum(n * n for n in blocks)
        if dim > MAX_GROUP_ORDER:
            raise InvalidDataError("block algebra dimension %d exceeds the limit %d"
                                   % (dim, MAX_GROUP_ORDER))
        if trace_weights is None:
            trace_weights = [Fraction(1)] * len(blocks)
        try:
            # a string goes through the exponent guard; a number is taken as is
            trace_weights = tuple(parse_number(w) if type(w) is str else Fraction(w)
                                  for w in trace_weights)
        except (TypeError, ValueError) as exc:
            raise InvalidDataError("bad trace weight: %s" % exc)
        if len(trace_weights) != len(blocks):
            raise InvalidDataError("one trace weight per block required")
        if any(w <= 0 for w in trace_weights):
            raise InvalidDataError("trace weights must be positive")
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
                    mult[idx(b, i, j)] = {idx(b, j, l): {idx(b, i, l): one} for l in range(n)}
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


def _unit_law_check(algebra: StarAlgebra) -> Check:
    """The check ``unit_law``: 1·e_i = e_i = e_i·1 for every i, the left
    law before the right one at each i."""
    one = scalar(1)
    unit = algebra.unit

    def unit_law(side_i):
        side, i = side_i
        e = {i: one}
        prod = algebra.multiply_vec(unit, e) if side == "left" else algebra.multiply_vec(e, unit)
        return vec_eq(prod, e)

    return sweep("unit_law", ((side, i) for i in range(algebra.dim) for side in ("left", "right")),
                 unit_law)


@object_cache
def verify_star_algebra(algebra: StarAlgebra) -> Report:
    """Check associativity, unit laws and involution axioms; report violations.

    Each check sweeps its basis indices in lexicographic order and names the
    first failing one.  On the exact backend two sweeps first try a
    certificate (the nucleus lemma), and take only a pass from it, so every
    failure and its witness still come from the full sweep:
    ``associativity`` on the algebra's generators, decided once per algebra
    by :func:`_is_associative`; and ``star_antimultiplicative``, whose good
    left factors {a : (ax)* = x*a* for all x} form a subalgebra, through
    :func:`law_on_generators` (on a diagonal table: the n pairs (i, i) and
    disjoint supports of the star columns).  The float backend always runs
    the full sweeps."""
    n = algebra.dim
    one = scalar(1)
    unit = algebra.unit
    star_cols = algebra.star.cols

    def associative(ijk):
        i, j, k = ijk
        return vec_eq(algebra.multiply_vec(algebra.basis_product(i, j), {k: one}),
                      algebra.multiply_vec({i: one}, algebra.basis_product(j, k)))

    def star_antimultiplicative(ij):
        i, j = ij
        return vec_eq(algebra.star_vec(algebra.basis_product(i, j)),
                      algebra.multiply_vec(star_cols[j], star_cols[i]))

    checks = [
        _unit_law_check(algebra),
        sweep("associativity", product(range(n), repeat=3), associative,
              certificate=lambda: _is_associative(algebra)),
        sweep("star_involutive", range(n),
              lambda i: vec_eq(algebra.star_vec(algebra.star_vec({i: one})), {i: one})),
        sweep("star_antimultiplicative", product(range(n), repeat=2), star_antimultiplicative,
              certificate=lambda: law_on_generators(algebra, star_antimultiplicative,
                                                    star_cols)),
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

    return Report(algebra.label or "star-algebra", checks)


def _functional(fmap: LinearMap, vec: dict):
    return fmap.apply(vec).get(0)
