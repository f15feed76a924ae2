"""Finite groups as validated multiplication tables.

Convention: the identity has index 0 and the basis order is fixed by the
input table, which keeps every derived file format deterministic.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter

from .algebra import InvalidDataError, exact_int
from .report import first_failure

# Largest group order accepted: the multiplication table has order**2 cells.
# S4 x S4 (576) still fits.
MAX_GROUP_ORDER = 1024


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise InvalidDataError("group order %d exceeds the limit %d" % (n, MAX_GROUP_ORDER))


class FiniteGroup:
    __slots__ = ("order", "table", "identity", "inverse", "label", "_cache")

    def __init__(self, table, label=""):
        table = tuple(tuple(exact_int(x, "group table entry") for x in row) for row in table)
        n = len(table)
        if n == 0:
            raise InvalidDataError("empty multiplication table")
        rng = set(range(n))
        for row in table:
            if len(row) != n or set(row) != rng:
                raise InvalidDataError("table is not a Latin square (row defect)")
        for col in zip(*table):
            if set(col) != rng:
                raise InvalidDataError("table is not a Latin square (column defect)")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidDataError("no identity element")
        if not _associative(table, _generators(table, identity)):
            raise InvalidDataError(
                "multiplication is not associative at (%d, %d, %d)" % first_failure(
                    product(range(n), repeat=3),
                    lambda abc: table[table[abc[0]][abc[1]]][abc[2]]
                    == table[abc[0]][table[abc[1]][abc[2]]]))
        inverse = []
        for a, row in enumerate(table):
            b = row.index(identity)  # the one b with a·b = e, as rows are Latin
            if table[b][a] != identity:
                raise InvalidDataError("element %d has no inverse" % a)
            inverse.append(b)
        self.order = n
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.label = label
        self._cache = {}

    @classmethod
    def _trusted(cls, table, identity, inverse, label="") -> "FiniteGroup":
        """A group whose table (tuples of int tuples), identity and inverses
        are known to be right, taken without any check."""
        g = cls.__new__(cls)
        g.order = len(table)
        g.table = table
        g.identity = identity
        g.inverse = inverse
        g.label = label
        g._cache = {}
        return g

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        x = self.identity
        for _ in range(k):
            x = self.table[x][a]
        return x

    def element_order(self, a: int) -> int:
        orders = self._cache.get("orders")
        if orders is None:
            orders = [None] * self.order
            for g in range(self.order):
                x = g
                k = 1
                while x != self.identity:
                    x = self.table[x][g]
                    k += 1
                orders[g] = k
            self._cache["orders"] = orders
        return orders[a]

    def exponent(self) -> int:
        exp = 1
        for g in range(self.order):
            exp = math.lcm(exp, self.element_order(g))
        return exp

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def generating_sequence(self):
        """A small generating list found greedily by closing subgroups."""
        return _generators(self.table, self.identity)

    def __repr__(self):
        return "FiniteGroup(%r, order=%d)" % (self.label, self.order)


def _generators(table, identity):
    """A generating list of the magma with this table, found greedily: the
    least element outside the closure of the ones before it.  Each closure
    grows from the last one, so only products with a new element are formed,
    O(n^2) in all."""
    n = len(table)
    cols = list(zip(*table))
    gens = []
    elems = {identity}
    while len(elems) < n:
        g = next(x for x in range(n) if x not in elems)
        gens.append(g)
        frontier = {g}
        while frontier:
            elems |= frontier
            pick = itemgetter(*elems)  # two or more items, so it returns a tuple
            fresh = set()
            for a in frontier:
                fresh.update(pick(table[a]), pick(cols[a]))  # a·b and b·a
            frontier = fresh - elems
    return gens


def _associative(table, gens) -> bool:
    """Light's associativity test: (x·a)·y = x·(a·y) for every x, y and every
    generator a.  The elements a passing it are closed under the product, so
    the whole table is associative iff the generators pass: O(n^2) per
    generator instead of O(n^3)."""
    for a in gens:
        times_a = itemgetter(*table[a])  # n >= 2 items, so it returns a tuple
        for x, row_x in enumerate(table):
            # row x at the columns a·y holds x·(a·y) for every y
            if table[row_x[a]] != times_a(row_x):
                return False
    return True


def group_from_table(table, label="") -> FiniteGroup:
    """Validate a multiplication table and reindex so the identity is 0."""
    _check_order(len(table))
    g = FiniteGroup(table, label)
    if g.identity == 0:
        return g
    n = g.order
    perm = [g.identity] + [x for x in range(n) if x != g.identity]
    pos = {x: i for i, x in enumerate(perm)}
    table2 = [[pos[g.table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
    return FiniteGroup(table2, label)


def _perm_group(perms, label) -> FiniteGroup:
    """Group of permutation tuples, sorted so the identity lands at index 0."""
    perms = sorted(set(perms))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i][j] = index[tuple(p[q[k]] for k in range(len(q)))]
    return group_from_table(table, label)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidDataError("cyclic group order must be >= 1")
    _check_order(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, "Z%d" % n)


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise InvalidDataError("symmetric groups supported up to n=4")
    return _perm_group(permutations(range(n)), "S%d" % n)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon (order 2n), built from the product
    rule.  The element (k, d), k in Z_n and d = ±1, is the vertex map
    i -> k + d·i mod n, and (k1, d1)(k2, d2) = (k1 + d1·k2 mod n, d1·d2),
    the composite of the two maps.  A vertex tuple is fixed by its images of
    0 and 1, which are k and k + d, so sorting by that pair lists the
    elements in the order of the sorted tuples, as :func:`_perm_group` would:
    the identity (0, 1) comes first."""
    # the vertex permutation action is only faithful from n = 3 on
    if n < 3:
        raise InvalidDataError("dihedral requires n >= 3")
    _check_order(2 * n)
    elems = sorted(((k, d) for k in range(n) for d in (1, -1)),
                   key=lambda e: (e[0], (e[0] + e[1]) % n))
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[(k1 + d1 * k2) % n, d1 * d2] for k2, d2 in elems] for k1, d1 in elems]
    return group_from_table(table, "D%d" % n)


def quaternion8() -> FiniteGroup:
    """The eight unit quaternions {±1, ±i, ±j, ±k}."""
    # element = (sign, axis) with axes 0:1, 1:i, 2:j, 3:k
    axis_mult = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    elems = [(s, a) for a in range(4) for s in (1, -1)]
    elems.sort(key=lambda e: (e[1] != 0, e[1], e[0] < 0))
    index = {e: i for i, e in enumerate(elems)}
    table = [[0] * 8 for _ in range(8)]
    for i, (s1, a1) in enumerate(elems):
        for j, (s2, a2) in enumerate(elems):
            s3, a3 = axis_mult[(a1, a2)]
            table[i][j] = index[(s1 * s2 * s3, a3)]
    return group_from_table(table, "Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """a x b on the pairs (i, j) = i·|b| + j.  The product of two groups is
    a group, so its table, identity and inverses are built, not validated
    again; where the identity is not index 0, the table goes through
    :func:`group_from_table` to be reindexed."""
    n, m = a.order, b.order
    _check_order(n * m)
    table = tuple(tuple(x * m + y for x in ra for y in rb) for ra in a.table for rb in b.table)
    label = "%sx%s" % (a.label or "?", b.label or "?")
    identity = a.identity * m + b.identity
    if identity != 0:
        return group_from_table(table, label)
    return FiniteGroup._trusted(table, identity, tuple(
        x * m + y for x in a.inverse for y in b.inverse), label)


def klein4() -> FiniteGroup:
    g = direct_product(cyclic(2), cyclic(2))
    g.label = "K4"
    return g


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d{0,9})$")


@lru_cache(maxsize=None)
def named_group(name: str) -> FiniteGroup:
    """Catalog lookup: Zn/Cn, Sn (n<=4), Dn (order 2n), Q8, K4, and x-products."""
    text = name.strip()
    if "x" in text or "X" in text:
        parts = re.split("[xX]", text)
        groups = [named_group(p) for p in parts]
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        return out
    m = _NAME_RE.match(text)
    if not m:
        raise InvalidDataError("unknown group name %r" % name)
    kind = m.group(1).upper()
    num = int(m.group(2)) if m.group(2) else None
    if kind in ("Z", "C") and num is not None:
        return cyclic(num)
    if kind == "S" and num is not None:
        return symmetric(num)
    if kind == "D" and num is not None:
        return dihedral(num)
    if kind == "Q" and num == 8:
        return quaternion8()
    if (kind == "K" and num == 4) or kind == "KLEIN":
        return klein4()
    if kind == "TRIVIAL" or (kind in ("Z", "C") and num == 1):
        return cyclic(1)
    raise InvalidDataError("unknown group name %r" % name)


CATALOG = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "K4", "S3", "S4", "D4", "Q8")
