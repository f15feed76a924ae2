"""Families over a classical finite group: the matrix of projections.

A family on the function algebra of a finite group Γ is determined by a
|Γ| x |Γ| matrix of elements of the index algebra B via
``α(δ_y) = Σ_x δ_x ⊗ p_{x,y}``.  This module extracts that matrix and sweeps
the relation systems it must satisfy: the pointwise *-homomorphism
relations, the magic-unitary conditions, the consequences forced once the
convolution product is preserved, order preservation, the cyclic-group
summation identity, and the proof chain for families on the dual of Γ.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .algebra import Element, InvalidDataError, StarAlgebra, tensor_vec
from .groups import FiniteGroup, group_from_table
from .hopf import QuantumGroup
from .linalg import LinearMap, entry_eq, leg_apply, vec_add_into, vec_eq, vec_is_zero
from .qfamily import (HopfOnTarget, QuantumFamily, check_action, hom_indices,
                      hom_predicate, is_automorphism_family)
from .report import Check, Report, sweep
from .scalar import backend_cached, scalar


# -- recovering the group from structure constants -----------------------------


def group_of_function_algebra(g: QuantumGroup) -> FiniteGroup:
    """Reconstruct Γ from fun(Γ): diagonal idempotent basis, group law in Δ."""
    cached = g._cache.get("function_group")
    if cached is not None:
        return cached
    a = g.algebra
    if not a.has_pointwise_basis():
        raise InvalidDataError("source is not the function algebra of a finite group")
    n = a.dim
    table = [[None] * n for _ in range(n)]
    for k in range(n):
        for r, c in g.coproduct.cols[k].items():
            i, j = divmod(r, n)
            one = scalar(1)
            if not (c - one).is_zero() or table[i][j] is not None:
                raise InvalidDataError("coproduct is not a group-law coproduct")
            table[i][j] = k
    if any(x is None for row in table for x in row):
        raise InvalidDataError("coproduct is not a group-law coproduct")
    group = group_from_table(table, g.label)
    g._cache["function_group"] = group
    return group


def group_of_group_algebra(g: QuantumGroup) -> FiniteGroup:
    """Reconstruct Γ from the group ring: monomial products, grouplike Δ."""
    cached = g._cache.get("ring_group")
    if cached is not None:
        return cached
    a = g.algebra
    n = a.dim
    one = scalar(1)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms = a.mult.get((i, j), {})
            if len(terms) != 1:
                raise InvalidDataError("source is not a group ring (non-monomial product)")
            (k, c), = terms.items()
            if not (c - one).is_zero():
                raise InvalidDataError("source is not a group ring (scaled product)")
            table[i][j] = k
    for k in range(n):
        if not vec_eq(g.coproduct.cols[k], {k * n + k: one}):
            raise InvalidDataError("source coproduct is not grouplike")
    group = group_from_table(table, g.label)
    g._cache["ring_group"] = group
    return group


# -- the matrix of a family ------------------------------------------------------


class MagicMatrix:
    """|Γ| x |Γ| array of index-algebra elements p[x][y] attached to a family."""

    __slots__ = ("group", "target", "entries", "_cache")

    def __init__(self, group: FiniteGroup, target: StarAlgebra, entries):
        n = group.order
        if len(entries) != n or any(len(row) != n for row in entries):
            raise InvalidDataError("matrix must be %d x %d" % (n, n))
        rows = []
        for row in entries:
            rows.append(tuple(e.coeffs if isinstance(e, Element) else dict(e)
                              for e in row))
        self.group = group
        self.target = target
        self.entries = tuple(rows)
        self._cache = {}

    def element(self, x: int, y: int) -> Element:
        return Element(self.target, dict(self.entries[x][y]))

    def __repr__(self):
        return "MagicMatrix(order=%d, target=%r)" % (self.group.order, self.target.label)


def _entries_of(alpha: LinearMap, n: int, m: int):
    """p[x][y] with α(e_y) = Σ_x e_x ⊗ p[x][y], for α from dimension n into n·m."""
    entries = [[dict() for _ in range(n)] for _ in range(n)]
    for y in range(n):
        for r, c in alpha.cols[y].items():
            x, q = divmod(r, m)
            entries[x][y][q] = c
    return entries


def extract_matrix(qf: QuantumFamily) -> MagicMatrix:
    """Read p_{x,y} off the columns of α(δ_y) = Σ_x δ_x ⊗ p_{x,y}."""
    cached = qf._cache.get("magic_matrix")
    if cached is not None:
        return cached
    group = group_of_function_algebra(qf.source)
    entries = _entries_of(qf.alpha, group.order, qf.target_algebra.dim)
    matrix = MagicMatrix(group, qf.target_algebra, entries)
    qf._cache["magic_matrix"] = matrix
    return matrix


# -- relation sweeps ---------------------------------------------------------------


def _mul(b: StarAlgebra, u: dict, v: dict) -> dict:
    if not u or not v:
        return {}
    return b.multiply_vec(u, v)


def _sum(vectors) -> dict:
    acc: dict = {}
    for v in vectors:
        vec_add_into(acc, v)
    return acc


def _entry_checks(b: StarAlgebra, p, names):
    """The named entry relations of the matrix ``p`` of elements of ``b``, in
    the order given; shared by the pointwise, magic-unitary and dual-group
    batteries."""
    n = len(p)

    def self_adjoint(xy):
        e = p[xy[0]][xy[1]]
        return vec_eq(b.star_vec(e), e)

    def idempotent(xy):
        e = p[xy[0]][xy[1]]
        return vec_eq(_mul(b, e, e), e)

    def cells():
        return product(range(n), repeat=2)

    # lazy index generators: each sweep stops at its first failure
    relations = {
        "entries_self_adjoint": (cells(), self_adjoint),
        "entries_idempotent": (cells(), idempotent),
        "entries_projections": (cells(), lambda xy: self_adjoint(xy) and idempotent(xy)),
        "row_sums_one": (range(n), lambda x: vec_eq(_sum(p[x]), b.unit)),
        "column_sums_one": (range(n), lambda y: vec_eq(_sum(row[y] for row in p), b.unit)),
        "row_orthogonality": (
            ((x, y, z) for x in range(n) for y in range(n) if p[x][y]
             for z in range(n) if z != y),
            lambda w: vec_is_zero(_mul(b, p[w[0]][w[1]], p[w[0]][w[2]]))),
        "column_orthogonality": (
            ((x, y, z) for y in range(n) for x in range(n) if p[x][y]
             for z in range(n) if z != x),
            lambda w: vec_is_zero(_mul(b, p[w[0]][w[1]], p[w[2]][w[1]]))),
    }
    return [sweep(name, *relations[name]) for name in names]


def _commute(b: StarAlgebra, p):
    """(x1, y1, x2, y2) ↦ whether p[x1][y1] and p[x2][y2] commute."""
    return lambda w: vec_eq(_mul(b, p[w[0]][w[1]], p[w[2]][w[3]]),
                            _mul(b, p[w[2]][w[3]], p[w[0]][w[1]]))


def check_pointwise_relations(matrix: MagicMatrix) -> Report:
    """Relations equivalent to α being a unital *-homomorphism for the
    pointwise structure, the *-map property for the convolution adjoint, and
    the convolution-homomorphism relation on the entries."""
    cached = matrix._cache.get("pointwise")
    if cached is not None:
        return cached
    grp = matrix.group
    b = matrix.target
    p = matrix.entries
    n = grp.order
    inv = grp.inverse
    tbl = grp.table

    def conv_hom(xyz):
        x, y, z = xyz
        terms = (_mul(b, p[u][y], p[tbl[inv[u]][x]][z]) for u in range(n) if p[u][y])
        return vec_eq(_sum(terms), p[x][tbl[y][z]])

    checks = _entry_checks(b, p, ("entries_self_adjoint", "entries_idempotent", "row_sums_one"))
    checks += [
        sweep("conv_adjoint_symmetry", product(range(n), repeat=2),
              lambda xy: vec_eq(b.star_vec(p[xy[0]][xy[1]]), p[inv[xy[0]]][inv[xy[1]]])),
        sweep("conv_hom_relation", product(range(n), repeat=3), conv_hom),
    ]
    report = Report("pointwise-relations", checks)
    matrix._cache["pointwise"] = report
    return report


def check_magic_unitary(matrix: MagicMatrix) -> Report:
    """Projections with rows and columns summing to 1 and orthogonal entries."""
    cached = matrix._cache.get("magic")
    if cached is not None:
        return cached
    names = ("entries_projections", "column_sums_one", "row_sums_one",
             "row_orthogonality", "column_orthogonality")
    report = Report("magic-unitary", _entry_checks(matrix.target, matrix.entries, names))
    matrix._cache["magic"] = report
    return report


def check_dualact_consequences(matrix: MagicMatrix) -> Report:
    """Identities forced on an action once it preserves the convolution
    product, replayed in the order they are derived: the localized relation,
    then the unit entry, the border row and column, and inverse symmetry."""
    cached = matrix._cache.get("dualact")
    if cached is not None:
        return cached
    grp = matrix.group
    b = matrix.target
    p = matrix.entries
    n = grp.order
    inv = grp.inverse
    tbl = grp.table
    e = grp.identity
    unit = b.unit

    def localized(w):
        u, x, y, z = w
        puy = p[u][y]
        return vec_eq(_mul(b, puy, p[x][tbl[y][z]]), _mul(b, puy, p[tbl[inv[u]][x]][z]))

    checks = [
        sweep("localized_relation",
              ((u, x, y, z) for u in range(n) for y in range(n) if p[u][y]
               for x in range(n) for z in range(n)), localized),
        Check("unit_entry", vec_eq(p[e][e], unit), ()),
        sweep("border_row", range(n), lambda y: vec_eq(p[e][y], unit if y == e else {})),
        sweep("border_column", range(n), lambda x: vec_eq(p[x][e], unit if x == e else {})),
        sweep("inverse_symmetry", product(range(n), repeat=2),
              lambda uy: vec_eq(p[inv[uy[0]]][inv[uy[1]]], p[uy[0]][uy[1]])),
    ]
    report = Report("dual-action-consequences", checks)
    matrix._cache["dualact"] = report
    return report


def check_order_properties(matrix: MagicMatrix) -> Report:
    """Order preservation: vanishing on mismatched orders, the power
    commutations, projection domination along powers, the inductive shift
    relation, and the two-sided rewrite of the convolution relation."""
    cached = matrix._cache.get("order")
    if cached is not None:
        return cached
    grp = matrix.group
    b = matrix.target
    p = matrix.entries
    n = grp.order
    tbl = grp.table
    orders = [grp.element_order(x) for x in range(n)]
    exponent = grp.exponent()
    # pw[x][k] = x^k for k <= exponent + 1; powers of x cycle with period
    # ord(x), so pw[x][2:ord(x) + 2] runs over all of them
    pw = [[grp.identity] for _ in range(n)]
    for x in range(n):
        for _ in range(exponent + 1):
            pw[x].append(tbl[pw[x][-1]][x])
    live = [(x, y) for x in range(n) for y in range(n) if p[x][y]]

    def dominated(w):
        x, y, xn, yn = w
        return vec_eq(_mul(b, p[x][y], p[xn][yn]), p[x][y])

    def inductive(w):
        x, y, k, u = w
        expected = p[x][y] if u == y else {}
        return vec_eq(_mul(b, p[x][y], p[pw[x][k + 1]][tbl[pw[y][k]][u]]), expected)

    def shift(w):
        x, y, z, u = w
        return vec_eq(_mul(b, p[x][y], p[z][u]), _mul(b, p[x][y], p[tbl[x][z]][tbl[y][u]]))

    checks = [
        sweep("order_mismatch_zero", product(range(n), repeat=2),
              lambda xy: orders[xy[0]] == orders[xy[1]] or vec_is_zero(p[xy[0]][xy[1]])),
        sweep("power_row_commutation",
              ((x, y, xn, z) for x in range(n) for xn in pw[x][2:orders[x] + 2]
               for y in range(n) if p[x][y] for z in range(n) if p[xn][z]), _commute(b, p)),
        sweep("power_column_commutation",
              ((y, x, z, xn) for x in range(n) for xn in pw[x][2:orders[x] + 2]
               for y in range(n) if p[y][x] for z in range(n) if p[z][xn]), _commute(b, p)),
        sweep("power_domination",
              ((x, y, xn, yn) for x, y in live for xn, yn in zip(pw[x][2:], pw[y][2:])),
              dominated),
        sweep("inductive_relation",
              ((x, y, k, u) for x, y in live for k in range(1, exponent + 1) for u in range(n)),
              inductive),
        sweep("shift_relation",
              ((x, y, z, u) for x, y in live for z in range(n) for u in range(n)), shift),
    ]
    report = Report("order-properties", checks)
    matrix._cache["order"] = report
    return report


def check_cyclic_identity(matrix: MagicMatrix) -> Report:
    """On a cyclic group: the divisor summation identity for generators and
    full entrywise commutation of the matrix."""
    cached = matrix._cache.get("cyclic")
    if cached is not None:
        return cached
    grp = matrix.group
    n = grp.order
    generators = [x for x in range(n) if grp.element_order(x) == n]
    if not generators:
        raise InvalidDataError("cyclic identity needs a cyclic group")
    b = matrix.target
    p = matrix.entries
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def power_sum(w):
        x, d, s = w
        sd = grp.power(s, d)
        acc = _sum(p[x][v] for v in range(n) if grp.power(v, d) == sd)
        return vec_eq(acc, p[grp.power(x, d)][sd])

    flat = [(x, y) for x in range(n) for y in range(n) if p[x][y]]
    checks = [
        sweep("power_sum_identity",
              ((x, d, s) for x in generators for d in divisors for s in range(n)), power_sum),
        sweep("entrywise_commutation",
              (a1 + a2 for i, a1 in enumerate(flat) for a2 in flat[i + 1:]), _commute(b, p)),
    ]
    report = Report("cyclic-identity", checks)
    matrix._cache["cyclic"] = report
    return report


# -- automorphism enumeration -------------------------------------------------------


def enumerate_automorphisms_brute(group: FiniteGroup):
    """Independent oracle: scan all bijections fixing the identity (|Γ| ≤ 8)."""
    from itertools import permutations

    n = group.order
    if n > 8:
        raise InvalidDataError("full bijection scan is limited to order 8")
    tbl = group.table
    e = group.identity
    rest = [x for x in range(n) if x != e]
    found = []
    for images in permutations(rest):
        psi = [0] * n
        psi[e] = e
        for pos, x in enumerate(rest):
            psi[x] = images[pos]
        ok = True
        for a in range(n):
            pa = psi[a]
            row = tbl[a]
            for bb in range(n):
                if psi[row[bb]] != tbl[pa][psi[bb]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(psi))
    found.sort()
    return found


@lru_cache(maxsize=None)
def _enumerate_cached(group: FiniteGroup):
    n = group.order
    if n > 24:
        raise InvalidDataError("automorphism enumeration is limited to order 24")
    tbl = group.table
    e = group.identity
    gens = group.generating_sequence()
    if not gens:
        return [(0,)] if n == 1 else []

    # express every element as parent * generator via BFS, so a candidate
    # image tuple for the generators determines the whole map
    parent = {e: None}
    bfs_order = []
    frontier = [e]
    while frontier:
        fresh = []
        for x in frontier:
            for gi, gval in enumerate(gens):
                y = tbl[x][gval]
                if y not in parent:
                    parent[y] = (x, gi)
                    bfs_order.append(y)
                    fresh.append(y)
        frontier = fresh

    order_of = [group.element_order(x) for x in range(n)]
    candidates = [[y for y in range(n) if order_of[y] == order_of[g]] for g in gens]

    found = []

    from itertools import product as iproduct

    for images in iproduct(*candidates):
        psi = [None] * n
        psi[e] = e
        for x in bfs_order:
            px, gi = parent[x]
            psi[x] = tbl[psi[px]][images[gi]]
        if len(set(psi)) != n:
            continue
        ok = True
        for a in range(n):
            pa = psi[a]
            row = tbl[a]
            for bb in range(n):
                if psi[row[bb]] != tbl[pa][psi[bb]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(psi))
    found = sorted(set(found))
    return found


def enumerate_automorphisms(group: FiniteGroup):
    """All group automorphisms as permutation tuples, sorted, identity first.

    Generator-image backtracking with order-profile pruning; candidate images
    of a generator must have the generator's order.
    """
    return list(_enumerate_cached(group))


def automorphism_group(group: FiniteGroup):
    """Aut(Γ) as a FiniteGroup under composition (φχ)(y) = φ(χ(y)),
    together with the sorted automorphism list the indices refer to."""
    cached = group._cache.get("aut_group")
    if cached is not None:
        return cached
    auts = enumerate_automorphisms(group)
    index = {psi: i for i, psi in enumerate(auts)}
    k = len(auts)
    table = [[0] * k for _ in range(k)]
    for i, phi in enumerate(auts):
        for j, chi in enumerate(auts):
            table[i][j] = index[tuple(phi[chi[y]] for y in range(group.order))]
    aut = group_from_table(table, "Aut(%s)" % (group.label or group.order))
    result = (aut, auts)
    group._cache["aut_group"] = result
    return result


@backend_cached
def universal_classical_family(group: FiniteGroup) -> QuantumFamily:
    """The family over functions on Aut(Γ) with p_{x,y} = Σ_{ψ(y)=x} δ_ψ."""
    from .constructors import function_algebra

    aut, auts = automorphism_group(group)
    fun = function_algebra(group)
    fun_aut = function_algebra(aut)
    n = group.order
    m = aut.order
    one = scalar(1)
    cols = []
    for y in range(n):
        col = {}
        for idx, psi in enumerate(auts):
            col[psi[y] * m + idx] = one
        cols.append(col)
    alpha = LinearMap(n, n * m, cols)
    hopf = HopfOnTarget(fun_aut.coproduct, fun_aut.counit)
    return QuantumFamily(fun, fun_aut.algebra, alpha, hopf,
                         "universal(%s)" % (group.label or group.order))


# -- families on the dual of a classical group ----------------------------------------


def check_dual_group_theorem(qf: QuantumFamily) -> Report:
    """Replay, in order, the proof chain showing that a convolution-preserving
    action on the dual of Γ is automatically a family of automorphisms:
    counit and coproduct of the entry matrix, idempotency, self-adjointness,
    column sums, row orthogonality, the transposed family on functions with
    the opposite coproduct, row sums, and finally the full predicate."""
    cached = qf._cache.get("dual_group_theorem")
    if cached is not None:
        return cached
    if qf.hopf_on_target is None:
        raise InvalidDataError("the dual-group check needs Hopf data on the index algebra")
    group = group_of_group_algebra(qf.source)
    n = group.order
    b = qf.target_algebra
    m = b.dim
    eps_b = qf.hopf_on_target.counit
    cp_b = qf.hopf_on_target.coproduct
    one = scalar(1)
    u = _entries_of(qf.alpha, n, m)  # α(λ_x) = Σ_y λ_y ⊗ u_{y,x}

    def coproduct_of_entries(xy):
        x, y = xy
        rhs: dict = {}
        for z in range(n):
            vec_add_into(rhs, tensor_vec(u[x][z], u[z][y], m))
        return vec_eq(cp_b.apply(u[x][y]), rhs)

    checks = [
        sweep("counit_of_entries", product(range(n), repeat=2),
              lambda yx: entry_eq(eps_b.apply(u[yx[0]][yx[1]]).get(0),
                                  one if yx[0] == yx[1] else None)),
        sweep("coproduct_of_entries", product(range(n), repeat=2), coproduct_of_entries),
    ]
    checks += _entry_checks(b, u, ("entries_idempotent", "entries_self_adjoint",
                                   "column_sums_one", "row_orthogonality"))

    # transposed family on functions over Γ, against the opposite coproduct
    from .constructors import function_algebra

    beta_cols = []
    for x in range(n):
        col = {}
        for y in range(n):
            for q, c in u[x][y].items():
                col[y * m + q] = c
        beta_cols.append(col)
    beta = QuantumFamily(function_algebra(group), b, LinearMap(n, n * m, beta_cols),
                         qf.hopf_on_target.opposite(), "beta(%s)" % qf.label)
    action = check_action(beta).checks[0]
    checks += [
        sweep("transposed_family_star_hom", hom_indices(n), hom_predicate(beta)),
        Check("transposed_family_action", action.passed, action.witness),
        sweep("transposed_counit_slice", range(n),
              lambda x: vec_eq(leg_apply(eps_b, beta.alpha.cols[x], m, 1), {x: one})),
    ]
    checks += _entry_checks(b, u, ("row_sums_one",))

    verdict, _ = is_automorphism_family(qf)
    checks.append(Check("automorphism_family", verdict, ()))

    report = Report("dual-group-theorem(%s)" % qf.label, checks)
    qf._cache["dual_group_theorem"] = report
    return report
