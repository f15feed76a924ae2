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

from itertools import product
from operator import itemgetter

from .algebra import (Element, InvalidDataError, StarAlgebra, _disjoint_supports, hom_check,
                      tensor_vec)
from .constructors import function_algebra
from .groups import FiniteGroup, _perm_group, group_from_table
from .hopf import QuantumGroup, dual_algebra
from .linalg import LinearMap, entry_eq, leg_apply, vec_add_into, vec_eq, vec_is_zero
from .qfamily import HopfOnTarget, QuantumFamily, check_action, is_automorphism_family
from .report import Check, Report, sweep
from .scalar import object_cache, scalar


# -- recovering the group from structure constants -----------------------------


@object_cache
def group_of_function_algebra(g: QuantumGroup) -> FiniteGroup:
    """Reconstruct Γ from fun(Γ): diagonal idempotent basis, and a group law
    in the dual table, Δ transposed (δ_x* δ_y* = δ_xy*)."""
    if not g.algebra.has_pointwise_basis():
        raise InvalidDataError("source is not the function algebra of a finite group")
    refusal = "coproduct is not a group-law coproduct"
    return group_from_table(_group_table(dual_algebra(g), refusal, refusal), g.label)


@object_cache
def group_of_group_algebra(g: QuantumGroup) -> FiniteGroup:
    """Reconstruct Γ from the group ring: monomial products, grouplike Δ."""
    n = g.dim
    table = _group_table(g.algebra, "source is not a group ring (non-monomial product)",
                         "source is not a group ring (scaled product)")
    for k in range(n):
        if not vec_eq(g.coproduct.cols[k], {k * n + k: scalar(1)}):
            raise InvalidDataError("source coproduct is not grouplike")
    return group_from_table(table, g.label)


def _group_table(a: StarAlgebra, not_monomial, scaled) -> list:
    """The table [i][j] = k of the product of ``a`` when every basis product
    e_i e_j is one basis element e_k with coefficient 1.  A product that is
    0 or has more than one term raises ``not_monomial``, one with another
    coefficient ``scaled``."""
    n = a.dim
    one = scalar(1)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        row = a.mult.get(i, {})
        for j in range(n):
            terms = row.get(j, {})
            if len(terms) != 1:
                raise InvalidDataError(not_monomial)
            (k, c), = terms.items()
            if not (c - one).is_zero():
                raise InvalidDataError(scaled)
            table[i][j] = k
    return table


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


@object_cache
def extract_matrix(qf: QuantumFamily) -> MagicMatrix:
    """Read p_{x,y} off the columns of α(δ_y) = Σ_x δ_x ⊗ p_{x,y}."""
    group = group_of_function_algebra(qf.source)
    entries = _entries_of(qf.alpha, group.order, qf.target_algebra.dim)
    return MagicMatrix(group, qf.target_algebra, entries)


# -- relation sweeps ---------------------------------------------------------------


def _sum(vectors) -> dict:
    acc: dict = {}
    for v in vectors:
        vec_add_into(acc, v)
    return acc


def _entry_checks(b: StarAlgebra, p, names):
    """The named entry relations of the matrix ``p`` of elements of ``b``, in
    the order given; shared by the pointwise, magic-unitary and dual-group
    batteries.

    On the exact backend, when ``b`` is diagonal (e_i e_j = [i = j] e_i), the
    two orthogonality sweeps take a certificate: their products are
    pointwise, so they vanish once the stated supports in each row, or each
    column, are pairwise disjoint.  A failure and its witness always come
    from the sweep."""
    n = len(p)

    def self_adjoint(xy):
        e = p[xy[0]][xy[1]]
        return vec_eq(b.star_vec(e), e)

    def idempotent(xy):
        e = p[xy[0]][xy[1]]
        return vec_eq(b.multiply_vec(e, e), e)

    def cells():
        return product(range(n), repeat=2)

    def disjoint(lines):
        # a diagonal product is pointwise: entries of disjoint supports give 0
        return b._diag and all(map(_disjoint_supports, lines))

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
            lambda w: vec_is_zero(b.multiply_vec(p[w[0]][w[1]], p[w[0]][w[2]])),
            lambda: disjoint(p)),
        "column_orthogonality": (
            ((x, y, z) for y in range(n) for x in range(n) if p[x][y]
             for z in range(n) if z != x),
            lambda w: vec_is_zero(b.multiply_vec(p[w[0]][w[1]], p[w[2]][w[1]])),
            lambda: disjoint([row[y] for row in p] for y in range(n))),
    }
    return [sweep(name, *relations[name]) for name in names]


def _commute(b: StarAlgebra, p):
    """(x1, y1, x2, y2) ↦ whether p[x1][y1] and p[x2][y2] commute."""
    return lambda w: vec_eq(b.multiply_vec(p[w[0]][w[1]], p[w[2]][w[3]]),
                            b.multiply_vec(p[w[2]][w[3]], p[w[0]][w[1]]))


@object_cache
def _commutative(b: StarAlgebra) -> bool:
    """Whether every two elements of ``b`` commute, decided once per algebra
    on its basis products: the certificate of every commutation sweep over
    entries of ``b``."""
    return b.is_commutative()


@object_cache
def check_pointwise_relations(matrix: MagicMatrix) -> Report:
    """Relations equivalent to α being a unital *-homomorphism for the
    pointwise structure, the *-map property for the convolution adjoint, and
    the convolution-homomorphism relation on the entries."""
    grp = matrix.group
    b = matrix.target
    p = matrix.entries
    n = grp.order
    inv = grp.inverse
    tbl = grp.table

    def conv_hom(xyz):
        x, y, z = xyz
        terms = (b.multiply_vec(p[u][y], p[tbl[inv[u]][x]][z]) for u in range(n) if p[u][y])
        return vec_eq(_sum(terms), p[x][tbl[y][z]])

    checks = _entry_checks(b, p, ("entries_self_adjoint", "entries_idempotent", "row_sums_one"))
    checks += [
        sweep("conv_adjoint_symmetry", product(range(n), repeat=2),
              lambda xy: vec_eq(b.star_vec(p[xy[0]][xy[1]]), p[inv[xy[0]]][inv[xy[1]]])),
        sweep("conv_hom_relation", product(range(n), repeat=3), conv_hom),
    ]
    return Report("pointwise-relations", checks)


@object_cache
def check_magic_unitary(matrix: MagicMatrix) -> Report:
    """Projections with rows and columns summing to 1 and orthogonal entries."""
    names = ("entries_projections", "column_sums_one", "row_sums_one",
             "row_orthogonality", "column_orthogonality")
    return Report("magic-unitary", _entry_checks(matrix.target, matrix.entries, names))


@object_cache
def _translation_invariant(matrix: MagicMatrix) -> bool:
    """Whether p[x][y]·p[a][b] = p[x][y]·p[xa][yb] for every nonzero p[x][y]
    and all a, b.  These are the equations of ``shift_relation``, and those
    of ``localized_relation`` under other indices; see
    :func:`check_order_properties` for the relations that follow from them.

    On a diagonal index algebra the matrix is read one point q at a time.
    Let S_q(s) be the coefficient of e_q in p[s] for a cell s of Γ×Γ, and
    L_q the cells where it is stated.  A diagonal product is pointwise and
    the scalars have no zero divisors, so the relation holds iff S_q(t·s) =
    S_q(s) for every t with S_q(t) nonzero and every cell s.  It suffices
    that S_q(t·s) is stated and equal to S_q(s) for all t and s in L_q: then
    translation by t maps the finite set of nonzero cells into itself, hence
    onto itself, so it also maps the cells where S_q is zero among
    themselves.  A stored zero coefficient only adds equations, so this is
    one-sided.  The cost is Σ|L_q|² lookups and no products.

    On any other index algebra, for each nonzero p[x][y] the n² products
    p[x][y]·p[a][b] are formed once and compared with each other; a mismatch
    stops the walk.  The product with an empty p[a][b] is empty and is taken
    as such without the kernel."""
    grp = matrix.group
    b = matrix.target
    p = matrix.entries
    n = grp.order
    tbl = grp.table
    if b._diag:
        points: dict = {}
        for x, row in enumerate(p):
            for y, e in enumerate(row):
                for q, c in e.items():
                    points.setdefault(q, {})[x, y] = c
        for at in points.values():
            cells = at.items()
            for x, y in at:
                tx, ty = tbl[x], tbl[y]
                for (a, c), s in cells:
                    moved = at.get((tx[a], ty[c]))
                    # the same scalar object, as a built family mostly states, is equal
                    if moved is not s and (moved is None or not moved == s):
                        return False
        return True
    for x in range(n):
        tx = tbl[x]
        for y in range(n):
            pxy = p[x][y]
            if not pxy:
                continue
            ty = tbl[y]
            prods = [[b.multiply_vec(pxy, e) if e else {} for e in row] for row in p]
            if not all(vec_eq(prods[a][c], prods[tx[a]][ty[c]])
                       for a in range(n) for c in range(n)):
                return False
    return True


@object_cache
def check_dualact_consequences(matrix: MagicMatrix) -> Report:
    """Identities forced on an action once it preserves the convolution
    product, replayed in the order they are derived: the localized relation,
    then the unit entry, the border row and column, and inverse symmetry.

    On the exact backend a passing :func:`_translation_invariant` passes
    ``localized_relation`` without its sweep: its equation at (u, x, y, z)
    is the translation equation at (u, y, u⁻¹x, z) with the sides swapped.
    A failure and its witness always come from the sweep."""
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
        return vec_eq(b.multiply_vec(puy, p[x][tbl[y][z]]),
                      b.multiply_vec(puy, p[tbl[inv[u]][x]][z]))

    checks = [
        sweep("localized_relation",
              ((u, x, y, z) for u in range(n) for y in range(n) if p[u][y]
               for x in range(n) for z in range(n)), localized,
              certificate=lambda: _translation_invariant(matrix)),
        Check("unit_entry", vec_eq(p[e][e], unit), ()),
        sweep("border_row", range(n), lambda y: vec_eq(p[e][y], unit if y == e else {})),
        sweep("border_column", range(n), lambda x: vec_eq(p[x][e], unit if x == e else {})),
        sweep("inverse_symmetry", product(range(n), repeat=2),
              lambda uy: vec_eq(p[inv[uy[0]]][inv[uy[1]]], p[uy[0]][uy[1]])),
    ]
    return Report("dual-action-consequences", checks)


@object_cache
def check_order_properties(matrix: MagicMatrix) -> Report:
    """Order preservation: vanishing on mismatched orders, the power
    commutations, projection domination along powers, the inductive shift
    relation, and the two-sided rewrite of the convolution relation.

    On the exact backend all but the first take a certificate.  The two
    power commutations hold when the index algebra is commutative
    (:func:`_commutative`).  The equations of ``shift_relation`` are those
    of :func:`_translation_invariant`, read point by point on a diagonal
    index algebra.  Translating k times turns p[x][y]·p[x^{k+1}][y^k u] into
    p[x][y]·p[x][u] and p[x][y]·p[x^k][y^k] into p[x][y]², so once the
    matrix is also a magic unitary (idempotent entries, orthogonal rows)
    ``inductive_relation`` and ``power_domination`` hold.  A failure and its
    witness always come from the sweep."""
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
        return vec_eq(b.multiply_vec(p[x][y], p[xn][yn]), p[x][y])

    def inductive(w):
        x, y, k, u = w
        expected = p[x][y] if u == y else {}
        return vec_eq(b.multiply_vec(p[x][y], p[pw[x][k + 1]][tbl[pw[y][k]][u]]), expected)

    def shift(w):
        x, y, z, u = w
        return vec_eq(b.multiply_vec(p[x][y], p[z][u]),
                      b.multiply_vec(p[x][y], p[tbl[x][z]][tbl[y][u]]))

    def translated_magic():
        return _translation_invariant(matrix) and check_magic_unitary(matrix).passed

    checks = [
        sweep("order_mismatch_zero", product(range(n), repeat=2),
              lambda xy: orders[xy[0]] == orders[xy[1]] or vec_is_zero(p[xy[0]][xy[1]])),
        sweep("power_row_commutation",
              ((x, y, xn, z) for x in range(n) for xn in pw[x][2:orders[x] + 2]
               for y in range(n) if p[x][y] for z in range(n) if p[xn][z]), _commute(b, p),
              certificate=lambda: _commutative(b)),
        sweep("power_column_commutation",
              ((y, x, z, xn) for x in range(n) for xn in pw[x][2:orders[x] + 2]
               for y in range(n) if p[y][x] for z in range(n) if p[z][xn]), _commute(b, p),
              certificate=lambda: _commutative(b)),
        sweep("power_domination",
              ((x, y, xn, yn) for x, y in live for xn, yn in zip(pw[x][2:], pw[y][2:])),
              dominated, certificate=translated_magic),
        sweep("inductive_relation",
              ((x, y, k, u) for x, y in live for k in range(1, exponent + 1) for u in range(n)),
              inductive, certificate=translated_magic),
        sweep("shift_relation",
              ((x, y, z, u) for x, y in live for z in range(n) for u in range(n)), shift,
              certificate=lambda: _translation_invariant(matrix)),
    ]
    return Report("order-properties", checks)


@object_cache
def check_cyclic_identity(matrix: MagicMatrix) -> Report:
    """On a cyclic group: the divisor summation identity for generators and
    full entrywise commutation of the matrix.

    On the exact backend ``entrywise_commutation`` passes without its sweep
    when the index algebra is commutative (:func:`_commutative`); a failure
    and its witness always come from the sweep."""
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
              (a1 + a2 for i, a1 in enumerate(flat) for a2 in flat[i + 1:]), _commute(b, p),
              certificate=lambda: _commutative(b)),
    ]
    return Report("cyclic-identity", checks)


# -- automorphism enumeration -------------------------------------------------------


def enumerate_automorphisms_brute(group: FiniteGroup):
    """Independent oracle: every bijection ψ with ψ(e) = e and ψ(ab) =
    ψ(a)ψ(b) for all a, b (|Γ| ≤ 8), sorted.  It reads the table and the
    identity only, with no generators or element orders.

    The bijection is built by backtracking, one image at a time in index
    order.  Each equation ψ(ab) = ψ(a)ψ(b) is checked as soon as the last of
    a, b and ab has an image, (x, x, x²) included, so no partial bijection
    that breaks one is extended."""
    n = group.order
    if n > 8:
        raise InvalidDataError("full bijection scan is limited to order 8")
    tbl = group.table
    e = group.identity
    rest = [x for x in range(n) if x != e]
    step = {e: -1} | {x: k for k, x in enumerate(rest)}
    due = [[] for _ in rest]  # per step, the (a, b, ab) whose last image it sets
    for a in rest:
        for b in rest:
            ab = tbl[a][b]
            due[max(step[a], step[b], step[ab])].append((a, b, ab))
    psi = [e] * n
    taken = {e}
    found = []

    def extend(k):
        if k == len(rest):
            found.append(tuple(psi))
            return
        for y in rest:
            if y in taken:
                continue
            psi[rest[k]] = y
            if all(psi[ab] == tbl[psi[a]][psi[b]] for a, b, ab in due[k]):
                taken.add(y)
                extend(k + 1)
                taken.discard(y)

    extend(0)
    found.sort()
    return found


@object_cache
def enumerate_automorphisms(group: FiniteGroup):
    """All group automorphisms as permutation tuples, sorted, identity first.

    Generator-image backtracking with order-profile pruning; candidate images
    of a generator must have the generator's order.
    """
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

    rows = [itemgetter(*row) for row in tbl]  # rows[a](ψ) = (ψ(a·0), ψ(a·1), ...)
    found = []
    for images in product(*candidates):
        psi = [None] * n
        psi[e] = e
        for x in bfs_order:
            px, gi = parent[x]
            psi[x] = tbl[psi[px]][images[gi]]
        at_psi = itemgetter(*psi)  # ψ(ab) = ψ(a)ψ(b) for all b, a row at a time
        if len(set(psi)) == n and all(get(psi) == at_psi(tbl[pa]) for get, pa in zip(rows, psi)):
            found.append(tuple(psi))
    return sorted(set(found))


@object_cache
def automorphism_group(group: FiniteGroup):
    """Aut(Γ) as a FiniteGroup under composition (φχ)(y) = φ(χ(y)),
    together with the sorted automorphism list the indices refer to."""
    auts = enumerate_automorphisms(group)
    return _perm_group(auts, "Aut(%s)" % (group.label or group.order)), auts


@object_cache
def universal_classical_family(group: FiniteGroup) -> QuantumFamily:
    """The family over functions on Aut(Γ) with p_{x,y} = Σ_{ψ(y)=x} δ_ψ."""
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


@object_cache
def check_dual_group_theorem(qf: QuantumFamily) -> Report:
    """Replay, in order, the proof chain showing that a convolution-preserving
    action on the dual of Γ is automatically a family of automorphisms:
    counit and coproduct of the entry matrix, idempotency, self-adjointness,
    column sums, row orthogonality, the transposed family on functions with
    the opposite coproduct, row sums, and finally the full predicate."""
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
        hom_check("transposed_family_star_hom", beta.source.algebra, beta.source.algebra,
                  beta.alpha, b=b),
        Check("transposed_family_action", action.passed, action.witness),
        sweep("transposed_counit_slice", range(n),
              lambda x: vec_eq(leg_apply(eps_b, beta.alpha.cols[x], m, 1), {x: one})),
    ]
    checks += _entry_checks(b, u, ("row_sums_one",))

    verdict, _ = is_automorphism_family(qf)
    checks.append(Check("automorphism_family", verdict, ()))

    return Report("dual-group-theorem(%s)" % qf.label, checks)
