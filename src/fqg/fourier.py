"""Convolution calculus, the Fourier transform, and the dual quantum group.

The dual is built on the abstract dual basis {e_i*} (NOT on the image basis
of the Fourier transform), so the transform identities stay falsifiable.
The double dual is identified with the original coefficient space through
the evaluation pairing, which on these coordinates is the identity matrix.
"""

from __future__ import annotations

from itertools import product

from .algebra import InvalidDataError, Element, StarAlgebra
from .hopf import QuantumGroup, verify_quantum_group
from .linalg import LinearMap, entry_eq, vec_add_into, vec_eq, vec_scale
from .report import Check, Report, sweep
from .scalar import scalar


# -- convolution --------------------------------------------------------------


def pair_haar(g: QuantumGroup) -> dict:
    """Sparse table {(i, j): h(e_i e_j)}; also the Fourier matrix entries."""
    cached = g._cache.get("pair_haar")
    if cached is not None:
        return cached
    table = {}
    for (i, j), terms in g.algebra.mult.items():
        v = g.haar_of(terms)
        if v is not None and not v.is_zero():
            table[(i, j)] = v
    g._cache["pair_haar"] = table
    return table


def conv_table(g: QuantumGroup) -> dict:
    """Structure constants of the convolution product: (i, j) -> sparse vector.

    e_i ⋆ e_j = (h⊗id)(((S⊗id)Δ(e_j))(e_i⊗1)); with the second leg untouched
    this contracts to sum over Δ(e_j) terms (a, b) of h(S(e_a) e_i) e_b.
    """
    cached = g._cache.get("conv_table")
    if cached is not None:
        return cached
    n = g.dim
    anti = g.antipode
    ph = pair_haar(g)
    table = {}
    for j in range(n):
        terms = []  # (b, a', coefficient) with a' running over S(e_a)
        for r, c in g.coproduct.cols[j].items():
            a, b = divmod(r, n)
            for a2, s in anti.cols[a].items():
                terms.append((b, a2, c * s))
        for i in range(n):
            acc: dict = {}
            for b, a2, cs in terms:
                hval = ph.get((a2, i))
                if hval is None:
                    continue
                cur = acc.get(b)
                t = cs * hval if cur is None else cur + cs * hval
                if t.is_zero():
                    acc.pop(b, None)
                else:
                    acc[b] = t
            if acc:
                table[(i, j)] = acc
    g._cache["conv_table"] = table
    return table


def conv_vec(g: QuantumGroup, u: dict, v: dict) -> dict:
    table = conv_table(g)
    acc: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            terms = table.get((i, j))
            if terms is None:
                continue
            vec_add_into(acc, terms, ci * cj)
    return acc


def convolve(g: QuantumGroup, x: Element, y: Element) -> Element:
    """Convolution product of two elements of the function algebra."""
    return Element(g.algebra, conv_vec(g, x.coeffs, y.coeffs))


def conv_adjoint(g: QuantumGroup, x: Element) -> Element:
    """The convolution adjoint a ↦ S(a*)."""
    return Element(g.algebra, g.bullet_vec(x.coeffs))


# -- duality -------------------------------------------------------------------


class DualPair:
    """A quantum group, its dual, and the Fourier transforms between them."""

    __slots__ = ("primal", "dual", "fourier", "fourier_inv", "fourier_dual")

    def __init__(self, primal, dual, fourier, fourier_inv, fourier_dual):
        self.primal = primal
        self.dual = dual
        self.fourier = fourier
        self.fourier_inv = fourier_inv
        self.fourier_dual = fourier_dual

    def __repr__(self):
        return "DualPair(%r)" % (self.primal.label,)


def build_dual(g: QuantumGroup, verify: bool = True) -> DualPair:
    """Construct the dual quantum group on the dual basis {e_i*}.

    Dual product is convolution of functionals, dual coproduct is dual to
    multiplication, the dual Haar state is normalized to be a state.
    """
    n = g.dim
    one = scalar(1)
    a = g.algebra

    ph = pair_haar(g)
    f_cols = [dict() for _ in range(n)]
    for (i, j), v in ph.items():
        f_cols[j][i] = v
    fourier = LinearMap(n, n, f_cols, source=g.label, target="dual(%s)" % g.label)
    try:
        fourier_inv = fourier.inverse()
    except ValueError:
        raise InvalidDataError("fourier matrix is singular; haar state is not faithful")

    # product: (e_i* e_j*)(e_k) = Δ(e_k) at (i, j)
    mult = {}
    for k in range(n):
        for r, c in g.coproduct.cols[k].items():
            i, j = divmod(r, n)
            mult.setdefault((i, j), {})[k] = c

    # unit of the dual is the counit of the primal
    unit = {i: v for i, v in ((i, g.counit.cols[i].get(0)) for i in range(n)) if v is not None}

    # (e_i*)*(e_j) = conj( (S e_j)* evaluated at i )
    star_cols = [dict() for _ in range(n)]
    for j in range(n):
        w = a.star_vec(g.antipode.cols[j])
        for i, c in w.items():
            star_cols[i][j] = c.conj()
    dual_star = LinearMap(n, n, star_cols)

    # coproduct dual to multiplication: Δ̂(e_k*)(e_i⊗e_j) = e_k*(e_i e_j)
    delta_cols = [dict() for _ in range(n)]
    for (i, j), terms in a.mult.items():
        r = i * n + j
        for k, c in terms.items():
            delta_cols[k][r] = c
    dual_delta = LinearMap(n, n * n, delta_cols)

    # counit: evaluation at the unit
    dual_counit = LinearMap(n, 1, [{0: c} if (c := a.unit.get(i)) is not None else {}
                                   for i in range(n)])

    dual_antipode = g.antipode.transpose()

    # haar: ĥ(F(a)) = h(η) ε(a), normalized to a state
    h_eta = g.haar_of_eta()
    dual_haar = g.counit.compose(fourier_inv).scale(h_eta)

    dual_eta = fourier.apply(a.unit)

    dual_algebra = StarAlgebra(n, mult, unit, dual_star, "dual(%s)" % g.label)
    dual = QuantumGroup(dual_algebra, dual_delta, dual_counit, dual_antipode,
                        dual_haar, dual_eta, "dual(%s)" % g.label)

    if verify:
        rep = verify_quantum_group(dual)
        if not rep.passed:
            raise InvalidDataError(
                "dual construction failed verification (%s); primal data is invalid"
                % ", ".join(rep.failed_names()))
        h_eta_dual = dual.haar_of_eta()
        if not (h_eta_dual - h_eta).is_zero():
            raise InvalidDataError("dual haar element value mismatch")
        expected_unit = vec_scale(fourier.apply(g.haar_element), h_eta.inv())
        if not vec_eq(expected_unit, unit):
            raise InvalidDataError("dual unit disagrees with F(eta)/h(eta)")

    ph_dual = pair_haar(dual)
    fd_cols = [dict() for _ in range(n)]
    for (i, j), v in ph_dual.items():
        fd_cols[j][i] = v
    fourier_dual = LinearMap(n, n, fd_cols, source=dual.label, target=g.label)

    return DualPair(g, dual, fourier, fourier_inv, fourier_dual)


def dual_pair(g: QuantumGroup, verify: bool = True) -> DualPair:
    """Cached dual pair for a quantum group."""
    cached = g._cache.get("dual_pair")
    if cached is None:
        cached = build_dual(g, verify)
        g._cache["dual_pair"] = cached
    return cached


# -- identity batteries ---------------------------------------------------------


def verify_fourier_identities(pair: DualPair) -> Report:
    """The transform identities relating ⋆, the adjoints and the antipodes."""
    cache = pair.primal._cache
    cached = cache.get("fourier_identities")
    if cached is not None:
        return cached

    g, d = pair.primal, pair.dual
    n = g.dim
    fr = pair.fourier
    ct = conv_table(g)
    ct_dual = conv_table(d)
    h_eta = g.haar_of_eta()
    one = scalar(1)

    def dual_convolution(ij):
        i, j = ij
        lhs = vec_scale(fr.apply(g.algebra.basis_product(i, j)), h_eta)
        rhs: dict = {}
        for p, cp in fr.cols[j].items():
            for q, cq in fr.cols[i].items():
                terms = ct_dual.get((p, q))
                if terms is not None:
                    vec_add_into(rhs, terms, cp * cq)
        return vec_eq(lhs, rhs)

    checks = [
        sweep("fourier_convolution", product(range(n), repeat=2),
              lambda ij: vec_eq(fr.apply(ct.get(ij, {})),
                                d.algebra.multiply_vec(fr.cols[ij[0]], fr.cols[ij[1]]))),
        sweep("fourier_star", range(n),
              lambda i: vec_eq(d.algebra.star_vec(fr.cols[i]),
                               fr.apply(g.bullet_map().cols[i]))),
        Check("fourier_antipode", d.antipode.compose(fr) == fr.compose(g.antipode), ()),
        sweep("fourier_dual_convolution", product(range(n), repeat=2), dual_convolution),
        sweep("counit_of_convolution", product(range(n), repeat=2),
              lambda ij: entry_eq(g.counit_of(ct.get(ij, {})), g.haar_of(
                  g.algebra.multiply_vec(g.antipode.cols[ij[1]], {ij[0]: one})))),
        sweep("fourier_conv_adjoint", range(n),
              lambda i: vec_eq(d.bullet_vec(fr.cols[i]), fr.apply(g.algebra.star.cols[i]))),
    ]

    report = Report("fourier(%s)" % g.label, checks)
    cache["fourier_identities"] = report
    return report


def check_iteration_lemma(pair: DualPair) -> Report:
    """Iterating the transform recovers h(η)·S; squaring gives h(η)² id."""
    cache = pair.primal._cache
    cached = cache.get("iteration_lemma")
    if cached is not None:
        return cached
    g = pair.primal
    h_eta = g.haar_of_eta()
    once = pair.fourier_dual.compose(pair.fourier)
    target = g.antipode.scale(h_eta)
    first = once == target
    twice = once.compose(once)
    ident = LinearMap.identity(g.dim, scalar(1)).scale(h_eta * h_eta)
    second = twice == ident
    report = Report("fourier-iteration(%s)" % g.label, [
        Check("iterate_is_scaled_antipode", first, () if first else ("matrix",)),
        Check("iterate_squared_is_scalar", second, () if second else ("matrix",)),
    ])
    cache["iteration_lemma"] = report
    return report

