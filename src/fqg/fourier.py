"""Convolution calculus, the Fourier transform, and the dual quantum group.

The dual is built on the abstract dual basis {e_i*} (NOT on the image basis
of the Fourier transform), so the transform identities stay falsifiable.
The double dual is identified with the original coefficient space through
the evaluation pairing, which on these coordinates is the identity matrix.
"""

from __future__ import annotations

from itertools import product

from .algebra import (InvalidDataError, Element, StarAlgebra, _is_associative, hom_check,
                      law_on_generators)
from .hopf import (QuantumGroup, dual_algebra, dual_coproduct, pair_haar,
                   verify_quantum_group)
from .linalg import LinearMap, entry_eq, vec_eq, vec_scale
from .report import Check, Report, sweep
from .scalar import cache_value, object_cache, scalar


# -- convolution --------------------------------------------------------------


@object_cache
def convolution_algebra(g: QuantumGroup) -> StarAlgebra:
    """(A, ⋆, •): the space of ``g`` with the convolution product and the
    convolution adjoint a ↦ S(a*) as its involution.

    e_i ⋆ e_j = (h⊗id)(((S⊗id)Δ(e_j))(e_i⊗1)); with the second leg untouched
    this contracts to sum over Δ(e_j) terms (a, b) of h(S(e_a) e_i) e_b.
    :func:`pair_haar` is read by rows, so each term S(e_a) ∋ e_a' visits
    only the i with h(e_a' e_i) ≠ 0.  Each row states its j ascending, and
    each entry sums its terms in the order of Δ(e_j) and then S(e_a).
    The unit stays empty: η is the ⋆-unit only up to h(η), which is 0 on
    some unverified input, and ``haar_element`` is a check of its own.
    """
    n = g.dim
    anti = g.antipode
    haar_rows = pair_haar(g)  # {a': {i: h(e_a' e_i)}}
    table = {}
    for j in range(n):
        accs: dict = {}  # {i: e_i ⋆ e_j}
        for r, c in g.coproduct.cols[j].items():
            a, b = divmod(r, n)
            for a2, s in anti.cols[a].items():
                cs = c * s
                for i, hval in haar_rows.get(a2, {}).items():
                    acc = accs.setdefault(i, {})
                    cur = acc.get(b)
                    t = cs * hval if cur is None else cur + cs * hval
                    if t.is_zero():
                        acc.pop(b, None)
                    else:
                        acc[b] = t
        for i in sorted(accs):
            if accs[i]:
                table.setdefault(i, {})[j] = accs[i]
    return StarAlgebra(n, table, {}, anti.compose(g.algebra.star), "conv(%s)" % g.label)


def convolve(g: QuantumGroup, x: Element, y: Element) -> Element:
    """Convolution product of two elements of the function algebra."""
    return Element(g.algebra, convolution_algebra(g).multiply_vec(x.coeffs, y.coeffs))


def conv_adjoint(g: QuantumGroup, x: Element) -> Element:
    """The convolution adjoint a ↦ S(a*)."""
    return Element(g.algebra, convolution_algebra(g).star_vec(x.coeffs))


# -- duality -------------------------------------------------------------------


class DualPair:
    """A quantum group, its dual, and the Fourier transforms between them."""

    __slots__ = ("primal", "dual", "fourier", "fourier_inv", "fourier_dual", "_cache")

    def __init__(self, primal, dual, fourier, fourier_inv, fourier_dual, cache=None):
        self.primal = primal
        self.dual = dual
        self.fourier = fourier
        self.fourier_inv = fourier_inv
        self.fourier_dual = fourier_dual
        self._cache = {} if cache is None else cache

    def __repr__(self):
        return "DualPair(%r)" % (self.primal.label,)


def _fourier_matrix(g: QuantumGroup) -> LinearMap:
    """F(e_j) = Σ_i h(e_i e_j) e_i*, read off :func:`pair_haar`."""
    cols = [dict() for _ in range(g.dim)]
    for i, row in pair_haar(g).items():
        for j, v in row.items():
            cols[j][i] = v
    return LinearMap(g.dim, g.dim, cols)


def build_dual(g: QuantumGroup, verify: bool = True) -> DualPair:
    """Construct the dual quantum group on the dual basis {e_i*}.

    Its algebra is ``hopf.dual_algebra(g)`` and its coproduct
    ``hopf.dual_coproduct(g)``, the ones the certificates of
    ``verify_quantum_group(g)`` read; the dual Haar state is normalized to
    be a state.  The dual's own dual algebra is recorded as ``g.algebra``:
    its product is Δ̂ transposed, the multiplication of ``g`` transposed
    twice, which is ``g``'s table exactly (Van Daele, "An algebraic
    framework for group duality", Adv. Math. 140, 1998).
    """
    n = g.dim
    a = g.algebra

    fourier = _fourier_matrix(g)
    try:
        fourier_inv = fourier.inverse()
    except ValueError:
        raise InvalidDataError("fourier matrix is singular; haar state is not faithful")

    # counit: evaluation at the unit
    dual_counit = LinearMap(n, 1, [{0: c} if (c := a.unit.get(i)) is not None else {}
                                   for i in range(n)])

    dual_antipode = g.antipode.transpose()

    # haar: ĥ(F(a)) = h(η) ε(a), normalized to a state
    h_eta = g.haar_of_eta()
    dual_haar = g.counit.compose(fourier_inv).scale(h_eta)

    dual_eta = fourier.apply(a.unit)

    algebra = dual_algebra(g)
    dual = QuantumGroup(algebra, dual_coproduct(g), dual_counit, dual_antipode,
                        dual_haar, dual_eta, "dual(%s)" % g.label)
    cache_value(dual_algebra, dual, a)

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
        if not vec_eq(expected_unit, algebra.unit):
            raise InvalidDataError("dual unit disagrees with F(eta)/h(eta)")

    return DualPair(g, dual, fourier, fourier_inv, _fourier_matrix(dual))


@object_cache
def _dual_parts(g: QuantumGroup) -> tuple:
    """The verified dual pair of ``g`` without ``g`` itself: its other parts
    and its memo dict.  Kept in ``g._cache``, so it must not refer back to
    ``g``, or ``g`` and its memo would form a reference cycle."""
    pair = build_dual(g)
    return pair.dual, pair.fourier, pair.fourier_inv, pair.fourier_dual, pair._cache


def dual_pair(g: QuantumGroup) -> DualPair:
    """Cached, verified dual pair for a quantum group.  Every pair returned
    for ``g`` shares one ``_cache``, so its verdicts are computed once."""
    return DualPair(g, *_dual_parts(g))


# -- identity batteries ---------------------------------------------------------


def _counit_of_convolution_forms(g: QuantumGroup, conv: StarAlgebra) -> tuple:
    """The two sides of ε(e_i ⋆ e_j) = h(S(e_j) e_i) as bilinear forms
    {(i, j): value} on their stated entries: the left one read off the rows
    of ⋆, the right one as Σ_a S_aj h(e_a e_i) off the rows of
    :func:`pair_haar`."""
    lhs = {(i, j): v for i, row in conv.mult.items() for j, terms in row.items()
           if (v := g.counit_of(terms)) is not None}
    haar_rows = pair_haar(g)
    rhs: dict = {}
    for j, col in enumerate(g.antipode.cols):
        for a, s in col.items():
            for i, hval in haar_rows.get(a, {}).items():
                p = s * hval
                cur = rhs.get((i, j))
                rhs[i, j] = p if cur is None else cur + p
    return lhs, rhs


@object_cache
def verify_fourier_identities(pair: DualPair) -> Report:
    """The transform identities relating ⋆, the adjoints and the antipodes
    (Van Daele, "An algebraic framework for group duality", Adv. Math. 140,
    1998).

    ``fourier_convolution`` and ``fourier_star`` are the product and star
    laws of :func:`hom_check` for F: (A, ⋆, •) → Â, and
    ``fourier_conv_adjoint`` the star law for F: A → (Â, ⋆̂, •̂).  On the
    exact backend two sweeps first try a one-sided certificate, and take
    only a pass from it, so every failure and its witness still come from
    the full sweep:

    - ``fourier_convolution``, through :func:`hom_on_generators`: the n
      pairs (i, i) and disjoint supports of the F(e_i) when ⋆ is diagonal
      (grp(Γ)), else the generators of ⋆ once ⋆ and Â are decided
      associative;
    - ``fourier_dual_convolution``, h(η)F(xy) = F(y)⋆̂F(x), whose good left
      factors form a subalgebra when h(η) ≠ 0 and ⋆̂ is associative, through
      :func:`law_on_generators` (with the F(e_i) as its images only when ⋆̂
      is diagonal, as on fun(Γ)).

    ``counit_of_convolution`` sweeps the two bilinear forms
    (:func:`_counit_of_convolution_forms`) on the union of their stated
    entries rather than at all n² pairs; both sides are 0 at every other
    pair.

    Deciding a convolution algebra associative is cheap: its table is
    monomial, so ``algebra._is_associative`` compares it a row at a time."""
    g, d = pair.primal, pair.dual
    n = g.dim
    fr = pair.fourier
    conv = convolution_algebra(g)
    conv_dual = convolution_algebra(d)
    h_eta = g.haar_of_eta()
    conv_counit, antipode_haar = _counit_of_convolution_forms(g, conv)

    def dual_convolution(ij):
        i, j = ij
        return vec_eq(vec_scale(fr.apply(g.algebra.basis_product(i, j)), h_eta),
                      conv_dual.multiply_vec(fr.cols[j], fr.cols[i]))

    checks = [
        hom_check("fourier_convolution", conv, d.algebra, fr, ("multiplicative",)),
        hom_check("fourier_star", conv, d.algebra, fr, ("star",)),
        Check("fourier_antipode", d.antipode.compose(fr) == fr.compose(g.antipode), ()),
        sweep("fourier_dual_convolution", product(range(n), repeat=2), dual_convolution,
              certificate=lambda: (not h_eta.is_zero() and _is_associative(conv_dual)
                                   and law_on_generators(g.algebra, dual_convolution,
                                                         fr.cols if conv_dual._diag else None))),
        sweep("counit_of_convolution", sorted(conv_counit.keys() | antipode_haar.keys()),
              lambda ij: entry_eq(conv_counit.get(ij), antipode_haar.get(ij))),
        hom_check("fourier_conv_adjoint", g.algebra, conv_dual, fr, ("star",)),
    ]
    return Report("fourier(%s)" % g.label, checks)


@object_cache
def check_iteration_lemma(pair: DualPair) -> Report:
    """Iterating the transform recovers h(η)·S; squaring gives h(η)² id."""
    g = pair.primal
    h_eta = g.haar_of_eta()
    once = pair.fourier_dual.compose(pair.fourier)
    target = g.antipode.scale(h_eta)
    first = once == target
    twice = once.compose(once)
    ident = LinearMap.identity(g.dim, scalar(1)).scale(h_eta * h_eta)
    second = twice == ident
    return Report("fourier-iteration(%s)" % g.label, [
        Check("iterate_is_scaled_antipode", first, () if first else ("matrix",)),
        Check("iterate_squared_is_scalar", second, () if second else ("matrix",)),
    ])

