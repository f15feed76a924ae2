"""Hopf *-algebra data on top of a StarAlgebra, with axiom verification.

A quantum group packages a StarAlgebra A with a coproduct A → A⊗A, a counit
and a Haar state (both stored as 1 x n functionals), an antipode, and the
Haar element.  The verification battery checks the full axiom list; the two
solvers reconstruct the Haar state and Haar element from the other data by
exact linear algebra, as one system: h is the Haar element of the dual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .algebra import (_EMPTY, InvalidDataError, StarAlgebra, _basis_generators, _is_associative,
                      _unit_law_check, exact_int, hom_check, hom_on_generators, law_on_generators,
                      scalar_algebra, verify_star_algebra)
from .linalg import (LinearMap, _subtract_row, entry_eq, leg_apply, nullspace_basis,
                     vec_add_into, vec_eq, vec_scale)
from .report import Check, Report, first_failure, sweep
from .scalar import QQi, object_cache, scalar, tolerance, zero_like


class QuantumGroup:
    """A finite quantum group: StarAlgebra plus (Δ, ε, S, h, η)."""

    __slots__ = ("algebra", "coproduct", "counit", "antipode",
                 "haar_state", "haar_element", "label", "_cache")

    def __init__(self, algebra: StarAlgebra, coproduct: LinearMap, counit: LinearMap,
                 antipode: LinearMap, haar_state: LinearMap, haar_element: dict,
                 label=""):
        n = algebra.dim
        if coproduct.source_dim != n or coproduct.target_dim != n * n:
            raise InvalidDataError("coproduct must be %d x %d" % (n * n, n))
        if counit.source_dim != n or counit.target_dim != 1:
            raise InvalidDataError("counit must be 1 x %d" % n)
        if antipode.source_dim != n or antipode.target_dim != n:
            raise InvalidDataError("antipode must be %d x %d" % (n, n))
        if haar_state.source_dim != n or haar_state.target_dim != 1:
            raise InvalidDataError("haar state must be 1 x %d" % n)
        haar_element = dict(haar_element)
        if not all(0 <= exact_int(i, "haar element index") < n for i in haar_element):
            raise InvalidDataError("haar element index out of range")
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode
        self.haar_state = haar_state
        self.haar_element = {i: c for i, c in haar_element.items() if not c.is_zero()}
        self.label = label or algebra.label
        self._cache = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    # -- functional helpers ------------------------------------------------

    def haar_of(self, vec: dict):
        """h(vec) as a scalar (None means an exact zero)."""
        return self.haar_state.apply(vec).get(0)

    def counit_of(self, vec: dict):
        return self.counit.apply(vec).get(0)

    def haar_of_eta(self):
        v = self.haar_of(self.haar_element)
        return v if v is not None else scalar(0)

    def __repr__(self):
        return "QuantumGroup(%r, dim=%d)" % (self.label, self.dim)


# -- solvers -----------------------------------------------------------------


def solve_haar_state(algebra: StarAlgebra, coproduct: LinearMap) -> LinearMap:
    """The unique functional with h(1)=1 and (id⊗h)Δ(a) = h(a)·1: at e_i
    that is e_i*·h = e_i*(1)h in the dual algebra, so h is the dual's Haar
    element, with counit the unit of A.  Δ's columns are read directly as
    the dual's products, (e_i* e_k*)(e_j) = Δ(e_j) at (i, k)."""
    n = algebra.dim
    products = ((*divmod(r, n), j, c) for j, col in enumerate(coproduct.cols)
                for r, c in col.items())
    h = _absorbing_solution(n, products, algebra.unit, "haar state",
                            "invariant functional kills the unit; no haar state")
    return LinearMap(n, 1, [{0: h[i]} if i in h else {} for i in range(n)])


def solve_haar_element(algebra: StarAlgebra, counit: LinearMap) -> dict:
    """The unique η with aη = ε(a)η for all a and ε(η) = 1."""
    products = ((i, j, k, c) for i, row in algebra.mult.items() for j, terms in row.items()
                for k, c in terms.items())
    return _absorbing_solution(algebra.dim, products, counit.transpose().cols[0],
                               "haar element", "counit kills every candidate haar element")


def _absorbing_solution(n, products, eps, what, killed) -> dict:
    """The one x with e_i·x = ε_i·x for every e_i and ε(x) = 1, for the
    product given by its terms (i, j, k, c), e_i e_j = Σ_k c·e_k, and ε by
    {i: ε_i}; any other solution space raises, naming ``what``, or with
    ``killed`` when ε(x) = 0.  At e_k the law is Σ_j c·x_j = ε_i·x_k, one
    row per (k, i), eliminated in that order: in the order of its terms
    grp(Z2xZ64) took about seven times as long, in (i, k) order grp(D48)
    three times."""
    rows: dict = {}  # k·n + i -> {j: c}
    for i, j, k, c in products:
        rows.setdefault(k * n + i, {})[j] = c
    for i, e in eps.items():
        minus_e = -e
        for k in range(n):
            vec_add_into(rows.setdefault(k * n + i, {}), {k: minus_e})
    basis = nullspace_basis([rows[ki] for ki in sorted(rows)], n)
    if len(basis) != 1:
        raise InvalidDataError(
            "%s is not unique (solution space has dimension %d)" % (what, len(basis)))
    x = basis[0]
    norm = None
    for i, xi in x.items():
        e = eps.get(i)
        if e is not None:
            norm = e * xi if norm is None else norm + e * xi
    if norm is None or norm.is_zero():
        raise InvalidDataError(killed)
    return vec_scale(x, norm.inv())


# -- verification -------------------------------------------------------------


@object_cache
def pair_haar(g: QuantumGroup) -> dict:
    """Sparse rows {i: {j: h(e_i e_j)}}, one h per stated product: the one
    reading of h(e_i e_j) for the Haar checks here and the Fourier matrix,
    the convolution table and its counit law in ``fourier``."""
    table = {}
    for i, row in g.algebra.mult.items():
        for j, terms in row.items():
            v = g.haar_of(terms)
            if v is not None and not v.is_zero():
                table.setdefault(i, {})[j] = v
    return table


def _mult_map_apply(algebra: StarAlgebra, v: dict) -> dict:
    """Multiplication A⊗A → A applied to a sparse vector."""
    n = algebra.dim
    acc: dict = {}
    for r, c in v.items():
        vec_add_into(acc, algebra.basis_product(*divmod(r, n)), c)
    return acc


@object_cache
def dual_algebra(g: QuantumGroup) -> StarAlgebra:
    """The dual's algebra on the dual basis {e_i*}, built once per ``g`` and
    shared by the certificates of :func:`verify_quantum_group` and by
    ``fourier.build_dual``.

    Its product is Δ transposed, (e_i* e_j*)(e_k) = Δ(e_k) at (i, j); its
    unit is the counit; its star is (e_i*)*(e_j) = conj((S e_j)* at i)."""
    n = g.dim
    a = g.algebra
    mult: dict = {}
    for k, col in enumerate(g.coproduct.cols):
        for r, c in col.items():
            i, j = divmod(r, n)
            mult.setdefault(i, {}).setdefault(j, {})[k] = c
    unit = {i: c for i, col in enumerate(g.counit.cols) if (c := col.get(0)) is not None}
    star_cols = [dict() for _ in range(n)]
    for j in range(n):
        for i, c in a.star_vec(g.antipode.cols[j]).items():
            star_cols[i][j] = c.conj()
    return StarAlgebra(n, mult, unit, LinearMap(n, n, star_cols), "dual(%s)" % g.label)


@object_cache
def dual_coproduct(g: QuantumGroup) -> LinearMap:
    """The dual's coproduct, the multiplication transposed:
    Δ̂(e_k*)(e_i⊗e_j) = e_k*(e_i e_j)."""
    n = g.dim
    cols = [dict() for _ in range(n)]
    for i, row in g.algebra.mult.items():
        for j, terms in row.items():
            r = i * n + j
            for k, c in terms.items():
                cols[k][r] = c
    return LinearMap(n, n * n, cols)


@object_cache
def verify_quantum_group(g: QuantumGroup) -> Report:
    """Full Hopf/Haar axiom battery; an empty failure list means pass.

    Each check sweeps its basis indices in lexicographic order and names the
    first failing one.  On the exact backend the sweeps of the laws on basis
    pairs and of three per-column laws first try a certificate on generators
    (the nucleus lemma), and the counit and antipode laws one on the dual
    table; each takes only a pass from it, so every failure and its witness
    still come from the full sweep:

    - ``associativity`` and ``star_antimultiplicative``: see
      :func:`verify_star_algebra`;
    - ``coassociativity``, as associativity of :func:`dual_algebra`;
    - ``coproduct_multiplicative``, through :func:`hom_on_generators` for Δ
      on the generators of the algebra or for the dual coproduct on those of
      the dual, whichever are fewer;
    - ``counit_multiplicative``, through :func:`hom_on_generators` for ε
      into ℂ: on the generators, or on a diagonal table the n pairs (i, i)
      and at most one basis element off the kernel of ε;
    - ``counit_law`` and ``antipode_law``, when the table states fewer
      entries than Δ (fun(Γ)), as the unit laws and the antipode law of the
      dual table (:func:`dual_algebra` with :func:`dual_coproduct`, antipode
      Sᵀ, unit ε and counit 1), which are the same scalar equations, swept
      per dual basis element;
    - ``haar_invariance`` and ``haar_element_absorbing``, through
      :func:`_absorbing_on_generators`: read at e_k, the first is
      h·e_k* = e_k*(1)h = e_k*·h, h absorbing :func:`dual_algebra` on both
      sides after the ``coproduct_unital`` verdict, since ε̂(φ) = φ(1) is
      multiplicative exactly when Δ(1) = 1⊗1; the second is xη = ε(x)η, η
      absorbing the algebra on the left after the ``counit_multiplicative``
      verdict.  Each reads the associativity that ``coassociativity`` or
      ``associativity`` decides;
    - ``coproduct_star``, as bar(φψ) = bar(φ)bar(ψ) on the dual, with
      bar(φ)(x) = conj φ(x*), through :func:`law_on_generators` on the dual
      (a diagonal dual: disjoint supports of the bar(e_k*)); it reads the
      dual's associativity.

    ``haar_tracial`` sweeps only the pairs i <= j with h(e_i e_j) or
    h(e_j e_i) stated in :func:`pair_haar`, as ``haar_positive`` does; both
    sides are 0 at every other pair.  The float backend always runs the full
    sweeps.  The unit, product and star laws are :func:`hom_check`'s: for
    Δ: A → A⊗A, for ε: A → ℂ and, the star law only, for S: A → A."""
    a = g.algebra
    n = a.dim
    one = scalar(1)
    delta, eps, anti, h = g.coproduct, g.counit, g.antipode, g.haar_state
    unit = a.unit
    eta = g.haar_element
    star_report = verify_star_algebra(a)

    def on_both_legs(f, v, target):
        return all(vec_eq(leg_apply(f, v, n, leg), target) for leg in (0, 1))

    # The counit and antipode laws at e_j, read at e_k, are the unit laws and
    # the antipode law of the dual table at e_k*, read at e_j: (ε⊗id)Δ(e_j) at
    # k is (ε·e_k*)(e_j), and m(S⊗id)Δ(e_j) at k is m̂(Ŝ⊗id)Δ̂(e_k*)(e_j) with
    # Ŝ = Sᵀ.  Sweeping the dual side per e_k* is cheaper when the table
    # states fewer entries than Δ, as on fun(Γ).
    dual_side = (sum(len(terms) for row in a.mult.values() for terms in row.values())
                 < sum(len(col) for col in delta.cols))

    def dual_antipode_law():
        dual, dual_delta, dual_anti = dual_algebra(g), dual_coproduct(g), anti.transpose()
        return all(_antipode_holds(dual, dual_delta, dual_anti, k, unit.get(k))
                   for k in range(n))

    coassociativity = sweep(
        "coassociativity", range(n),
        lambda j: vec_eq(leg_apply(delta, delta.cols[j], n, 0),
                         leg_apply(delta, delta.cols[j], n, 1)),
        certificate=lambda: _is_associative(dual_algebra(g)))

    def multiplicative_on_generators():
        # Δ(ab) = Δ(a)Δ(b) and the dual law Δ̂(φψ) = Δ̂(φ)Δ̂(ψ) are the same
        # scalar equations: certify the one on fewer generators
        dual = dual_algebra(g)
        if len(_basis_generators(a)) <= len(_basis_generators(dual)):
            return hom_on_generators(a, a, delta, ("multiplicative",), a)
        return hom_on_generators(dual, dual, dual_coproduct(g), ("multiplicative",), dual)

    def star_on_generators():
        # Δ(a*) = Δ(a)* for every a is bar(φψ) = bar(φ)bar(ψ) on the dual, with
        # bar(φ)(x) = conj φ(x*) antilinear: bar(e_k*) is row k of the star
        # matrix, conjugated, and the good left factors are closed under
        # products once the dual is associative
        dual = dual_algebra(g)
        bars = [{x: c.conj() for x, c in row.items()} for row in a.star.transpose().cols]

        def bar_multiplicative(kl):
            k, l = kl
            lhs: dict = {}
            for j, c in dual.basis_product(k, l).items():
                vec_add_into(lhs, bars[j], c.conj())
            return vec_eq(lhs, dual.multiply_vec(bars[k], bars[l]))
        return law_on_generators(dual, bar_multiplicative, bars)

    eps_vec = eps.transpose().cols[0]

    pairing = pair_haar(g)

    def tracial(ij):
        i, j = ij
        return entry_eq(pairing.get(i, _EMPTY).get(j), pairing.get(j, _EMPTY).get(i))

    # (i, j) fails exactly when (j, i) does, and both sides are absent off the
    # stated pairs, so the first failing pair i <= j is among these
    tracial_pairs = sorted({(min(i, j), max(i, j)) for i, row in pairing.items() for j in row})

    scalars = scalar_algebra()
    h_eta = g.haar_of_eta()
    h_eta_ok = (h_eta - scalar(Fraction(1, n))).is_zero()
    checks = list(star_report.checks) + [
        coassociativity,
        sweep("counit_law", range(n), lambda j: on_both_legs(eps, delta.cols[j], {j: one}),
              certificate=(lambda: _unit_law_check(dual_algebra(g)).passed)
              if dual_side else None),
        unital := hom_check("coproduct_unital", a, a, delta, ("unit",), a),
        hom_check("coproduct_multiplicative", a, a, delta, ("multiplicative",), a,
                  certificate=multiplicative_on_generators),
        hom_check("coproduct_star", a, a, delta, ("star",), a, certificate=star_on_generators),
        hom_check("counit_unital", a, scalars, eps, ("unit",)),
        counit_multiplicative := hom_check("counit_multiplicative", a, scalars, eps,
                                           ("multiplicative",)),
        hom_check("counit_star", a, scalars, eps, ("star",)),
        sweep("antipode_law", range(n),
              lambda j: _antipode_holds(a, delta, anti, j, eps.cols[j].get(0)),
              certificate=dual_antipode_law if dual_side else None),
        Check("antipode_involutive", anti.compose(anti) == LinearMap.identity(n, one), ()),
        hom_check("antipode_star", a, a, anti, ("star",)),
        Check("haar_unital", entry_eq(h.apply(unit).get(0), one), ()),
        sweep("haar_invariance", range(n),
              lambda j: on_both_legs(h, delta.cols[j], vec_scale(unit, h.cols[j].get(0))),
              certificate=lambda: _absorbing_on_generators(
                  dual_algebra(g), h.transpose().cols[0], unit, unital, two_sided=True)),
        Check("haar_antipode_invariant", h.compose(anti) == h, ()),
        sweep("haar_tracial", tracial_pairs, tracial),
        _gram_positivity_check(g),
        Check("haar_element_counit", entry_eq(eps.apply(eta).get(0), one), ()),
        sweep("haar_element_absorbing", range(n), _absorbs(a, eta, eps_vec),
              certificate=lambda: _absorbing_on_generators(a, eta, eps_vec,
                                                           counit_multiplicative)),
        Check("haar_element_value", h_eta_ok, () if h_eta_ok else (str(h_eta),)),
    ]

    return Report(g.label or "quantum-group", checks)


def _absorbs(algebra: StarAlgebra, x: dict, eps: dict, two_sided=False):
    """i ↦ whether e_i·x = ε_i·x, and also x·e_i = ε_i·x when ``two_sided``,
    for ε given as {i: ε_i}: η absorbs A on the left, and h absorbs the dual
    on both sides."""
    one = scalar(1)

    def absorbs(i):
        e, target = {i: one}, vec_scale(x, eps.get(i))
        return (vec_eq(algebra.multiply_vec(e, x), target)
                and (not two_sided or vec_eq(algebra.multiply_vec(x, e), target)))
    return absorbs


def _absorbing_on_generators(algebra: StarAlgebra, x: dict, eps: dict,
                             eps_multiplicative: Check, two_sided=False) -> bool:
    """A one-sided certificate that x absorbs ``algebra`` as in
    :func:`_absorbs`: True only if it does.  The a with a·x = ε(a)x (or
    x·a = ε(a)x) form a subalgebra once the algebra is associative and ε is
    multiplicative, which ``eps_multiplicative`` decides, so the law is
    checked on the generators."""
    return (eps_multiplicative.passed and _is_associative(algebra)
            and first_failure(_basis_generators(algebra),
                              _absorbs(algebra, x, eps, two_sided)) is None)


def _antipode_holds(a: StarAlgebra, delta: LinearMap, anti: LinearMap, j: int, eps_j) -> bool:
    """m(S⊗id)Δ(e_j) = ε(e_j)1 = m(id⊗S)Δ(e_j), with ε(e_j) = ``eps_j``
    (None for 0)."""
    target = vec_scale(a.unit, eps_j)
    return all(vec_eq(_mult_map_apply(a, leg_apply(anti, delta.cols[j], a.dim, leg)), target)
               for leg in (0, 1))


def _gram_positivity_check(g: QuantumGroup) -> Check:
    """h(e_j* e_i) must be Hermitian positive definite (Sylvester pivots).

    Column j of the Gram matrix is Σ_k St_kj h(e_k e_i) over i: the rows k of
    :func:`pair_haar` for the e_k in the support of e_j*, scaled and summed;
    every other entry is 0.  The Hermitian scan visits the pairs i <= j with
    an entry in either order, lexicographically, and the elimination runs on
    sparse rows, so the witness is the one a dense scan and elimination give."""
    a = g.algebra
    n = a.dim
    zero = zero_like(scalar(1))
    pairing = pair_haar(g)
    gram = [dict() for _ in range(n)]
    for j in range(n):
        col: dict = {}  # {i: h(e_j* e_i)}
        for k, s in a.star.cols[j].items():
            vec_add_into(col, pairing.get(k, _EMPTY), s)
        for i, v in col.items():
            gram[i][j] = v
    # (i, j) fails exactly when (j, i) does, so the first failing pair has i <= j
    stated = sorted({(min(i, j), max(i, j)) for i, row in enumerate(gram) for j in row})
    asymmetric = first_failure(stated, lambda w: (
        gram[w[0]].get(w[1], zero) - gram[w[1]].get(w[0], zero).conj()).is_zero())
    if asymmetric is not None:
        return Check("haar_positive", False, ("not-hermitian",) + asymmetric)
    exact = type(zero) is QQi
    tol = tolerance()
    for k in range(n):
        piv = gram[k].get(k, zero)
        ok = piv.is_real() and (piv.re > 0 if exact else piv.re > tol)
        if not ok:
            return Check("haar_positive", False, ("pivot", k))
        pinv = piv.inv()
        top = [(j, b) for j, b in gram[k].items() if j >= k]
        for i in range(k + 1, n):
            row = gram[i]
            x = row.get(k)
            if x is None:
                continue
            f = x * pinv
            if f.is_zero():
                continue
            _subtract_row(row, f, top, zero)
    return Check("haar_positive", True, ())


@object_cache
def check_haar_antipode_identity(g: QuantumGroup) -> Report:
    """S((id⊗h)(Δ(b)(1⊗c))) = (id⊗h)((1⊗b)Δ(c)) on all basis pairs.

    Both sides are contractions of Δ with :func:`pair_haar`: the left side
    is S((Σ Δ(e_b)_{x,y} h(e_y e_c) e_x)·1) and the right side
    1·(Σ Δ(e_c)_{x,y} h(e_b e_y) e_x).  Each column of Δ is grouped by its
    second leg y once, and the left side contracts the column of b against
    the rows of the table once for every c."""
    a = g.algebra
    n = a.dim
    unit, anti, pairing = a.unit, g.antipode, pair_haar(g)
    by_leg: dict = {}

    def second_legs(j):  # {y: {x: Δ(e_j) at (x, y)}}
        legs = by_leg.get(j)
        if legs is None:
            legs = by_leg[j] = {}
            for r, c in g.coproduct.cols[j].items():
                x, y = divmod(r, n)
                legs.setdefault(y, {})[x] = c
        return legs

    @lru_cache(maxsize=1)
    def contracted(b):  # {c: Σ Δ(e_b)_{x,y} h(e_y e_c) e_x}
        acc: dict = {}
        for y, xs in second_legs(b).items():
            for c, hv in pairing.get(y, _EMPTY).items():
                vec_add_into(acc.setdefault(c, {}), xs, hv)
        return acc

    def identity(bc):
        b, c = bc
        lhs = anti.apply(a.multiply_vec(contracted(b).get(c, _EMPTY), unit))
        legs = second_legs(c)
        rhs: dict = {}
        for y, hv in pairing.get(b, _EMPTY).items():
            xs = legs.get(y)
            if xs is not None:
                vec_add_into(rhs, xs, hv)
        return vec_eq(lhs, a.multiply_vec(unit, rhs))

    return Report(g.label or "quantum-group",
                  [sweep("haar_antipode_identity", product(range(n), repeat=2), identity)])


def check_hopf_morphism(g: QuantumGroup, h: QuantumGroup, t: LinearMap) -> Report:
    """Whether T: G → H preserves product, unit, star, Δ, ε, S and the Haar
    state.  The first three are the laws of :func:`hom_check` for
    T: A → B, each witnessed by its first failing index; the others compare
    one column e_j of G at a time, up to the first mismatch: Δ_H(T e_j) with
    (T⊗T)Δ_G(e_j), applied leg by leg, then ε, S and h likewise.  A T whose
    shape is not dim H x dim G raises ValueError.

    On the exact backend ``coproduct_intertwined`` first tries a certificate
    on the dual generators: read at e_a*⊗e_b*, Δ_H(T e_j) = (T⊗T)Δ_G(e_j)
    is Tᵀ(φψ) = Tᵀ(φ)Tᵀ(ψ) for Tᵀ from :func:`dual_algebra` of H to that of
    G, the same scalar equations, so :func:`hom_on_generators` decides it
    for Tᵀ.  A failure still comes from the column comparison."""
    for first, then in ((t.target_dim, h.dim), (g.dim, t.source_dim)):
        if first != then:
            raise ValueError("composition shape mismatch: %d vs %d" % (first, then))
    a, b = g.algebra, h.algebra

    def intertwined(name, h_map, g_side, certificate=None):
        # h_map(T e_j) against g_side(j), the image of e_j the other way round;
        # one sweep index (), so a failure keeps the witness ()
        return sweep(name, [()], lambda _: all(vec_eq(h_map.apply(col), g_side(j))
                                               for j, col in enumerate(t.cols)),
                     certificate)

    return Report("hopf-morphism(%s -> %s)" % (g.label, h.label), [
        hom_check("multiplicative", a, b, t, ("multiplicative",)),
        hom_check("unital", a, b, t, ("unit",)),
        hom_check("star_preserving", a, b, t, ("star",)),
        intertwined("coproduct_intertwined", h.coproduct, lambda j: leg_apply(
            t, leg_apply(t, g.coproduct.cols[j], g.dim, 1), h.dim, 0),
            lambda: hom_on_generators(dual_algebra(h), dual_algebra(g), t.transpose(),
                                      ("multiplicative",))),
        intertwined("counit_intertwined", h.counit, g.counit.cols.__getitem__),
        intertwined("antipode_intertwined", h.antipode, lambda j: t.apply(g.antipode.cols[j])),
        intertwined("haar_intertwined", h.haar_state, g.haar_state.cols.__getitem__),
    ])
