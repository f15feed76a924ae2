"""Hopf *-algebra data on top of a StarAlgebra, with axiom verification.

A quantum group packages a StarAlgebra A with a coproduct A → A⊗A, a counit
and a Haar state (both stored as 1 x n functionals), an antipode, and the
Haar element.  The verification battery checks the full axiom list; the two
solvers reconstruct the Haar state and Haar element from the other data by
exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import (InvalidDataError, StarAlgebra, _basis_generators, _is_associative,
                      hom_check, hom_on_generators, law_on_generators, scalar_algebra,
                      tensor_mult, tensor_vec, verify_star_algebra)
from .linalg import (LinearMap, _subtract_row, entry_eq, leg_apply, leg_compose,
                     nullspace_basis, vec_add_into, vec_eq, vec_scale, vec_sub)
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
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode
        self.haar_state = haar_state
        self.haar_element = {i: c for i, c in dict(haar_element).items() if not c.is_zero()}
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
    """The unique functional with h(1)=1 and (id⊗h)Δ(a) = h(a)·1.

    Solves the invariance system exactly; anything but a one-dimensional
    solution space means the data is not a quantum group.
    """
    n = algebra.dim
    unit = algebra.unit
    rows = []
    for j in range(n):
        col = coproduct.cols[j]
        per_i: dict = {}
        for r, c in col.items():
            i, k = divmod(r, n)
            per_i.setdefault(i, {})[k] = c
        touched = set(per_i) | set(unit)
        for i in touched:
            ui = unit.get(i)
            row = vec_sub(per_i.get(i, {}), {} if ui is None else {j: ui})
            if row:
                rows.append(row)
    h = _normalised_solution(rows, n, unit, "haar state",
                             "invariant functional kills the unit; no haar state")
    return LinearMap(n, 1, [{0: h[i]} if i in h else {} for i in range(n)])


def solve_haar_element(algebra: StarAlgebra, counit: LinearMap) -> dict:
    """The unique η with aη = ε(a)η for all a and ε(η) = 1."""
    n = algebra.dim
    eps = counit.cols  # eps[i] = {0: ε(e_i)} when nonzero
    rows = []
    for i in range(n):
        eps_i = eps[i].get(0)
        per_k: dict = {}
        for j, terms in algebra.mult.get(i, {}).items():
            for k, c in terms.items():
                per_k.setdefault(k, {})[j] = c
        touched = set(per_k) | (set(range(n)) if eps_i is not None else set())
        for k in touched:
            row = vec_sub(per_k.get(k, {}), {} if eps_i is None else {k: eps_i})
            if row:
                rows.append(row)
    weights = {i: col[0] for i, col in enumerate(eps) if col}
    return _normalised_solution(rows, n, weights, "haar element",
                                "counit kills every candidate haar element")


def _normalised_solution(rows, n, weights, what, killed) -> dict:
    """The one solution x of the sparse system ``rows`` scaled to Σ wᵢxᵢ = 1.

    ``weights`` maps indices to wᵢ (absent means 0).  Raises for a solution
    space of any dimension but 1, naming ``what``, and with the message
    ``killed`` when Σ wᵢxᵢ = 0.
    """
    basis = nullspace_basis(rows, n)
    if len(basis) != 1:
        raise InvalidDataError(
            "%s is not unique (solution space has dimension %d)" % (what, len(basis)))
    x = basis[0]
    norm = None
    for i, xi in x.items():
        w = weights.get(i)
        if w is not None:
            norm = w * xi if norm is None else norm + w * xi
    if norm is None or norm.is_zero():
        raise InvalidDataError(killed)
    return vec_scale(x, norm.inv())


# -- verification -------------------------------------------------------------


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
    pairs first try a certificate on generators (the nucleus lemma), and
    take only a pass from it, so every failure and its witness still come
    from the full sweep:

    - ``associativity`` and ``star_antimultiplicative``: see
      :func:`verify_star_algebra`;
    - ``coassociativity``, as associativity of :func:`dual_algebra`;
    - ``coproduct_multiplicative``, through :func:`hom_on_generators` for Δ
      on the generators of the algebra or for the dual coproduct on those of
      the dual, whichever are fewer;
    - ``counit_multiplicative``, through :func:`hom_on_generators` for ε
      into ℂ: on the generators, or on a diagonal table the n pairs (i, i)
      and at most one basis element off the kernel of ε;
    - ``haar_tracial``, whose good left factors {a : h(ax) = h(xa) for all
      x} form a subalgebra, through :func:`law_on_generators`; a diagonal
      table is commutative, so it passes without a walk.

    The float backend always runs the full sweeps.  The unit, product and
    star laws are :func:`hom_check`'s: for Δ: A → A⊗A, for ε: A → ℂ and,
    the star law only, for S: A → A."""
    a = g.algebra
    n = a.dim
    one = scalar(1)
    delta, eps, anti, h = g.coproduct, g.counit, g.antipode, g.haar_state
    unit = a.unit
    eta = g.haar_element
    star_report = verify_star_algebra(a)

    def on_both_legs(f, v, target):
        return all(vec_eq(leg_apply(f, v, n, leg), target) for leg in (0, 1))

    def antipode_law(j):
        target = vec_scale(unit, eps.cols[j].get(0))
        return all(vec_eq(_mult_map_apply(a, leg_apply(anti, delta.cols[j], n, leg)), target)
                   for leg in (0, 1))

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

    def tracial(ij):
        i, j = ij
        return entry_eq(g.haar_of(a.basis_product(i, j)), g.haar_of(a.basis_product(j, i)))

    scalars = scalar_algebra()
    h_eta = g.haar_of_eta()
    h_eta_ok = (h_eta - scalar(Fraction(1, n))).is_zero()
    checks = list(star_report.checks) + [
        coassociativity,
        sweep("counit_law", range(n), lambda j: on_both_legs(eps, delta.cols[j], {j: one})),
        hom_check("coproduct_unital", a, a, delta, ("unit",), a),
        hom_check("coproduct_multiplicative", a, a, delta, ("multiplicative",), a,
                  certificate=multiplicative_on_generators),
        hom_check("coproduct_star", a, a, delta, ("star",), a),
        hom_check("counit_unital", a, scalars, eps, ("unit",)),
        hom_check("counit_multiplicative", a, scalars, eps, ("multiplicative",)),
        hom_check("counit_star", a, scalars, eps, ("star",)),
        sweep("antipode_law", range(n), antipode_law),
        Check("antipode_involutive", anti.compose(anti) == LinearMap.identity(n, one), ()),
        hom_check("antipode_star", a, a, anti, ("star",)),
        Check("haar_unital", entry_eq(h.apply(unit).get(0), one), ()),
        sweep("haar_invariance", range(n),
              lambda j: on_both_legs(h, delta.cols[j], vec_scale(unit, h.cols[j].get(0)))),
        Check("haar_antipode_invariant", h.compose(anti) == h, ()),
        sweep("haar_tracial", ((i, j) for i in range(n) for j in range(i, n)), tracial,
              certificate=lambda: a._diag or law_on_generators(a, tracial)),
        _gram_positivity_check(g),
        Check("haar_element_counit", entry_eq(eps.apply(eta).get(0), one), ()),
        sweep("haar_element_absorbing", range(n),
              lambda i: vec_eq(a.multiply_vec({i: one}, eta),
                               vec_scale(eta, eps.cols[i].get(0)))),
        Check("haar_element_value", h_eta_ok, () if h_eta_ok else (str(h_eta),)),
    ]

    return Report(g.label or "quantum-group", checks)


def _gram_positivity_check(g: QuantumGroup) -> Check:
    """h(e_j* e_i) must be Hermitian positive definite (Sylvester pivots).

    gram[i][j] is formed only for the i that a basis element e_k in the
    support of e_j* has a stated product e_k e_i with, read off row k of the
    table; every other entry is 0.  The Hermitian scan visits the pairs i <= j with an entry
    in either order, lexicographically, and the elimination runs on sparse
    rows, so the witness is the one a dense scan and elimination give."""
    a = g.algebra
    n = a.dim
    one = scalar(1)
    zero = zero_like(one)
    gram = [dict() for _ in range(n)]
    for j in range(n):
        ej_star = a.star.cols[j]
        reached = set()
        for k in ej_star:
            reached.update(a.mult.get(k, ()))
        for i in sorted(reached):
            v = g.haar_of(a.multiply_vec(ej_star, {i: one}))
            if v is not None:
                gram[i][j] = v
    # (i, j) fails exactly when (j, i) does, so the first failing pair has i <= j
    stated = sorted({(min(i, j), max(i, j)) for i, row in enumerate(gram) for j in row})
    asymmetric = first_failure(stated, lambda w: (
        gram[w[0]].get(w[1], zero) - gram[w[1]].get(w[0], zero).conj()).is_zero())
    if asymmetric is not None:
        return Check("haar_positive", False, ("not-hermitian",) + asymmetric)
    exact = type(one) is QQi
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
    """S((id⊗h)(Δ(b)(1⊗c))) = (id⊗h)((1⊗b)Δ(c)) on all basis pairs."""
    a = g.algebra
    n = a.dim
    one = scalar(1)
    h, delta, anti = g.haar_state, g.coproduct, g.antipode
    unit = a.unit

    def identity(bc):
        b, c = bc
        unit_c = tensor_vec(unit, {c: one}, n)
        lhs = anti.apply(leg_apply(h, tensor_mult(a, a, delta.cols[b], unit_c), n, 1))
        b_unit = tensor_vec(unit, {b: one}, n)
        return vec_eq(lhs, leg_apply(h, tensor_mult(a, a, b_unit, delta.cols[c]), n, 1))

    return Report(g.label or "quantum-group",
                  [sweep("haar_antipode_identity", product(range(n), repeat=2), identity)])


def check_hopf_morphism(g: QuantumGroup, h: QuantumGroup, t: LinearMap) -> Report:
    """Whether T: G → H preserves product, unit, star, Δ, ε, S and the Haar
    state.  The first three are the laws of :func:`hom_check` for
    T: A → B, each witnessed by its first failing index; the others compare
    matrices, Δ_H∘T with (T⊗T)∘Δ_G built leg by leg."""
    a, b = g.algebra, h.algebra
    t_delta = leg_compose(t, leg_compose(t, g.coproduct, g.dim, 1), h.dim, 0)
    return Report("hopf-morphism(%s -> %s)" % (g.label, h.label), [
        hom_check("multiplicative", a, b, t, ("multiplicative",)),
        hom_check("unital", a, b, t, ("unit",)),
        hom_check("star_preserving", a, b, t, ("star",)),
        Check("coproduct_intertwined", h.coproduct.compose(t) == t_delta, ()),
        Check("counit_intertwined", h.counit.compose(t) == g.counit, ()),
        Check("antipode_intertwined", h.antipode.compose(t) == t.compose(g.antipode), ()),
        Check("haar_intertwined", h.haar_state.compose(t) == g.haar_state, ()),
    ])
