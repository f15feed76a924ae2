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

from .algebra import InvalidDataError, StarAlgebra, tensor_mult, tensor_star, tensor_vec
from .linalg import (LinearMap, entry_eq, leg_apply, nullspace_basis, vec_add_into,
                     vec_eq, vec_scale)
from .report import Check, Report, sweep
from .scalar import QQi, scalar, zero_like


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

    def bullet_map(self) -> LinearMap:
        """Linear part of the convolution adjoint a ↦ S(a*) (coefficients
        still get conjugated when applying it to a general vector)."""
        bul = self._cache.get("bullet")
        if bul is None:
            bul = self.antipode.compose(self.algebra.star)
            self._cache["bullet"] = bul
        return bul

    def bullet_vec(self, v: dict) -> dict:
        cols = self.bullet_map().cols
        acc: dict = {}
        for i, c in v.items():
            vec_add_into(acc, cols[i], c.conj())
        return acc

    def __repr__(self):
        return "QuantumGroup(%r, dim=%d)" % (self.label, self.dim)


# -- solvers -----------------------------------------------------------------


def solve_haar_state(algebra: StarAlgebra, coproduct: LinearMap,
                     stored: LinearMap | None = None) -> LinearMap:
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
            row = dict(per_i.get(i, {}))
            ui = unit.get(i)
            if ui is not None:
                cur = row.get(j)
                t = -ui if cur is None else cur - ui
                if t.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = t
            if row:
                rows.append(row)
    basis = nullspace_basis(rows, n)
    if len(basis) != 1:
        raise InvalidDataError(
            "haar state is not unique (solution space has dimension %d)" % len(basis))
    h = basis[0]
    norm = None
    for i, ui in unit.items():
        hi = h.get(i)
        if hi is not None:
            norm = ui * hi if norm is None else norm + ui * hi
    if norm is None or norm.is_zero():
        raise InvalidDataError("invariant functional kills the unit; no haar state")
    h = vec_scale(h, norm.inv())
    result = LinearMap(n, 1, [{0: h[i]} if i in h else {} for i in range(n)])
    if stored is not None and result != stored:
        raise InvalidDataError("stored haar state disagrees with the solved one")
    return result


def solve_haar_element(algebra: StarAlgebra, counit: LinearMap) -> dict:
    """The unique η with aη = ε(a)η for all a and ε(η) = 1."""
    n = algebra.dim
    eps = counit.cols  # eps[i] = {0: ε(e_i)} when nonzero
    rows = []
    for i in range(n):
        eps_i = eps[i].get(0)
        per_k: dict = {}
        for j in range(n):
            terms = algebra.mult.get((i, j))
            if terms is None:
                continue
            for k, c in terms.items():
                per_k.setdefault(k, {})[j] = c
        touched = set(per_k) | (set(range(n)) if eps_i is not None else set())
        for k in touched:
            row = dict(per_k.get(k, {}))
            if eps_i is not None:
                cur = row.get(k)
                t = -eps_i if cur is None else cur - eps_i
                if t.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = t
            if row:
                rows.append(row)
    basis = nullspace_basis(rows, n)
    if len(basis) != 1:
        raise InvalidDataError(
            "haar element is not unique (solution space has dimension %d)" % len(basis))
    eta = basis[0]
    norm = None
    for i, c in eta.items():
        ei = eps[i].get(0)
        if ei is not None:
            norm = ei * c if norm is None else norm + ei * c
    if norm is None or norm.is_zero():
        raise InvalidDataError("counit kills every candidate haar element")
    return vec_scale(eta, norm.inv())


# -- verification -------------------------------------------------------------


def _mult_map_apply(algebra: StarAlgebra, v: dict) -> dict:
    """Multiplication A⊗A → A applied to a sparse vector."""
    n = algebra.dim
    acc: dict = {}
    for r, c in v.items():
        i, j = divmod(r, n)
        terms = algebra.mult.get((i, j))
        if terms is None:
            continue
        vec_add_into(acc, terms, c)
    return acc


def verify_quantum_group(g: QuantumGroup) -> Report:
    """Full Hopf/Haar axiom battery; an empty failure list means pass."""
    cached = g._cache.get("verify_report")
    if cached is not None:
        return cached

    from .algebra import verify_star_algebra

    a = g.algebra
    n = a.dim
    one = scalar(1)
    delta, eps, anti, h = g.coproduct, g.counit, g.antipode, g.haar_state
    unit = a.unit
    eta = g.haar_element

    def on_both_legs(f, v, target):
        return all(vec_eq(leg_apply(f, v, n, leg), target) for leg in (0, 1))

    def eps_hom(ij):
        ei, ej = eps.cols[ij[0]].get(0), eps.cols[ij[1]].get(0)
        rhs = None if (ei is None or ej is None) else ei * ej
        return entry_eq(eps.apply(a.basis_product(*ij)).get(0), rhs)

    def eps_star(i):
        ei = eps.cols[i].get(0)
        return entry_eq(eps.apply(a.star.cols[i]).get(0), None if ei is None else ei.conj())

    def antipode_law(j):
        target = vec_scale(unit, eps.cols[j].get(0))
        return all(vec_eq(_mult_map_apply(a, leg_apply(anti, delta.cols[j], n, leg)), target)
                   for leg in (0, 1))

    h_eta = g.haar_of_eta()
    h_eta_ok = (h_eta - scalar(Fraction(1, n))).is_zero()
    checks = list(verify_star_algebra(a).checks) + [
        sweep("coassociativity", range(n),
              lambda j: vec_eq(leg_apply(delta, delta.cols[j], n, 0),
                               leg_apply(delta, delta.cols[j], n, 1))),
        sweep("counit_law", range(n), lambda j: on_both_legs(eps, delta.cols[j], {j: one})),
        Check("coproduct_unital", vec_eq(delta.apply(unit), tensor_vec(unit, unit, n)), ()),
        sweep("coproduct_multiplicative", product(range(n), repeat=2),
              lambda ij: vec_eq(delta.apply(a.basis_product(*ij)),
                                tensor_mult(a, a, delta.cols[ij[0]], delta.cols[ij[1]]))),
        sweep("coproduct_star", range(n),
              lambda i: vec_eq(delta.apply(a.star.cols[i]), tensor_star(a, a, delta.cols[i]))),
        Check("counit_unital", entry_eq(eps.apply(unit).get(0), one), ()),
        sweep("counit_multiplicative", product(range(n), repeat=2), eps_hom),
        sweep("counit_star", range(n), eps_star),
        sweep("antipode_law", range(n), antipode_law),
        Check("antipode_involutive", anti.compose(anti) == LinearMap.identity(n, one), ()),
        sweep("antipode_star", range(n),
              lambda i: vec_eq(anti.apply(a.star.cols[i]), a.star_vec(anti.cols[i]))),
        Check("haar_unital", entry_eq(h.apply(unit).get(0), one), ()),
        sweep("haar_invariance", range(n),
              lambda j: on_both_legs(h, delta.cols[j], vec_scale(unit, h.cols[j].get(0)))),
        Check("haar_antipode_invariant", h.compose(anti) == h, ()),
        sweep("haar_tracial", ((i, j) for i in range(n) for j in range(i, n)),
              lambda ij: entry_eq(h.apply(a.basis_product(*ij)).get(0),
                                  h.apply(a.basis_product(ij[1], ij[0])).get(0))),
        _gram_positivity_check(g),
        Check("haar_element_counit", entry_eq(eps.apply(eta).get(0), one), ()),
        sweep("haar_element_absorbing", range(n),
              lambda i: vec_eq(a.multiply_vec({i: one}, eta),
                               vec_scale(eta, eps.cols[i].get(0)))),
        Check("haar_element_value", h_eta_ok, () if h_eta_ok else (str(h_eta),)),
    ]

    report = Report(g.label or "quantum-group", checks)
    g._cache["verify_report"] = report
    return report


def _gram_positivity_check(g: QuantumGroup) -> Check:
    """h(e_j* e_i) must be Hermitian positive definite (Sylvester pivots)."""
    a = g.algebra
    n = a.dim
    one = scalar(1)
    zero = zero_like(one)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        ei = {i: one}
        for j in range(n):
            v = g.haar_of(a.multiply_vec(a.star.cols[j], ei))
            gram[i][j] = v if v is not None else zero
    for i in range(n):
        for j in range(n):
            if not (gram[i][j] - gram[j][i].conj()).is_zero():
                return Check("haar_positive", False, ("not-hermitian", i, j))
    m = [row[:] for row in gram]
    exact = type(one) is QQi
    from .scalar import tolerance

    tol = tolerance()
    for k in range(n):
        piv = m[k][k]
        ok = piv.is_real() and (piv.re > 0 if exact else piv.re > tol)
        if not ok:
            return Check("haar_positive", False, ("pivot", k))
        pinv = piv.inv()
        for i in range(k + 1, n):
            f = m[i][k] * pinv
            if f.is_zero():
                continue
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return Check("haar_positive", True, ())


def check_haar_antipode_identity(g: QuantumGroup) -> Report:
    """S((id⊗h)(Δ(b)(1⊗c))) = (id⊗h)((1⊗b)Δ(c)) on all basis pairs."""
    cached = g._cache.get("haar_antipode_identity")
    if cached is not None:
        return cached
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

    report = Report(g.label or "quantum-group",
                    [sweep("haar_antipode_identity", product(range(n), repeat=2), identity)])
    g._cache["haar_antipode_identity"] = report
    return report
