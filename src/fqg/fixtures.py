"""Named control families for the predicate batteries.

Each equivalence in the duality layer is tested in both truth values, so
the catalog carries families that fail exactly one predicate each, plus the
classical positives.
"""

from __future__ import annotations

from .algebra import scalar_algebra
from .constructors import function_algebra, group_algebra
from .groups import FiniteGroup, cyclic
from .hopf import QuantumGroup
from .linalg import LinearMap, leg_compose
from .qfamily import HopfOnTarget, QuantumFamily
from .scalar import scalar


def counit_degenerate_family(g: QuantumGroup) -> QuantumFamily:
    """a ↦ ε(a)·1⊗1 over the scalars: a *-homomorphism of rank one.

    Fails the Podles condition, the convolution product, the Haar element
    and the Haar state; preserves the convolution adjoint and the counit.
    """
    target = scalar_algebra()
    n = g.dim
    cols = []
    for j in range(n):
        e = g.counit.cols[j].get(0)
        cols.append({} if e is None else {i: e * c for i, c in g.algebra.unit.items()})
    alpha = LinearMap(n, n, cols)
    return QuantumFamily(g, target, alpha, None, "counit-degenerate(%s)" % g.label)


def broken_adjoint_family(g: QuantumGroup) -> QuantumFamily:
    """a ↦ D(a)⊗1 with D scaling one basis vector by i.

    A linear map (not a *-homomorphism) that breaks conjugate-linearity
    compatibility, so the convolution adjoint is not preserved.
    """
    if g.dim < 2:
        raise ValueError("needs dimension at least 2")
    target = scalar_algebra()
    n = g.dim
    one = scalar(1)
    imag = scalar(0, 1)
    cols = [{j: (imag if j == 1 else one)} for j in range(n)]
    alpha = LinearMap(n, n, cols)
    return QuantumFamily(g, target, alpha, None, "broken-adjoint(%s)" % g.label)


def translation_family(group: FiniteGroup) -> QuantumFamily:
    """The left-translation action of Γ on its own function algebra.

    Every slice is an algebra automorphism of fun(Γ) (so the pointwise
    relations hold), but translations are not group automorphisms, so the
    convolution-product relation fails for nontrivial Γ.
    """
    fun = function_algebra(group)
    fun_b = function_algebra(group)
    n = group.order
    one = scalar(1)
    cols = []
    for y in range(n):
        col = {}
        for gidx in range(n):
            x = group.mul(gidx, y)
            col[x * n + gidx] = one
        cols.append(col)
    alpha = LinearMap(n, n * n, cols)
    hopf = HopfOnTarget(fun_b.coproduct, fun_b.counit)
    return QuantumFamily(fun, fun_b.algebra, alpha, hopf,
                         "translation(%s)" % (group.label or group.order))


def sign_twisted_dual_family() -> QuantumFamily:
    """A family on the dual of Z_2 that satisfies the counit and coproduct
    stages of the dual-group proof chain but has a non-idempotent entry.

    Entries u_{y,x} = v_{y-x} with v_0 = δ_0 and v_1 = -δ_1 over fun(Z_2);
    the sign makes u_{0,1} square to +δ_1 ≠ -δ_1.
    """
    z2 = cyclic(2)
    grp = group_algebra(z2)
    fun_b = function_algebra(z2)
    one = scalar(1)
    neg = -one
    # v_0 = {0: 1}, v_1 = {1: -1}; column x holds u_{y,x} at tensor slot (y, b)
    cols = []
    for x in range(2):
        col = {}
        y_same = x
        col[y_same * 2 + 0] = one
        y_other = 1 - x
        col[y_other * 2 + 1] = neg
        cols.append(col)
    alpha = LinearMap(2, 4, cols)
    hopf = HopfOnTarget(fun_b.coproduct, fun_b.counit)
    return QuantumFamily(grp, fun_b.algebra, alpha, hopf, "sign-twisted(dual Z2)")


def target_permuted_family(qf: QuantumFamily, perm) -> QuantumFamily:
    """Compose a family with a basis permutation of the index algebra.

    Permutations that are not group maps of the index structure break the
    action equation while keeping shapes valid.
    """
    m = qf.target_algebra.dim
    if sorted(perm) != list(range(m)):
        raise ValueError("not a permutation of the index basis")
    pmat = LinearMap(m, m, [{perm[j]: scalar(1)} for j in range(m)])
    alpha = leg_compose(pmat, qf.alpha, m, 1)
    return QuantumFamily(qf.source, qf.target_algebra, alpha, qf.hopf_on_target,
                         "permuted(%s)" % qf.label)


def trivial_hopf_target() -> HopfOnTarget:
    """Coproduct/counit of the one-dimensional index algebra."""
    one = scalar(1)
    return HopfOnTarget(LinearMap(1, 1, [{0: one}]), LinearMap(1, 1, [{0: one}]))
