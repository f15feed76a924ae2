from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqg.algebra import (BlockAlgebra, Element, InvalidDataError, StarAlgebra,
                         flip, multiply, rank_of_span, scalar_algebra, star,
                         tensor_algebra, tensor_mult, verify_star_algebra)
from fqg.constructors import function_algebra, group_algebra
from fqg.groups import cyclic, direct_product, named_group
from fqg.linalg import vec_eq
from fqg.scalar import QQi, scalar

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=5)
coeff_lists = st.lists(st.builds(QQi, fractions, fractions), min_size=3, max_size=3)


@pytest.fixture(scope="module")
def fun_z2():
    return function_algebra(cyclic(2)).algebra


@pytest.fixture(scope="module")
def grp_z3():
    return group_algebra(cyclic(3)).algebra


def test_orthogonal_idempotents(fun_z2):
    d0, d1 = fun_z2.basis_element(0), fun_z2.basis_element(1)
    assert multiply(fun_z2, d0, d1).is_zero()
    assert multiply(fun_z2, d0, d0) == d0


@given(coeff_lists)
def test_unit_law_random(coeffs):
    a = group_algebra(cyclic(3)).algebra
    x = a.element(coeffs)
    assert multiply(a, a.unit_element(), x) == x
    assert multiply(a, x, a.unit_element()) == x


def test_group_ring_product(grp_z3):
    l1, l2 = grp_z3.basis_element(1), grp_z3.basis_element(2)
    assert multiply(grp_z3, l1, l2) == grp_z3.basis_element(0)


def test_star_examples(fun_z2, grp_z3):
    i_d0 = fun_z2.element({0: scalar(0, 1)})
    assert star(fun_z2, i_d0) == fun_z2.element({0: scalar(0, -1)})
    # group elements are unitary, so the involution inverts them
    assert star(grp_z3, grp_z3.basis_element(1)) == grp_z3.basis_element(2)


@given(coeff_lists)
def test_star_involutive(coeffs):
    a = group_algebra(cyclic(3)).algebra
    x = a.element(coeffs)
    assert star(a, star(a, x)) == x


def test_dimension_mismatch_rejected(fun_z2, grp_z3):
    with pytest.raises(InvalidDataError):
        multiply(fun_z2, fun_z2.basis_element(0), grp_z3.basis_element(0))


def test_tensor_dimension_and_unit(fun_z2, grp_z3):
    t = tensor_algebra(fun_z2, grp_z3)
    assert t.dim == fun_z2.dim * grp_z3.dim
    assert verify_star_algebra(t).passed
    u = t.unit_element()
    assert multiply(t, u, u) == u


def test_tensor_of_function_algebras_is_product_group_functions():
    z2 = cyclic(2)
    a = function_algebra(z2).algebra
    t = tensor_algebra(a, a)
    prod = function_algebra(direct_product(z2, z2)).algebra
    assert t.dim == prod.dim
    keys = set(t.mult) | set(prod.mult)
    for k in keys:
        assert vec_eq(t.mult.get(k, {}), prod.mult.get(k, {}))
    assert vec_eq(t.unit, prod.unit)
    assert t.star == prod.star


def test_tensor_associativity_on_structure_constants():
    a = function_algebra(cyclic(2)).algebra
    b = group_algebra(cyclic(2)).algebra
    c = BlockAlgebra([1, 1])
    left = tensor_algebra(tensor_algebra(a, b), c)
    right = tensor_algebra(a, tensor_algebra(b, c))
    keys = set(left.mult) | set(right.mult)
    for k in keys:
        assert vec_eq(left.mult.get(k, {}), right.mult.get(k, {}))
    assert vec_eq(left.unit, right.unit)
    assert left.star == right.star


def test_flip_is_star_isomorphism(fun_z2, grp_z3):
    a, b = fun_z2, grp_z3
    t_ab = tensor_algebra(a, b)
    t_ba = tensor_algebra(b, a)
    sigma = flip(a, b)
    for i in range(t_ab.dim):
        for j in range(t_ab.dim):
            lhs = sigma.apply(t_ab.basis_product(i, j))
            rhs = t_ba.multiply_vec(sigma.cols[i], sigma.cols[j])
            assert vec_eq(lhs, rhs)
    for i in range(t_ab.dim):
        assert vec_eq(sigma.apply(t_ab.star.cols[i]), t_ba.star_vec(sigma.cols[i]))
    back = flip(b, a)
    assert back.compose(sigma).entry(0, 0) == scalar(1)


def test_rank_of_span_examples(fun_z2):
    e0, e1 = fun_z2.basis_element(0), fun_z2.basis_element(1)
    assert rank_of_span([e0, e1, e0 + e1]) == 2
    assert rank_of_span([]) == 0
    assert rank_of_span([fun_z2.basis_element(i) for i in range(2)]) == 2


def test_verify_star_algebra_passes_on_catalog():
    assert verify_star_algebra(function_algebra(cyclic(3)).algebra).passed
    assert verify_star_algebra(group_algebra(named_group("S3")).algebra).passed


def test_verify_star_algebra_detects_broken_associativity():
    base = function_algebra(cyclic(3)).algebra
    mult = {k: dict(v) for k, v in base.mult.items()}
    mult[(1, 2)] = {0: scalar(1)}  # orthogonality broken on one pair
    bad = StarAlgebra(3, mult, dict(base.unit), base.star, "broken")
    rep = verify_star_algebra(bad)
    assert not rep.passed
    assert "associativity" in rep.failed_names()
    assert rep.check("associativity").witness


def test_block_algebra_m2_plus_c():
    b = BlockAlgebra([2, 1])
    assert b.dim == 5
    rep = verify_star_algebra(b)
    assert rep.passed, rep.failed_names()
    # e_{00} e_{01} = e_{01}, e_{01} e_{01} = 0 inside the 2x2 block
    e00, e01 = b.basis_element(0), b.basis_element(1)
    assert multiply(b, e00, e01) == e01
    assert multiply(b, e01, e01).is_zero()


def test_block_algebra_rejects_bad_weights():
    with pytest.raises(InvalidDataError):
        BlockAlgebra([2], trace_weights=[0])
    with pytest.raises(InvalidDataError):
        BlockAlgebra([])


def test_scalar_algebra_is_one_dimensional():
    c = scalar_algebra()
    assert c.dim == 1 and verify_star_algebra(c).passed


def test_element_validation(fun_z2):
    with pytest.raises(InvalidDataError):
        Element(fun_z2, {5: scalar(1)})


# -- the row-indexed tensor kernel against the materialized tensor algebra ----

_KERNEL_ALGEBRAS = {
    "fun": lambda: function_algebra(named_group("S3")).algebra,
    "grp": lambda: group_algebra(cyclic(3)).algebra,
    "blocks": lambda: BlockAlgebra([1, 2]),
}
nonzero = st.builds(QQi, fractions, fractions).filter(lambda c: not c.is_zero())


def _sparse_vectors(dim):
    return st.dictionaries(st.integers(0, dim - 1), nonzero, max_size=6)


def _dense(dim):
    return {k: QQi(k % 3 - 1 or 2, Fraction(1, k + 1)) for k in range(dim)}


@pytest.mark.parametrize("first,second", [("fun", "grp"), ("grp", "blocks"),
                                          ("blocks", "fun"), ("fun", "fun")])
def test_tensor_mult_matches_tensor_algebra(first, second):
    a, b = _KERNEL_ALGEBRAS[first](), _KERNEL_ALGEBRAS[second]()
    ab = tensor_algebra(a, b)
    vectors = _sparse_vectors(ab.dim)

    @given(vectors, vectors)
    def agree(u, v):
        assert vec_eq(tensor_mult(a, b, u, v), ab.multiply_vec(u, v))

    agree()
    # dense against sparse makes the kernel walk both the row and the grouped v
    dense = _dense(ab.dim)
    some = {0: QQi(Fraction(2, 3), -1), ab.dim - 1: QQi(0, Fraction(1, 2))}
    for u, v in ((dense, dense), (dense, some), (some, dense)):
        assert vec_eq(tensor_mult(a, b, u, v), ab.multiply_vec(u, v))
    assert tensor_mult(a, b, {}, some) == {} == tensor_mult(a, b, some, {})


def test_convolution_kernel_matches_tensor_algebra():
    from fqg.algebra import _tensor_product
    from fqg.fourier import _conv_rows, conv_table
    from fqg.linalg import LinearMap

    g = function_algebra(named_group("S3"))
    b = BlockAlgebra([1, 2])
    conv = StarAlgebra(g.dim, conv_table(g), {}, LinearMap.identity(g.dim, scalar(1)))
    ab = tensor_algebra(conv, b)
    vectors = _sparse_vectors(ab.dim)

    @given(vectors, vectors)
    def agree(u, v):
        assert vec_eq(_tensor_product(_conv_rows(g), b.mult, b.dim, u, v),
                      ab.multiply_vec(u, v))

    agree()
    dense = _dense(ab.dim)
    assert vec_eq(_tensor_product(_conv_rows(g), b.mult, b.dim, dense, dense),
                  ab.multiply_vec(dense, dense))
