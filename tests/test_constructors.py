import gc

import pytest

from fqg.classical import universal_classical_family
from fqg.constructors import (check_fundamental_examples, function_algebra,
                              group_algebra, pontryagin_character_check,
                              quantum_group_data_equal)
from fqg.fourier import dual_pair
from fqg.groups import FiniteGroup, cyclic, named_group
from fqg.hopf import verify_quantum_group
from fqg.linalg import vec_eq, flip_map
from fqg.scalar import scalar, use_backend
from fractions import Fraction


def test_function_algebra_coproduct_on_z2():
    g = function_algebra(cyclic(2))
    one = scalar(1)
    # δ_1 comultiplies to δ_0⊗δ_1 + δ_1⊗δ_0
    assert vec_eq(g.coproduct.cols[1], {0 * 2 + 1: one, 1 * 2 + 0: one})
    assert vec_eq(g.coproduct.cols[0], {0: one, 3: one})


def test_haar_elements():
    fun = function_algebra(named_group("S3"))
    assert vec_eq(fun.haar_element, {0: scalar(1)})
    grp = group_algebra(named_group("S3"))
    sixth = scalar(Fraction(1, 6))
    assert vec_eq(grp.haar_element, {g: sixth for g in range(6)})
    assert grp.haar_of_eta() == sixth


def test_function_algebra_commutative_group_ring_cocommutative():
    s3 = named_group("S3")
    fun = function_algebra(s3)
    assert fun.algebra.is_commutative()
    grp = group_algebra(s3)
    sigma = flip_map(6, 6, scalar(1))
    assert sigma.compose(grp.coproduct) == grp.coproduct  # cocommutative
    assert not grp.algebra.is_commutative()


def test_function_algebra_cocommutative_iff_abelian():
    sigma4 = flip_map(4, 4, scalar(1))
    z4 = function_algebra(cyclic(4))
    assert sigma4.compose(z4.coproduct) == z4.coproduct
    s3 = function_algebra(named_group("S3"))
    sigma6 = flip_map(6, 6, scalar(1))
    assert sigma6.compose(s3.coproduct) != s3.coproduct


def test_both_constructions_verify_for_catalog_samples():
    for name in ("Z6", "K4", "Q8"):
        group = named_group(name)
        assert verify_quantum_group(function_algebra(group)).passed
        assert verify_quantum_group(group_algebra(group)).passed


@pytest.mark.parametrize("name", ["Z4", "S3", "Q8"])
def test_fundamental_examples(name):
    rep = check_fundamental_examples(named_group(name))
    assert rep.passed, rep.failed_names()


def test_dual_of_function_algebra_equals_group_ring_data():
    group = named_group("D4")
    pair = dual_pair(function_algebra(group))
    assert quantum_group_data_equal(pair.dual, group_algebra(group))


def test_character_duality_runs_on_float_backend():
    with use_backend("float", 1e-9):
        for n in (3, 4, 5, 6):
            rep = pontryagin_character_check(n)
            assert rep.passed, (n, rep.failed_names())
            assert rep.backend == "float"


def test_character_duality_refuses_exact_backend():
    with pytest.raises(RuntimeError):
        pontryagin_character_check(3)


def test_character_duality_is_the_hopf_morphism_report():
    with use_backend("float"):
        rep = pontryagin_character_check(4)
    assert [c.name for c in rep.checks] == [
        "multiplicative", "unital", "star_preserving", "coproduct_intertwined",
        "counit_intertwined", "antipode_intertwined", "haar_intertwined"]
    assert rep.passed and rep.subject == "hopf-morphism(grp(Z4) -> fun(Z4))"


def _live_groups():
    gc.collect()
    return sum(type(o) is FiniteGroup for o in gc.get_objects())


def test_constructor_memos_die_with_their_group():
    before = _live_groups()
    for _ in range(5):
        group = cyclic(5)
        built = [f(group) for f in (function_algebra, group_algebra, universal_classical_family)]
        # memoised on the group: a second call returns the same objects
        assert all(f(group) is x for f, x in zip(
            (function_algebra, group_algebra, universal_classical_family), built))
    with use_backend("float"):
        for n in (3, 4, 5, 6):
            assert pontryagin_character_check(n).passed
    del group, built
    assert _live_groups() == before
