import tracemalloc

import pytest

from fqg.algebra import InvalidDataError
from fqg.groups import (CATALOG, FiniteGroup, _perm_group, cyclic, dihedral, direct_product,
                        group_from_table, klein4, named_group, quaternion8,
                        symmetric)

from support import benchmark_ladder_groups


def test_catalog_orders():
    expected = {"Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7, "Z8": 8,
                "K4": 4, "S3": 6, "S4": 24, "D4": 8, "Q8": 8}
    for name in CATALOG:
        assert named_group(name).order == expected[name]


def test_trivial_group():
    g = cyclic(1)
    assert g.order == 1 and g.identity == 0


def test_symmetric3_nonabelian():
    s3 = symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    with pytest.raises(InvalidDataError):
        symmetric(5)


def test_identity_is_index_zero_everywhere():
    for name in CATALOG:
        assert named_group(name).identity == 0


def test_latin_square_rejection():
    with pytest.raises(InvalidDataError):
        group_from_table([[0, 0], [1, 1]])


def test_associativity_rejection():
    # a Latin square with two-sided identity that is not a group (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidDataError, match=r"^multiplication is not associative "
                                                r"at \(1, 1, 2\)$"):
        group_from_table(table)


def test_largest_cyclic_group_constructs():
    # validation is O(n^2) per generator, not O(n^3): a single generator here
    g = cyclic(1024)
    assert g.order == 1024 and g.inverse[1] == 1023
    assert g.generating_sequence() == [1]


def test_identity_normalization():
    # Z2 written with the identity at index 1
    g = group_from_table([[1, 0], [0, 1]])
    assert g.identity == 0
    assert g.table == ((0, 1), (1, 0))


def test_quaternion_structure():
    q8 = quaternion8()
    assert q8.order == 8
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    minus_one = next(x for x in range(8) if q8.element_order(x) == 2)
    i = next(x for x in range(8) if q8.element_order(x) == 4)
    assert q8.mul(i, i) == minus_one
    assert not q8.is_abelian()


def test_dihedral_4():
    d4 = dihedral(4)
    assert d4.order == 8 and not d4.is_abelian()
    assert sorted(d4.element_order(x) for x in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    with pytest.raises(InvalidDataError):
        dihedral(2)


@pytest.mark.parametrize("m", [*range(3, 65), 96])
def test_dihedral_is_the_group_of_its_vertex_maps(m):
    """The product rule gives the maps i -> k ± i mod m as _perm_group
    composes and orders them: the same table, identity, inverses and label."""
    ref = _perm_group([tuple((k + d * i) % m for i in range(m))
                       for k in range(m) for d in (1, -1)], "D%d" % m)
    g = dihedral(m)
    assert (g.table, g.identity, g.inverse, g.label) == (
        ref.table, ref.identity, ref.inverse, ref.label)


@pytest.mark.parametrize("build", [lambda: named_group("D513"),
                                   lambda: named_group("D999999999"),
                                   lambda: dihedral(10**9)])
def test_dihedral_above_the_order_limit_is_refused_before_any_table(build):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDataError, match="exceeds the limit"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_klein4_and_products():
    k4 = klein4()
    assert k4.order == 4 and all(k4.element_order(x) <= 2 for x in range(4))
    z6 = direct_product(cyclic(2), cyclic(3))
    assert z6.order == 6 and z6.is_abelian()
    assert named_group("Z2xZ2").order == 4


def _validated_product(a, b):
    """a x b as the validating reader takes it, from the table written out."""
    n, m = a.order, b.order
    return group_from_table([[a.table[i1][i2] * m + b.table[j1][j2]
                              for i2 in range(n) for j2 in range(m)]
                             for i1 in range(n) for j1 in range(m)])


@pytest.mark.parametrize("name", ["Z2xZ2"] + sorted(
    {name for name in benchmark_ladder_groups() if "x" in name}
    | {"Z3xD4", "Z3xD8", "Z2xS4", "Z4xD6"}))
def test_direct_product_equals_the_validated_table(name):
    """direct_product builds the product of two validated groups without
    validating it again; the validating reader gives the same group."""
    factors = [named_group(part) for part in name.split("x")]
    checked = factors[0]
    for factor in factors[1:]:
        checked = _validated_product(checked, factor)
    group = named_group(name)
    assert (group.order, group.table, group.identity, group.inverse) == \
        (checked.order, checked.table, checked.identity, checked.inverse)
    if name == "Z2xZ2":
        assert klein4().table == group.table


def test_direct_product_with_the_identity_off_index_0():
    """A factor whose identity is not index 0: the product is reindexed, as
    group_from_table does, so its identity is 0."""
    shifted = FiniteGroup([[(x + y + 2) % 4 for y in range(4)] for x in range(4)], "Z4+2")
    group = direct_product(shifted, cyclic(2))
    checked = _validated_product(shifted, cyclic(2))
    assert group.identity == 0
    assert (group.table, group.inverse) == (checked.table, checked.inverse)


def test_element_orders_and_exponent():
    z6 = cyclic(6)
    assert [z6.element_order(x) for x in range(6)] == [1, 6, 3, 2, 3, 6]
    assert z6.exponent() == 6
    assert named_group("S3").exponent() == 6


def test_generating_sequence_generates():
    for name in ("Z8", "S3", "D4", "Q8", "S4"):
        g = named_group(name)
        gens = g.generating_sequence()
        closure = {g.identity}
        frontier = [g.identity]
        while frontier:
            fresh = []
            for x in frontier:
                for s in gens:
                    for y in (g.mul(x, s), g.mul(s, x)):
                        if y not in closure:
                            closure.add(y)
                            fresh.append(y)
            frontier = fresh
        assert len(closure) == g.order


def test_unknown_name_rejected():
    with pytest.raises(InvalidDataError):
        named_group("E8")
