import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqg.scalar import (CFloat, QQi, backend_name, parse_scalar, format_scalar,
                        scalar, set_backend, tolerance, use_backend)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
qqis = st.builds(QQi, fractions, fractions)


def test_exact_field_values():
    a = QQi(Fraction(3, 4), Fraction(1, 2))
    assert (a * a.inv() - QQi(1)).is_zero()
    assert a.conj() == QQi(Fraction(3, 4), Fraction(-1, 2))
    assert (QQi(1, 2) * QQi(1, -2)) == QQi(5)


def test_exact_equality_is_decidable():
    assert QQi(Fraction(1, 3)) == QQi(Fraction(2, 6))
    assert QQi(Fraction(1, 3)) != QQi(Fraction(1, 3), Fraction(1, 10 ** 12))


@given(qqis, qqis, qqis)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b).conj() == a.conj() * b.conj()


@given(qqis)
def test_inverse_roundtrip(a):
    if not a.is_zero():
        assert ((a * a.inv()) - QQi(1)).is_zero()


def test_float_backend_tolerance():
    set_backend("float", 1e-9)
    try:
        assert CFloat(1e-10, 0.0).is_zero()
        assert CFloat(1.0, 0.0) == CFloat(1.0 + 1e-10, -1e-11)
        assert CFloat(1.0, 0.0) != CFloat(1.0 + 1e-6, 0.0)
    finally:
        set_backend("exact")


def test_backend_switch_and_factory():
    assert isinstance(scalar(1, 2), QQi)
    with use_backend("float", 1e-6):
        assert backend_name() == "float"
        assert tolerance() == 1e-6
        assert isinstance(scalar(1, 2), CFloat)
    assert backend_name() == "exact"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
def test_a_tolerance_must_be_finite_and_not_negative(tol):
    set_backend("float", 1e-6)
    with pytest.raises(ValueError, match="not a finite number >= 0"):
        set_backend("exact", tol)
    assert (backend_name(), tolerance()) == ("float", 1e-6)
    with pytest.raises(ValueError, match="not a finite number >= 0"):
        with use_backend("exact", tol):
            pass
    assert (backend_name(), tolerance()) == ("float", 1e-6)
    with use_backend("exact", 0):
        assert tolerance() == 0.0
    set_backend("float", 1e308)
    assert tolerance() == 1e308


@pytest.mark.parametrize("re,im", [("3/4", "0"), ("-1/2", "7"), ("0.25", "1e-3")])
def test_parse_format_roundtrip_exact(re, im):
    s = parse_scalar(re, im)
    again = parse_scalar(*format_scalar(s))
    assert s == again


def test_parse_float_backend():
    with use_backend("float"):
        s = parse_scalar("3/4", "0.5")
        assert abs(s.re - 0.75) < 1e-12 and abs(s.im - 0.5) < 1e-12


# -- int and Fraction components against a Fraction-only reference ------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
gaussian = st.tuples(small, small)  # the reference: a pair of Fractions


def _agrees(x, ref):
    """x has the reference's value, hash, sort key and serialized form."""
    re, im = ref
    return (x.re == re and x.im == im and hash(x) == hash(ref)
            and x.sort_key() == ref and format_scalar(x) == (str(re), str(im)))


@given(gaussian, gaussian)
def test_components_agree_with_fraction_reference(a, b):
    (ar, ai), (br, bi) = a, b
    x, y = QQi(ar, ai), QQi(br, bi)
    for comp, ref in ((x.re, ar), (x.im, ai)):
        assert type(comp) is (int if ref.denominator == 1 else Fraction)
    assert _agrees(x, a)
    assert _agrees(x + y, (ar + br, ai + bi))
    assert _agrees(x - y, (ar - br, ai - bi))
    assert _agrees(-x, (-ar, -ai))
    assert _agrees(x * y, (ar * br - ai * bi, ar * bi + ai * br))
    assert _agrees(x.conj(), (ar, -ai))
    assert (x == y) == (a == b)
    assert (x.sort_key() < y.sort_key()) == (a < b)
    if any(a):
        n = ar * ar + ai * ai
        inv = x.inv()
        assert _agrees(inv, (ar / n, -ai / n))
        assert {type(inv.re), type(inv.im)} <= {int, Fraction}


def test_integral_fraction_and_int_components_are_one_value():
    assert QQi(1) == QQi(Fraction(1)) and hash(QQi(1)) == hash(QQi(Fraction(1)))
    assert type(QQi(Fraction(4, 2)).re) is int
    # arithmetic may leave an integral value as a Fraction; it is the same scalar
    one = QQi(Fraction(1, 2)) * QQi(2)
    assert one == QQi(1) and hash(one) == hash(QQi(1))
    assert format_scalar(one) == format_scalar(QQi(1)) == ("1", "0")


def test_inverse_divides_exactly():
    half = QQi(2).inv()
    assert type(half.re) is Fraction and half.re == Fraction(1, 2) and half.im == 0
    assert format_scalar(half) == ("1/2", "0")
    minus_i = QQi(0, 1).inv()
    assert (minus_i.re, minus_i.im) == (0, -1) and type(minus_i.im) is int


# -- products by a unit ----------------------------------------------------------

UNITS = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1), QQi(Fraction(1)),
         QQi._raw(Fraction(1), 0)]  # arithmetic may leave an integral Fraction
NON_UNITS = [QQi(0), QQi(3), QQi(-7, 2), QQi(Fraction(2, 3)), QQi(0, Fraction(-5, 7)),
             QQi(Fraction(1, 2), -4), QQi(Fraction(-3, 4), Fraction(9, 5))]
OPERANDS = NON_UNITS + UNITS


def _by_hand(x, y):
    a, b, c, d = (Fraction(v) for v in (x.re, x.im, y.re, y.im))
    return (a * c - b * d, a * d + b * c)


@pytest.mark.parametrize("unit", UNITS, ids=repr)
@pytest.mark.parametrize("x", OPERANDS, ids=repr)
def test_a_product_by_a_unit_is_the_four_product_formula(unit, x):
    assert _agrees(unit * x, _by_hand(unit, x))
    assert _agrees(x * unit, _by_hand(x, unit))


@pytest.mark.parametrize("x", OPERANDS, ids=repr)
def test_a_product_by_one_returns_the_other_factor(x):
    assert QQi(1) * x is x
    if any(x is y for y in NON_UNITS):  # a unit on the left is tried first
        assert x * QQi(1) is x


def test_float_products_keep_their_own_path():
    for one in (CFloat(1.0), CFloat(-1.0), CFloat(0.0, 1.0)):
        for x in (CFloat(2.5, -1.0), CFloat(1.0), CFloat(0.1, 0.3)):
            for p, q in ((one, x), (x, one)):
                product = p * q
                assert product is not p and product is not q
                assert (product.re, product.im) == (p.re * q.re - p.im * q.im,
                                                    p.re * q.im + p.im * q.re)


class _ComponentWrites(ast.NodeVisitor):
    """Where a module stores to, deletes or ``setattr``s an attribute named
    ``re`` or ``im``, as the name of the innermost enclosing function."""

    def __init__(self):
        self.where, self.found = None, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr in ("re", "im") and not isinstance(node.ctx, ast.Load):
            self.found.append(self.where)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("setattr", "__setattr__", "delattr") and any(
                isinstance(arg, ast.Constant) and arg.value in ("re", "im")
                for arg in node.args):
            self.found.append(self.where)
        self.generic_visit(node)


def test_no_module_assigns_a_scalar_component_outside_its_constructors():
    """The product by 1 returns its other factor itself, so a scalar must
    never change once built: only scalar.py's ``__init__`` and ``_raw`` may
    assign ``.re`` or ``.im``."""
    src = Path(__file__).resolve().parent.parent / "src" / "fqg"
    writes = set()
    for path in sorted(src.glob("*.py")):
        visitor = _ComponentWrites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        writes |= {(path.name, where) for where in visitor.found}
    assert writes == {("scalar.py", "__init__"), ("scalar.py", "_raw")}


PYTHON_NUMBERS = (0, 1, -3, True, 1.0, 0.5, 1j, complex(1, 0), Fraction(1), Fraction(2, 3))


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("number", PYTHON_NUMBERS, ids=repr)
def test_comparing_a_scalar_with_a_python_number_raises(backend, number):
    with use_backend(backend):
        s = scalar(1)
        for compare in (lambda: s == number, lambda: number == s,
                        lambda: s != number, lambda: number != s):
            with pytest.raises(TypeError, match="Python number"):
                compare()


def test_comparing_scalars_of_the_two_backends_raises():
    # a value built under one backend meeting one built under the other is a
    # slip, not an unequal pair: QQi(1) == CFloat(1.0) was silently False
    for exact, approx in ((QQi(1), CFloat(1.0)), (QQi(0), CFloat(0.0)), (QQi(2, 1), CFloat(0.5))):
        for compare in (lambda: exact == approx, lambda: approx == exact,
                        lambda: exact != approx, lambda: approx != exact):
            with pytest.raises(TypeError, match="other backend"):
                compare()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_comparing_scalars_is_unchanged(backend):
    with use_backend(backend, 1e-9):
        one, two = scalar(1), scalar(2)
        assert one == scalar(1) and not one != scalar(1)
        assert one != two and not one == two
        assert scalar(0, 1) == scalar(0, 1) and scalar(0, 1) != scalar(0, -1)
        # anything that is not a number still compares by identity
        for other in ("1", None, (1,), object()):
            assert not one == other and one != other
            assert not other == one and other != one
        assert one not in [None, "1"]
    with use_backend("float", 1e-9):
        assert CFloat(1.0) == CFloat(1.0 + 1e-12)
