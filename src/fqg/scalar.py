"""Scalar arithmetic: exact Gaussian rationals with an optional float backend.

The exact backend represents a complex scalar by a pair of exact rational
components (:class:`QQi`): a Python ``int`` for an integral value and a
:class:`fractions.Fraction` for the rest.  Nearly every structure constant is
0 or ±1 and the Haar data is 1/n, so most arithmetic runs on ints.  Every
built-in construction has rational structure constants, so every identity
check is decided by exact equality.

The float backend keeps a pair of doubles and compares componentwise against
a global tolerance (default ``1e-9``).  It exists for imported numerical data
and for the one cross-check that genuinely needs roots of unity.
"""

from __future__ import annotations

import inspect
import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, wraps

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOLERANCE = 1e-9


def _exact(x):
    """``x`` as an exact component: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _not_a_scalar(s, other):
    """What ``s == other`` gives when ``other`` is not a scalar of the same
    backend: a Python number or a scalar of the other backend raises
    TypeError, since the answer False would hide the slip (``scalar(1) == 1``
    is a comparison of a QQi with an int, and ``QQi(1) == CFloat(1.0)`` one
    of a value built under one backend with a value built under the other);
    anything else is NotImplemented.  Python tries the reflected ``__eq__``
    on a number first, so ``1 == s`` and both ``!=`` raise too."""
    if isinstance(other, (int, float, complex, Fraction)):
        raise TypeError("cannot compare %s with the Python number %r; build a scalar first"
                        % (type(s).__name__, other))
    if isinstance(other, (QQi, CFloat)):
        raise TypeError("cannot compare %s with %r, a scalar of the other backend"
                        % (type(s).__name__, other))
    return NotImplemented


class QQi:
    """Gaussian rational ``re + im*i``.

    Each component is an ``int`` or a ``Fraction``.  The constructor stores
    integral values as ints and ints stay ints under ``+ - *``; a Fraction
    result that happens to be integral may stay a Fraction.  Both types
    compare, hash and print alike (``hash(1) == hash(Fraction(1))``,
    ``str(Fraction(3)) == "3"``), so equality, hashing, ``sort_key`` and
    :func:`format_scalar` do not depend on which one a component is.  Where
    values are produced rather than combined, integral components are ints
    again: :meth:`inv` returns them so, and ``linalg._eliminate`` passes its
    rows through the constructor once.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    @staticmethod
    def _raw(re, im):
        s = object.__new__(QQi)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        return QQi._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QQi._raw(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QQi._raw(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        if type(other) is QQi:
            # a factor 1 returns the other one itself (values are never
            # mutated); only an int 1 is looked for, as integral components
            # nearly always are ints
            if not b and type(a) is int and a == 1:
                return other
            if not d and type(c) is int and c == 1:
                return self
        if not b:
            if not d:
                return QQi._raw(a * c, 0)
            return QQi._raw(a * c, a * d)
        if not d:
            return QQi._raw(a * c, b * c)
        return QQi._raw(a * c - b * d, a * d + b * c)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        if type(n) is int:  # then so are both components, and int / int is a float
            return QQi._raw(_exact(Fraction(self.re, n)), _exact(Fraction(-self.im, n)))
        return QQi._raw(_exact(self.re / n), _exact(-self.im / n))

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return QQi._raw(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def magnitude(self):
        return math.hypot(float(self.re), float(self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __eq__(self, other):
        if type(other) is QQi:
            return self.re == other.re and self.im == other.im
        return _not_a_scalar(self, other)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return "QQi(%s)" % self.re
        return "QQi(%s, %s)" % (self.re, self.im)


class CFloat:
    """Floating complex scalar; equality is componentwise up to the tolerance."""

    __slots__ = ("re", "im")
    __hash__ = None

    def __init__(self, re=0.0, im=0.0):
        self.re = float(re)
        self.im = float(im)

    @staticmethod
    def _raw(re, im):
        s = object.__new__(CFloat)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        return CFloat._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return CFloat._raw(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return CFloat._raw(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        return CFloat._raw(a * c - b * d, a * d + b * c)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0.0:
            raise ZeroDivisionError("inverse of zero scalar")
        return CFloat._raw(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return CFloat._raw(self.re, -self.im)

    def is_zero(self):
        tol = _state.tol
        return abs(self.re) <= tol and abs(self.im) <= tol

    def is_real(self):
        return abs(self.im) <= _state.tol

    def magnitude(self):
        return math.hypot(self.re, self.im)

    def sort_key(self):
        return (self.re, self.im)

    def __eq__(self, other):
        if type(other) is CFloat:
            tol = _state.tol
            return abs(self.re - other.re) <= tol and abs(self.im - other.im) <= tol
        return _not_a_scalar(self, other)

    def __repr__(self):
        return "CFloat(%r, %r)" % (self.re, self.im)


class _State(threading.local):
    """Per-thread backend selection, so a float-backend computation in one
    worker cannot change comparison semantics under another."""

    def __init__(self):
        self.name = EXACT
        self.tol = DEFAULT_TOLERANCE


_state = _State()


def valid_tolerance(tol) -> float:
    """``tol`` as a float if it is finite and at least 0; else ValueError."""
    tol = float(tol)
    if not 0 <= tol < math.inf:  # false for nan too
        raise ValueError("tolerance %r is not a finite number >= 0" % tol)
    return tol


def set_backend(name: str, tol: float | None = None) -> None:
    """Select the backend, and the float tolerance unless ``tol`` is None;
    a bad name or tolerance raises ValueError and changes nothing."""
    if name not in (EXACT, FLOAT):
        raise ValueError("unknown backend %r" % name)
    if tol is not None:
        _state.tol = valid_tolerance(tol)
    _state.name = name


def backend_name() -> str:
    return _state.name


def tolerance() -> float:
    return _state.tol


@contextmanager
def use_backend(name: str, tol: float = DEFAULT_TOLERANCE):
    old_name, old_tol = _state.name, _state.tol
    set_backend(name, tol)
    try:
        yield
    finally:
        _state.name, _state.tol = old_name, old_tol


def scalar(re=0, im=0):
    """Build a scalar of the active backend from rational or float data."""
    if _state.name == EXACT:
        return QQi(re, im)
    return CFloat(float(re), float(im))


def zero_like(s):
    return QQi._raw(0, 0) if type(s) is QQi else CFloat._raw(0.0, 0.0)


def one_like(s):
    return QQi._raw(1, 0) if type(s) is QQi else CFloat._raw(1.0, 0.0)


def format_scalar(s) -> tuple[str, str]:
    """Serialize a scalar as a pair of number strings ("p/q" when exact)."""
    if type(s) is QQi:
        return (str(s.re), str(s.im))
    return (repr(s.re), repr(s.im))


# Largest decimal exponent a number string may carry: Fraction("1e99999999")
# would compute 10**99999999 before anything could reject the value.
MAX_EXPONENT = 1000


def parse_number(text: str) -> Fraction:
    """Parse a rational or decimal number string exactly, refusing exponents
    beyond :data:`MAX_EXPONENT` and zero denominators with ``ValueError``."""
    if "e" in text or "E" in text:
        exponent = text.lower().rpartition("e")[2]
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_large = False  # not an exponent; the parse below rejects or reads it
        if too_large:
            raise ValueError("exponent of %.40r exceeds %d" % (text, MAX_EXPONENT))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %.40r" % text) from None
    except ValueError:
        return Fraction(float(text))


def parse_scalar(re_text: str, im_text: str = "0"):
    """Parse a scalar pair ("p/q" or decimal strings) in the active backend."""
    re_f = parse_number(str(re_text))
    im_f = parse_number(str(im_text))
    if _state.name == EXACT:
        return QQi(re_f, im_f)
    return CFloat(float(re_f), float(im_f))


def _backend_key():
    """What a memoised result depends on besides its arguments: the backend,
    and for the float backend its tolerance."""
    name = _state.name
    return name if name == EXACT else (name, _state.tol)


def backend_cached(fn):
    """Memoize a constructor whose output embeds scalars of the active
    backend; the cache key carries :func:`_backend_key`, so results built
    under one setting never answer for another."""
    cached = lru_cache(maxsize=None)(lambda _backend, *args: fn(*args))

    @wraps(fn)
    def wrapper(*args):
        return cached(_backend_key(), *args)

    wrapper.cache_clear = cached.cache_clear
    return wrapper


def object_cache(fn):
    """Memoize ``fn(obj, *args)`` in ``obj._cache``, keyed by the function,
    the remaining arguments (keywords and defaults bound to their positions)
    and :func:`_backend_key`, so a result computed under one backend or
    tolerance never answers for another.  The memo dies with the object."""
    signature = inspect.signature(fn)
    arity = len(signature.parameters) - 1

    @wraps(fn)
    def wrapper(obj, *args, **kwargs):
        if kwargs or len(args) != arity:
            bound = signature.bind(obj, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn, args, _backend_key())
        if key not in obj._cache:
            obj._cache[key] = fn(obj, *args)
        return obj._cache[key]

    return wrapper


def cache_value(cached, obj, value, *args) -> None:
    """Store ``value``, known to equal ``cached(obj, *args)`` for an
    :func:`object_cache` function ``cached``, as that call's memo; the
    remaining arguments are given positionally."""
    obj._cache[(inspect.unwrap(cached), args, _backend_key())] = value
