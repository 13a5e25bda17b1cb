"""Exact Gaussian-rational scalars and the exact/float mode discipline.

Every coefficient in the engine lives in one of two scalar fields:

* ``exact``  -- Gaussian rationals.  Each value ``(a + b i)/d`` is one
  triple of arbitrary-precision ints, kept in the normal form ``d > 0``,
  ``gcd(a, b, d) == 1``, so that equal values have equal triples.  All
  acceptance checks run here, so "equal" means equal: the field's
  ``tolerance`` is 0.
* ``float`` -- plain Python ``complex``, for scenarios given as
  floating-point numbers.  It is not faster than ``exact``.  Two float
  values count as equal within the field's ``tolerance``, relative to the
  scale of the values each comparison judges.  Neither tolerance is an
  option.

The two kinds never mix silently.  A ``GaussianRational`` refuses
arithmetic with ``float``/``complex`` operands, so a mode error surfaces at
the first offending operation instead of as a quietly contaminated result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _new(a: int, b: int, d: int) -> "GaussianRational":
    """Wrap a triple that is already in normal form."""
    out = object.__new__(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """Bring ``(a + b i)/d`` with ``d > 0`` to normal form: one 3-way gcd."""
    g = gcd(a, b, d)
    if g != 1:
        return _new(a // g, b // g, d // g)
    return _new(a, b, d)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    The value ``(a + b i)/d`` is stored as three Python ints ``a``, ``b``
    and ``d``, in the normal form ``d > 0`` and ``gcd(a, b, d) == 1``
    (zero is ``(0, 0, 1)``).  The normal form is unique, so equality and
    hashing compare triples directly, and every operation restores it with
    a single gcd over the three components.  ``re`` and ``im`` give the
    parts as ``Fraction`` values.  Instances are treated as immutable
    values.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        d = lcm(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return _new(int(other.numerator), 0, int(other.denominator))
        if isinstance(other, (float, complex)):
            raise TypeError(
                "exact/float mode mixing: GaussianRational cannot combine "
                f"with {type(other).__name__}"
            )
        return None

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1 = self._d
        d2 = other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1 = self._d
        d2 = other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(
            self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        # purely real factors dominate; skip the full Gauss product then
        if not b1:
            if not a1:
                return self
            return _reduced(a1 * a2, a1 * b2, self._d * other._d)
        if not b2:
            return _reduced(a1 * a2, b1 * a2, self._d * other._d)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # ((a1 + b1 i)/d1) / ((a2 + b2 i)/d2)
        #     = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        a1, b1 = self._a, self._b
        a2, b2, d2 = o._a, o._b, o._d
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by exact zero")
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparison / conversion --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int / int is correctly rounded, exactly as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Inverse of ``str``: accepts "p/q", "p/q i", "a+b i" forms."""
        t = text.replace(" ", "")
        if t.endswith("i"):
            body = t[:-1]
            # split at the last +/- that is not a leading sign
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "+-/":
                    re_part, im_part = body[:k], body[k:]
                    if im_part in ("+", "-"):
                        im_part += "1"
                    return GaussianRational(Fraction(re_part), Fraction(im_part))
            if body in ("", "+", "-"):
                body += "1"
            return GaussianRational(0, Fraction(body))
        return GaussianRational(Fraction(t), 0)


class _ExactField:
    """Constructors and predicates for exact-mode scalars."""

    kind = "exact"
    tolerance = 0.0  # values compare exactly

    zero = None  # type: GaussianRational
    one = None  # type: GaussianRational
    i = None  # type: GaussianRational

    def of(self, x):
        """Coerce an int/Fraction/str/GaussianRational into this field.

        A plain ``int`` is the triple ``(x, 0, 1)`` and a plain ``Fraction``
        the triple ``(numerator, 0, denominator)``: a Fraction is already in
        lowest terms with a positive denominator, which is the normal form.
        Neither goes through a Fraction round-trip.  Every other input (a
        ``bool``, a ``str``, a subclass) takes the general constructor, and
        a float or complex raises ``TypeError`` there.
        """
        t = type(x)
        if t is int:
            return _new(x, 0, 1)
        if t is Fraction:
            return _new(x.numerator, 0, x.denominator)
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    def complex_of(self, re, im=0):
        return GaussianRational(_as_fraction(re), _as_fraction(im))


class _FloatField:
    """Constructors and predicates for float-mode scalars."""

    kind = "float"
    tolerance = 1e-9  # relative to the scale of the values compared

    zero = complex(0.0)
    one = complex(1.0)
    i = complex(0.0, 1.0)

    def of(self, x):
        if isinstance(x, GaussianRational):
            return complex(x)
        if isinstance(x, str):
            return complex(float(Fraction(x)))
        if isinstance(x, Fraction):
            return complex(float(x))
        return complex(x)


_ExactField.zero = GaussianRational(0)
_ExactField.one = GaussianRational(1)
_ExactField.i = GaussianRational(0, 1)

EXACT = _ExactField()
FLOAT = _FloatField()


def field_for_mode(mode: str):
    if mode == "exact":
        return EXACT
    if mode == "float":
        return FLOAT
    raise ValueError(f"unknown scalar mode {mode!r}; expected 'exact' or 'float'")
