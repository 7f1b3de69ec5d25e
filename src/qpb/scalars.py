"""Exact complex scalars with rational real and imaginary parts, for the
exact linear algebra of `linalg`.

A Scalar is one value (a + b·i)/d, held as its canonical triple from
`views`: d > 0 and gcd(a, b, d) == 1, so two Scalars are equal exactly
when their triples are.  `linalg` eliminates on sparse rows of Scalars
that store only the nonzero entries, and `bundle` and `calculus` build
those rows; every table is an int view and makes no Scalar, so only a
call that eliminates compiles this module.  A Fraction is accepted as
an operand, but no arithmetic goes through Fraction, and `fractions` is
imported only where a Fraction is built or accepted.
"""

from __future__ import annotations

from .views import _from_ratios, lowest_terms, ratio_text

__all__ = ["Scalar", "ZERO", "ONE"]

_new = object.__new__


class Scalar:
    """Immutable Gaussian rational (a + b·i)/d in canonical form."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        from fractions import Fraction

        re, im = Fraction(re), Fraction(im)
        self._a, self._b, self._d = _from_ratios(
            re.numerator, re.denominator, im.numerator, im.denominator
        )

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, x, y = self._a, self._b, other._a, other._b
        return _reduced(a * x - b * y, a * y + b * x, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def inverse(self) -> Scalar:
        a, b = self._a, self._b
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("scalar zero has no inverse")
        # d/(a + b·i) = d·(a - b·i)/(a² + b²)
        return _reduced(self._d * a, -self._d * b, n)

    def __str__(self):
        return ratio_text(self._a, self._b, self._d)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def _make(a: int, b: int, d: int) -> Scalar:
    """A Scalar from a triple that is already canonical."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """A Scalar from any triple with d > 0."""
    return _make(*lowest_terms(a, b, d))


def _coerce(x):
    if type(x) is Scalar:
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Scalar):
        return x
    from fractions import Fraction

    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
