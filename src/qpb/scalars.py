"""Exact complex scalars with rational real and imaginary parts.

Every value the engine computes is a Gaussian rational, so equality
tests are decidable and there is no tolerance anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["Scalar", "ZERO", "ONE", "parse_scalar"]

_RATIONAL = r"\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"[+-]?{_RATIONAL}")
_RE_IMAG = re.compile(rf"(?P<sign>[+-]?)(?P<coef>{_RATIONAL})?i")
_RE_BOTH = re.compile(rf"(?P<re>[+-]?{_RATIONAL})(?P<sign>[+-])(?P<coef>{_RATIONAL})?i")


class Scalar:
    """Immutable complex number with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> Scalar:
        # fast path for internal arithmetic: components already Fractions
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return Scalar._make(self.re + other.re, _F0)
        return Scalar._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return Scalar._make(self.re - other.re, _F0)
        return Scalar._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return Scalar._make(self.re * other.re, _F0)
        return Scalar._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return Scalar._make(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # matches hash of int/Fraction when the value is real, so mixed
        # comparisons stay consistent with __eq__
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def conjugate(self) -> Scalar:
        return Scalar._make(self.re, -self.im)

    def inverse(self) -> Scalar:
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("scalar zero has no inverse")
        return Scalar._make(self.re / n, -self.im / n)

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            coef = str(self.im)
            if parts and self.im > 0:
                parts.append("+")
            parts.append(coef + "i")
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


_F0 = Fraction(0)


def _coerce(x):
    if type(x) is Scalar:
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    if isinstance(x, Scalar):
        return x
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)


def parse_scalar(text: str) -> Scalar:
    """Parse a literal like '3', '-1/2', '2/5i', '1/3+2/5i', '1-i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    try:
        if _RE_REAL.fullmatch(s):
            return Scalar(Fraction(s))
        m = _RE_BOTH.fullmatch(s)
        if m:
            coef = Fraction(m.group("coef") or 1)
            if m.group("sign") == "-":
                coef = -coef
            return Scalar(Fraction(m.group("re")), coef)
        m = _RE_IMAG.fullmatch(s)
        if m:
            coef = Fraction(m.group("coef") or 1)
            if m.group("sign") == "-":
                coef = -coef
            return Scalar(_F0, coef)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from exc
    raise ValueError(f"bad scalar literal: {text!r}")
