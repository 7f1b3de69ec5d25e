"""Exact complex scalars with rational real and imaginary parts.

Every value the engine computes is a Gaussian rational, so equality
tests are decidable and there is no tolerance anywhere.  A Scalar
stores one canonical integer triple (a, b, d) for the value
(a + b·i)/d, with d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1)
and two scalars are equal exactly when their triples are.  Arithmetic
is plain int arithmetic: where both denominators are 1 no gcd runs,
otherwise one gcd over the triple normalizes the result.  `re` and `im`
give the parts as Fractions; no arithmetic goes through Fraction.

The table kernels do not add or multiply Scalars one term at a time.
They read a whole table once through `to_ints` as one common-denominator
int view (d, re, im): d is the lcm of the entries' denominators, entry k
is (re[k] + im[k]·i)/d, and im is None when every entry is real.  They
loop on those ints and write their result back once through `from_ints`,
which reduces each nonzero entry with one gcd and shares ZERO for every
zero.  A table of integers has d = 1, so no gcd runs at all.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from operator import attrgetter

# fractions is imported where a Fraction is built or accepted, and here
# only for the annotations, so a run on ints and literals never loads it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["Scalar", "ZERO", "ONE", "parse_scalar", "to_ints", "from_ints"]

_RATIONAL = r"\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"[+-]?{_RATIONAL}")
_RE_IMAG = re.compile(rf"(?P<sign>[+-]?)(?P<coef>{_RATIONAL})?i")
_RE_BOTH = re.compile(rf"(?P<re>[+-]?{_RATIONAL})(?P<sign>[+-])(?P<coef>{_RATIONAL})?i")

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
        self._a, self._b, self._d = _canonical(
            re.numerator, re.denominator, im.numerator, im.denominator
        )

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a + other._a, self._b + other._b, 1)
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a - other._a, self._b - other._b, 1)
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
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
        if not b and not y:
            re, im = a * x, 0
        else:
            re, im = a * x - b * y, a * y + b * x
        d = self._d * other._d
        if d == 1:
            return _make(re, im, 1)
        return _reduced(re, im, d)

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

    def __hash__(self):
        # matches hash of int/Fraction when the value is real, so mixed
        # comparisons stay consistent with __eq__
        if self._b:
            return hash((self.re, self.im))
        return hash(self.re)

    def inverse(self) -> Scalar:
        a, b = self._a, self._b
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("scalar zero has no inverse")
        # d/(a + b·i) = d·(a - b·i)/(a² + b²)
        return _reduced(self._d * a, -self._d * b, n)

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        coef = _ratio_str(b, d) + "i"
        if not a:
            return coef
        return _ratio_str(a, d) + ("+" if b > 0 else "") + coef

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
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _canonical(rn: int, rd: int, im_n: int, im_d: int) -> tuple[int, int, int]:
    """The canonical triple of rn/rd + (im_n/im_d)·i, denominators positive."""
    if rd == 1 and im_d == 1:
        return rn, im_n, 1
    d = rd * im_d // gcd(rd, im_d)
    a, b = rn * (d // rd), im_n * (d // im_d)
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _ratio_str(n: int, d: int) -> str:
    """`str` of the Fraction n/d."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


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

_nums, _imags, _dens = attrgetter("_a"), attrgetter("_b"), attrgetter("_d")


def to_ints(values: list[Scalar]) -> tuple[int, list[int], list[int] | None]:
    """The common-denominator view (d, re, im) of a list of Scalars.

    Entry k is (re[k] + im[k]·i)/d with d the lcm of the denominators;
    im is None when every entry is real.
    """
    re = list(map(_nums, values))
    im = list(map(_imags, values)) if any(map(_imags, values)) else None
    dens = set(map(_dens, values))
    if len(dens) <= 1:
        return (dens.pop() if dens else 1), re, im
    d = lcm(*dens)
    scale = [d // e for e in map(_dens, values)]
    re = [a * k for a, k in zip(re, scale)]
    if im is not None:
        im = [b * k for b, k in zip(im, scale)]
    return d, re, im


def from_ints(d: int, re: list[int], im: list[int] | None) -> list[Scalar]:
    """The Scalars of a view: one canonical Scalar per nonzero entry, ZERO
    itself for every zero entry."""
    if im is None:
        if d == 1:
            return [_make(a, 0, 1) if a else ZERO for a in re]
        return [_reduced(a, 0, d) if a else ZERO for a in re]
    if d == 1:
        return [_make(a, b, 1) if a or b else ZERO for a, b in zip(re, im)]
    return [_reduced(a, b, d) if a or b else ZERO for a, b in zip(re, im)]


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of a literal 'n' or 'n/d'."""
    num, _, den = text.partition("/")
    d = int(den) if den else 1
    if not d:
        raise ZeroDivisionError(text)
    return int(num), d


def parse_scalar(text: str) -> Scalar:
    """Parse a literal like '3', '-1/2', '2/5i', '1/3+2/5i', '1-i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    try:
        if _RE_REAL.fullmatch(s):
            return _make(*_canonical(*_ratio(s), 0, 1))
        m = _RE_BOTH.fullmatch(s)
        if m:
            return _make(*_canonical(*_ratio(m.group("re")), *_imaginary(m)))
        m = _RE_IMAG.fullmatch(s)
        if m:
            return _make(*_canonical(0, 1, *_imaginary(m)))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from exc
    raise ValueError(f"bad scalar literal: {text!r}")


def _imaginary(m: re.Match) -> tuple[int, int]:
    """Signed numerator and denominator of a literal's imaginary coefficient."""
    num, den = _ratio(m.group("coef") or "1")
    return (-num if m.group("sign") == "-" else num), den
