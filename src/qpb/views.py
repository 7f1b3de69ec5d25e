"""The common-denominator int view every table is stored as, and the
canonical triple every document literal parses to.

Every value the engine computes is a Gaussian rational, so equality
tests are decidable and there is no tolerance anywhere.  A value is one
canonical integer triple (a, b, d) for (a + b·i)/d, with d > 0 and
gcd(a, b, d) == 1, so zero is (0, 0, 1) and two values are equal exactly
when their triples are.  `parse_scalar` reads a document literal
straight to that triple.

A table is one int view (d, re, im): d > 0 is a common denominator,
entry k is (re[k] + im[k]·i)/d, and im is None when every entry is
real.  A stored view is canonical (`canonical`): gcd(d, re, im) == 1,
so equal tables have equal views and `==` and every witness scan
compare plain ints.  Documents parse to views, the kernels
loop on the views and hand back views, and a printer formats an entry
with `ratio_text`.  A table of integers has d = 1, so no gcd runs at
all.  Only the exact linear algebra of `linalg` computes with single
values, as the `Scalar`s of `scalars`.
"""

from __future__ import annotations

import itertools
import operator
import re
from math import gcd, lcm

__all__ = [
    "parse_scalar",
    "lowest_terms",
    "canonical",
    "gathered",
    "take",
    "indicator",
    "add_views",
    "mul_views",
    "ratio_text",
]

_RATIONAL = r"\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"[+-]?{_RATIONAL}")
_RE_IMAG = re.compile(rf"(?P<sign>[+-]?)(?P<coef>{_RATIONAL})?i")
_RE_BOTH = re.compile(rf"(?P<re>[+-]?{_RATIONAL})(?P<sign>[+-])(?P<coef>{_RATIONAL})?i")


def _from_ratios(rn: int, rd: int, im_n: int, im_d: int) -> tuple[int, int, int]:
    """The canonical triple of rn/rd + (im_n/im_d)·i, denominators positive."""
    d = lcm(rd, im_d)
    return lowest_terms(rn * (d // rd), im_n * (d // im_d), d)


def lowest_terms(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of (a + b·i)/d, for any d > 0."""
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def ratio_text(a: int, b: int, d: int) -> str:
    """The text of (a + b·i)/d, for any d > 0, as a document writes it:
    each part prints in lowest terms, so the triple need not be reduced."""
    if not b:
        return _ratio_str(a, d)
    coef = _ratio_str(b, d) + "i"
    if not a:
        return coef
    return _ratio_str(a, d) + ("+" if b > 0 else "") + coef


def _ratio_str(n: int, d: int) -> str:
    """`str` of the Fraction n/d."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


# gcd over at most this many entries at once, so no argument tuple the
# size of a whole table is built
_GCD_CHUNK = 4096


def _gcd_with(g: int, values: list[int]) -> int:
    for start in range(0, len(values), _GCD_CHUNK):
        if g == 1:
            break
        g = gcd(g, *values[start : start + _GCD_CHUNK])
    return g


def canonical(d: int, re: list[int], im: list[int] | None):
    """A view in lowest terms: gcd(d, re, im) == 1 and im None when every
    imaginary part is zero, so two views of equal tables are equal.  The
    lists of a view already in lowest terms are kept without a copy."""
    if im is not None and not any(im):
        im = None
    g = _gcd_with(d, re)
    if im is not None:
        g = _gcd_with(g, im)
    if g == 1:
        return d, re, im
    return d // g, [a // g for a in re], None if im is None else [b // g for b in im]


def gathered(view, gather):
    """The view whose parts are `gather` applied to each part of `view`;
    an absent imaginary part stays absent."""
    d, re, im = view
    return d, gather(re), None if im is None else gather(im)


def take(positions: list[int]):
    """The gather that reads `positions` of a part, in order, as it is iterated."""
    return lambda part: map(part.__getitem__, positions)


def indicator(size: int, k: int):
    """The view of the indicator of position k among `size` entries."""
    re = [0] * size
    re[k] = 1
    return 1, re, None


def add_views(x, y):
    """x + y for two views of one length, over the lcm of their
    denominators; the result is not reduced."""
    dx, rx, ix = x
    dy, ry, iy = y
    d = lcm(dx, dy)
    fx, fy = d // dx, d // dy

    def add(u, v):
        if u is None:
            u = itertools.repeat(0)
        if v is None:
            v = itertools.repeat(0)
        if fx == 1 and fy == 1:
            return list(map(operator.add, u, v))
        return [a * fx + b * fy for a, b in zip(u, v)]

    return d, add(rx, ry), None if ix is None and iy is None else add(ix, iy)


def mul_views(x, y):
    """The entrywise product of two views of one length; the result is not
    reduced."""
    dx, rx, ix = x
    dy, ry, iy = y
    if ix is None and iy is None:
        return dx * dy, list(map(operator.mul, rx, ry)), None
    ix = itertools.repeat(0) if ix is None else ix
    iy = itertools.repeat(0) if iy is None else iy
    # (a + b·i)(u + v·i) = (au - bv) + (av + bu)·i
    terms = list(zip(rx, ix, ry, iy))
    return dx * dy, [a * u - b * v for a, b, u, v in terms], [a * v + b * u for a, b, u, v in terms]


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of a literal 'n' or 'n/d'."""
    num, _, den = text.partition("/")
    d = int(den) if den else 1
    if not d:
        raise ZeroDivisionError(text)
    return int(num), d


def parse_scalar(text: str) -> tuple[int, int, int]:
    """The canonical triple (a, b, d) of a literal like '3', '-1/2',
    '2/5i', '1/3+2/5i' or '1-i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    try:
        if _RE_REAL.fullmatch(s):
            (rn, rd), (im_n, im_d) = _ratio(s), (0, 1)
        elif m := _RE_BOTH.fullmatch(s):
            (rn, rd), (im_n, im_d) = _ratio(m.group("re")), _imaginary(m)
        elif m := _RE_IMAG.fullmatch(s):
            (rn, rd), (im_n, im_d) = (0, 1), _imaginary(m)
        else:
            raise ValueError(f"bad scalar literal: {text!r}")
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from exc
    return _from_ratios(rn, rd, im_n, im_d)


def _imaginary(m: re.Match) -> tuple[int, int]:
    """Signed numerator and denominator of a literal's imaginary coefficient."""
    num, den = _ratio(m.group("coef") or "1")
    return (-num if m.group("sign") == "-" else num), den
