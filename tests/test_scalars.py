from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge import scalar
from qpb.scalars import ONE, ZERO, Scalar, parse_scalar


def test_parse_integer():
    assert scalar(parse_scalar("3")) == Scalar(3)
    assert scalar(parse_scalar("-7")) == Scalar(-7)
    assert scalar(parse_scalar("0")) == ZERO


def test_parse_fraction():
    assert scalar(parse_scalar("-1/2")) == Scalar(Fraction(-1, 2))
    assert scalar(parse_scalar("4/6")) == Scalar(Fraction(2, 3))


def test_parse_imaginary():
    assert scalar(parse_scalar("2/5i")) == Scalar(0, Fraction(2, 5))
    assert scalar(parse_scalar("i")) == Scalar(0, 1)
    assert scalar(parse_scalar("-i")) == Scalar(0, -1)


def test_parse_both_parts():
    assert scalar(parse_scalar("1/3+2/5i")) == Scalar(Fraction(1, 3), Fraction(2, 5))
    assert scalar(parse_scalar("1-i")) == Scalar(1, -1)
    assert scalar(parse_scalar("-2-3i")) == Scalar(-2, -3)


def test_parse_gives_the_canonical_triple():
    assert parse_scalar("4/6") == (2, 0, 3)
    assert parse_scalar("-2/4+3/6i") == (-1, 1, 2)
    assert parse_scalar("2/5i") == (0, 2, 5)
    assert parse_scalar("0/7") == (0, 0, 1)


@pytest.mark.parametrize("bad", ["", "1.5", "one", "1/0", "i+1", "2//3", "+-1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_str_round_trip():
    for text in ["0", "3", "-1/2", "2/5i", "1/3+2/5i", "1-i", "-i", "5+i"]:
        s = scalar(parse_scalar(text))
        assert scalar(parse_scalar(str(s))) == s


def test_arithmetic():
    half = Scalar(Fraction(1, 2))
    third = Scalar(Fraction(1, 3))
    assert half + third == Scalar(Fraction(5, 6))
    assert half - third == Scalar(Fraction(1, 6))
    assert half * Scalar(4) == Scalar(2)
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (ONE + i) * (ONE - i) == Scalar(2)
    assert -i == Scalar(0, -1)


def test_inverse():
    z = Scalar(1, 1)
    assert z * z.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_mixed_int_comparison_and_hash():
    assert Scalar(2) == 2
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Scalar(2)) == hash(2)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_bool():
    assert not ZERO
    assert ONE
    assert Scalar(0, Fraction(1, 7))


def test_real_sum_and_difference_stay_real():
    half, third = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3))
    for value, expected in ((half + third, Fraction(5, 6)), (half - third, Fraction(1, 6))):
        assert value == Scalar(expected)
        assert value.im == 0
        assert hash(value) == hash(expected)
        assert str(value) == str(expected)


def test_real_plus_complex():
    z = Scalar(1) + Scalar(0, Fraction(2, 5))
    assert z == Scalar(1, Fraction(2, 5))
    assert str(z) == "1+2/5i"
    assert str(Scalar(1) - Scalar(0, Fraction(2, 5))) == "1-2/5i"
    assert str(Scalar(0, 1) - Scalar(Fraction(1, 3))) == "-1/3+1i"


def test_imaginary_parts_that_cancel():
    for value in (Scalar(1, 1) + Scalar(0, -1), Scalar(1, 1) - Scalar(0, 1)):
        assert value == Scalar(1)
        assert hash(value) == hash(Scalar(1)) == hash(1)
        assert str(value) == "1"
    assert not Scalar(0, 1) - Scalar(0, 1)
    assert str(Scalar(0, 1) - Scalar(0, 1)) == "0"


def test_int_and_fraction_operands():
    assert Scalar(1, 2) + 3 == Scalar(4, 2)
    assert Scalar(Fraction(1, 2)) + Fraction(1, 3) == Scalar(Fraction(5, 6))
    assert Scalar(1, 2) - Fraction(1, 2) == Scalar(Fraction(1, 2), 2)
    assert str(Scalar(2) - 2) == "0"
    # reflected forms
    assert 3 + Scalar(1) == Scalar(4)
    assert Fraction(1, 2) + Scalar(0, 1) == Scalar(Fraction(1, 2), 1)
    assert 3 - Scalar(1) == Scalar(2)
    assert str(1 - Scalar(0, 1)) == "1-1i"
    assert str(Fraction(1, 2) - Scalar(Fraction(1, 2))) == "0"


def test_unsupported_operands():
    with pytest.raises(TypeError):
        Scalar(1) + 1.5
    with pytest.raises(TypeError):
        1.5 - Scalar(1)


# ---------------------------------------------------------------------------
# properties: every operation against a reference pair of Fractions

PROPERTIES = settings(max_examples=200, deadline=None, database=None, derandomize=True)

_numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))
_denominators = st.one_of(
    st.integers(1, 12),
    st.integers(1, 10**30),
    # large primes, so sums and products keep large coprime denominators
    st.sampled_from([2**61 - 1, 10**9 + 7, 998244353]),
)
_fractions = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, _numerators, _denominators)
)
_pairs = st.tuples(_fractions, _fractions)


def _scalar(pair) -> Scalar:
    return Scalar(*pair)


def _ref_str(re, im) -> str:
    """The printed form, written over Fraction parts."""
    if not re and not im:
        return "0"
    parts = [str(re)] if re else []
    if im:
        if parts and im > 0:
            parts.append("+")
        parts.append(f"{im}i")
    return "".join(parts)


def _ref_hash(re, im) -> int:
    return hash(re) if not im else hash((re, im))


def assert_matches(s: Scalar, re: Fraction, im: Fraction):
    """s is the canonical form of re + im·i and prints, hashes and tests as it."""
    a, b, d = s._a, s._b, s._d
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert (s.re, s.im) == (re, im)
    assert str(s) == _ref_str(re, im)
    assert hash(s) == _ref_hash(re, im)
    assert bool(s) == bool(re or im)
    assert s == Scalar(re, im)
    assert scalar(parse_scalar(str(s))) == s


@PROPERTIES
@given(_pairs)
def test_property_construction_and_parsing(x):
    assert_matches(_scalar(x), *x)
    assert_matches(scalar(parse_scalar(_ref_str(*x))), *x)
    if not x[1]:
        assert _scalar(x) == x[0]
        assert hash(_scalar(x)) == hash(x[0])


@PROPERTIES
@given(_pairs, _pairs)
def test_property_arithmetic(x, y):
    (xr, xi), (yr, yi) = x, y
    s, t = _scalar(x), _scalar(y)
    assert_matches(s + t, xr + yr, xi + yi)
    assert_matches(s - t, xr - yr, xi - yi)
    assert_matches(s * t, xr * yr - xi * yi, xr * yi + xi * yr)
    assert_matches(-s, -xr, -xi)
    assert (s == t) == (x == y)
    # halving keeps a and b of the triple for most values and changes d
    assert (s == s * Scalar(Fraction(1, 2))) == (not s)


@PROPERTIES
@given(_pairs)
def test_property_cancelling_imaginary_parts(x):
    s = _scalar(x)
    # s + (r - s.im·i) is real; s - s is canonical zero
    other = Scalar(Fraction(1, 3), -x[1])
    assert_matches(s + other, x[0] + Fraction(1, 3), Fraction(0))
    assert_matches(s - s, Fraction(0), Fraction(0))
    assert (s - s)._d == 1


@PROPERTIES
@given(_pairs)
def test_property_inverse(x):
    re, im = x
    s = _scalar(x)
    n = re * re + im * im
    if not n:
        with pytest.raises(ZeroDivisionError):
            s.inverse()
        return
    assert_matches(s.inverse(), re / n, -im / n)
    assert s * s.inverse() == ONE


@PROPERTIES
@given(_pairs, st.integers(-(10**20), 10**20), _fractions)
def test_property_int_and_fraction_operands(x, k, f):
    re, im = x
    s = _scalar(x)
    assert_matches(s + k, re + k, im)
    assert_matches(k - s, k - re, -im)
    assert_matches(s * f, re * f, im * f)
    assert_matches(f - s, f - re, -im)
