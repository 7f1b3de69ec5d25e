from fractions import Fraction

import pytest

from qpb.scalars import ONE, ZERO, Scalar, parse_scalar


def test_parse_integer():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("-7") == Scalar(-7)
    assert parse_scalar("0") == ZERO


def test_parse_fraction():
    assert parse_scalar("-1/2") == Scalar(Fraction(-1, 2))
    assert parse_scalar("4/6") == Scalar(Fraction(2, 3))


def test_parse_imaginary():
    assert parse_scalar("2/5i") == Scalar(0, Fraction(2, 5))
    assert parse_scalar("i") == Scalar(0, 1)
    assert parse_scalar("-i") == Scalar(0, -1)


def test_parse_both_parts():
    assert parse_scalar("1/3+2/5i") == Scalar(Fraction(1, 3), Fraction(2, 5))
    assert parse_scalar("1-i") == Scalar(1, -1)
    assert parse_scalar("-2-3i") == Scalar(-2, -3)


@pytest.mark.parametrize("bad", ["", "1.5", "one", "1/0", "i+1", "2//3", "+-1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_str_round_trip():
    for text in ["0", "3", "-1/2", "2/5i", "1/3+2/5i", "1-i", "-i", "5+i"]:
        s = parse_scalar(text)
        assert parse_scalar(str(s)) == s


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


def test_division_and_inverse():
    z = Scalar(1, 1)
    assert z / z == ONE
    assert z * z.inverse() == ONE
    assert Scalar(3) / Scalar(2) == Scalar(Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_mixed_int_comparison_and_hash():
    assert Scalar(2) == 2
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Scalar(2)) == hash(2)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_bool_and_conjugate():
    assert not ZERO
    assert ONE
    assert Scalar(0, Fraction(1, 7))
    assert Scalar(1, 2).conjugate() == Scalar(1, -2)


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
