from fractions import Fraction

import pytest

from eigencert.numerics import (
    EXACT,
    BackendMismatchError,
    ParseError,
    exact_value,
    float_backend,
    parse_decimal,
)


def test_parse_decimal_integers():
    assert parse_decimal("3") == 3
    assert parse_decimal("-17") == -17
    assert parse_decimal("+0") == 0


def test_parse_decimal_fractional():
    assert parse_decimal("0.625") == Fraction(5, 8)
    assert parse_decimal("-1.25") == Fraction(-5, 4)
    assert parse_decimal(".5") == Fraction(1, 2)
    assert parse_decimal("1e-7") == Fraction(1, 10**7)
    assert parse_decimal("2.5E2") == 250


def test_parse_decimal_is_exact_not_binary():
    # 0.1 has no finite binary expansion; the parse must not go through one
    assert parse_decimal("0.1") == Fraction(1, 10)


def test_parse_decimal_bounds_digits_with_exponent():
    # mantissa digits plus |exponent| may reach the limit, not pass it
    assert parse_decimal("1e-4299") == Fraction(1, 10**4299)
    assert parse_decimal("1e+0004299") == 10**4299
    assert parse_decimal("0." + "1" * 4299) == Fraction(int("1" * 4299), 10**4299)
    for bad in ("1e-4300", "10e4299", "1e10000000", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="too many digits"):
            parse_decimal(bad)


@pytest.mark.parametrize("bad", ["", "nan", "inf", "1/3", "1.2.3", "0x10", "1e", "--1"])
def test_parse_decimal_rejects(bad):
    with pytest.raises(ParseError):
        parse_decimal(bad)


def test_exact_backend_convert():
    assert EXACT.convert(3) == Fraction(3)
    assert EXACT.convert("0.5") == Fraction(1, 2)
    assert EXACT.convert(Fraction(2, 7)) == Fraction(2, 7)


def test_exact_backend_refuses_binary_floats():
    with pytest.raises(ParseError):
        EXACT.convert(0.1)


def test_float_backend_interned():
    assert float_backend(256) is float_backend(256)
    assert float_backend(256) == float_backend(256)
    assert float_backend(256) != float_backend(128)
    with pytest.raises(ValueError):
        float_backend(32)


def test_to_float_correct_rounding():
    fb = float_backend(64)
    x = fb.convert(Fraction(1, 3))
    # round-to-nearest: |x - 1/3| <= 2^-66 (half ulp of a 64-bit mantissa)
    err = abs(exact_value(x) - Fraction(1, 3))
    assert err <= Fraction(1, 2**66)
    assert fb.owns(x)


def test_to_float_dyadic_exact():
    assert exact_value(float_backend(64).convert(Fraction(5, 8))) == Fraction(5, 8)
    assert exact_value(float_backend(256).convert(Fraction(-3, 1))) == -3


def test_float_convert_string_single_rounding():
    fb = float_backend(256)
    via_string = fb.convert("0.1")
    via_fraction = fb.from_fraction(Fraction(1, 10))
    assert via_string == via_fraction


@pytest.mark.parametrize("value", [
    Fraction(0),
    Fraction(-5, 8),
    Fraction(3 * 2**300),
    Fraction(-7, 2**400),
    Fraction(-(2**255 + 1), 2**1000),
    Fraction(2**255 - 1) * 2**5000,
])
def test_exact_value_of_dyadic_floats(value):
    x = float_backend(256).convert(value)
    got = exact_value(x)
    assert type(got) is Fraction and got == value
    # the value of the (sign, man, exp) triple, built independently
    sign, man, exp, _ = x._mpf_
    assert got == (-1) ** sign * man * Fraction(2) ** exp


def test_exact_value_rejects_non_finite():
    fb = float_backend(64)
    for value in (fb.ctx.inf, -fb.ctx.inf, fb.ctx.nan):
        with pytest.raises(BackendMismatchError, match="non-finite"):
            exact_value(value)


def test_exact_value_rejects_junk():
    with pytest.raises(BackendMismatchError):
        exact_value("not a number")
