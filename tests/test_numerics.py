from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from eigencert.charpoly import SquareMatrix
from eigencert.numerics import (
    EXACT,
    MAX_DECIMAL_DIGITS,
    ParseError,
    float_backend,
    parse_decimal,
)
from eigencert.poly import Poly


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


def test_parse_decimal_reads_exponent_zeros_of_any_script():
    # leading zeros of the exponent are no digits of the value, in ASCII or
    # not, however many there are
    assert parse_decimal("1e-" + "0" * 5000 + "1") == Fraction(1, 10)
    assert parse_decimal("1e\u0660\u0660\u0660\u0660\u0665") == 10**5
    assert parse_decimal(".0e-\u0660\u0664\u0662\u0669\u0669") == 0


@pytest.mark.parametrize("bad", ["", "nan", "inf", "1/3", "1.2.3", "0x10", "1e", "--1"])
def test_parse_decimal_rejects(bad):
    with pytest.raises(ParseError) as info:
        parse_decimal(bad)
    assert str(info.value) == f"not a decimal literal: {bad!r}"


# zeros of decimal digit runs: ASCII, Arabic-Indic, Devanagari, fullwidth,
# mathematical bold; int() and Fraction read every Unicode decimal digit
DIGIT_ZEROS = ("0", "\u0660", "\u0966", "\uff10", "\U0001d7ce")


@st.composite
def decimal_literals(draw):
    """Text _DECIMAL_RE accepts once stripped: any sign, mantissa form,
    leading zeros and exponent, and some literals whose exact value needs
    exactly MAX_DECIMAL_DIGITS digits."""
    def digits(count):
        return str(draw(st.integers(0, 10**count - 1))).zfill(count)

    if draw(st.booleans()):
        size = draw(st.integers(1, MAX_DECIMAL_DIGITS))
        whole = draw(st.integers(0, size))
        mantissa_digits = digits(size)
        # the exponent brings the value to the limit; at the limit already, it may go
        shift = MAX_DECIMAL_DIGITS - size
        exponent = str(draw(st.sampled_from([-shift, shift])))
        if not shift and draw(st.booleans()):
            exponent = None
    else:
        size = draw(st.integers(1, 12))
        whole = draw(st.integers(0, size))
        mantissa_digits = "0" * draw(st.integers(0, 3)) + digits(size)
        whole += len(mantissa_digits) - size
        exponent = str(draw(st.integers(-40, 40))) if draw(st.booleans()) else None
    head, tail = mantissa_digits[:whole], mantissa_digits[whole:]
    if not tail:
        mantissa = draw(st.sampled_from([head, head + "."]))
    else:
        mantissa = head + "." + tail
    text = draw(st.sampled_from(["", "+", "-"])) + mantissa
    if exponent is not None:
        sign = exponent[0] if exponent[0] == "-" else draw(st.sampled_from(["", "+"]))
        exponent = exponent.lstrip("-")
        text += draw(st.sampled_from("eE")) + sign + "0" * draw(st.integers(0, 3)) + exponent
    zero = draw(st.sampled_from(DIGIT_ZEROS))
    text = text.translate({ord("0") + k: chr(ord(zero) + k) for k in range(10)})
    space = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
    return draw(space) + text + draw(space)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(decimal_literals())
def test_parse_decimal_matches_fraction(text):
    value = parse_decimal(text)
    assert type(value) is Fraction and value == Fraction(text.strip())


def test_exact_backend_convert():
    assert EXACT.convert(3) == Fraction(3)
    assert EXACT.convert("0.5") == Fraction(1, 2)
    assert EXACT.convert(Fraction(2, 7)) == Fraction(2, 7)


def test_exact_backend_refuses_binary_floats():
    with pytest.raises(ParseError):
        EXACT.convert(0.1)


def test_backends_refuse_booleans():
    # bool is an int subclass; True must not read as 1
    for backend in (EXACT, float_backend(64)):
        for value in (True, False):
            with pytest.raises(ParseError, match="boolean"):
                backend.convert(value)
        with pytest.raises(ParseError, match="boolean"):
            SquareMatrix.from_rows([[True, 0], [0, False]], backend)
        assert backend.convert(1) == 1
    with pytest.raises(ParseError, match="boolean"):
        Poly.from_coeffs([True, True])


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
    assert type(x) is Fraction
    assert abs(x - Fraction(1, 3)) <= Fraction(1, 2**66)
    assert x == Fraction(2**65 // 3 + 1, 2**65)


def test_to_float_dyadic_exact():
    assert float_backend(64).convert(Fraction(5, 8)) == Fraction(5, 8)
    assert float_backend(256).convert(Fraction(-3, 1)) == -3


def test_float_convert_string_single_rounding():
    fb = float_backend(256)
    assert fb.convert("0.1") == fb.convert(Fraction(1, 10)) != Fraction(1, 10)
    # the double nearest 0.1 is read exactly, then rounded (here: kept)
    assert fb.convert(0.1) == Fraction(0.1) != fb.convert("0.1")


@pytest.mark.parametrize("value", [
    Fraction(0),
    Fraction(-5, 8),
    Fraction(3 * 2**300),
    Fraction(-7, 2**400),
    Fraction(-(2**255 + 1), 2**1000),
    Fraction(2**255 - 1) * 2**5000,
])
def test_exact_value_of_dyadic_floats(value):
    # 256 bits hold each of these dyadic values, so rounding keeps it
    got = float_backend(256).convert(value)
    assert type(got) is Fraction and got == value


def mpmath_rounded(value: Fraction, bits: int) -> Fraction:
    """value rounded to bits bits by mpmath, as an exact Fraction."""
    sign, man, exp, _ = libmp.from_rational(
        value.numerator, value.denominator, bits, libmp.round_nearest
    )
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


@st.composite
def roundable(draw):
    """(value, bits): random rationals, big integers, decimal-scaled values,
    exact ties and values a sixth of an ulp beside one, of magnitude
    2^-1000 to 2^1000."""
    bits = draw(st.sampled_from([64, 65, 128, 256]))
    kind = draw(st.sampled_from(["ratio", "integer", "decimal", "tie", "third"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "ratio":
        value = Fraction(draw(st.integers(1, 2**600)), draw(st.integers(1, 2**600)))
    elif kind == "integer":
        value = Fraction(draw(st.integers(0, 2**600)))
    elif kind == "decimal":
        value = Fraction(draw(st.integers(0, 10**40)), 10 ** draw(st.integers(0, 300)))
    else:
        # halfway between two floats of bits bits, where the last bit
        # decides, or a sixth of an ulp to either side of halfway
        man = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        third = Fraction(draw(st.sampled_from([1, 2])), 3)
        value = man + (Fraction(1, 2) if kind == "tie" else third)
    value *= Fraction(2) ** draw(st.integers(-400, 400))
    return sign * value, bits


@settings(max_examples=400, derandomize=True, deadline=None)
@given(roundable())
def test_float_convert_matches_mpmath(case):
    value, bits = case
    got = float_backend(bits).convert(value)
    assert type(got) is Fraction and got == mpmath_rounded(value, bits)


def test_float_convert_ties_to_even():
    fb = float_backend(64)
    odd, even = 2**63 + 1, 2**63 + 2
    assert fb.convert(Fraction(2 * odd + 1, 2)) == even
    assert fb.convert(Fraction(2 * even + 1, 2)) == even
    assert fb.convert(-Fraction(2 * odd + 1, 2) / 2**1000) == -Fraction(even, 2**1000)
    assert fb.convert(2**64 - 1) == 2**64 - 1
    assert fb.convert(2**65 - 1) == 2**65  # rounding up carries into a new bit


def test_float_convert_rejects_non_finite():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ParseError, match=f"non-finite float {value}"):
            float_backend(64).convert(value)
        with pytest.raises(ParseError, match=f"non-finite float {value}"):
            SquareMatrix.from_rows([[value]], float_backend(64))


def test_float_convert_rejects_junk():
    for value in ("not a number", "nan", None, [1], 1j):
        with pytest.raises(ParseError):
            float_backend(64).convert(value)
