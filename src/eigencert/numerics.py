"""Input conversion: exact rationals, and rounding to binary floats.

Every polynomial and matrix in this package holds ``fractions.Fraction``
values, and every computation on them is exact.  A backend only says how
input is read:

* the exact backend reads ints, Fractions and decimal text exactly;
* a float backend reads the same, and finite doubles exactly, then rounds
  the value once to ``bits`` significant bits (nearest, ties to even) by
  integer arithmetic.  It returns the exact Fraction of the rounded
  float, so a matrix built on it holds the values of its rounded entries.

Decimal text is read exactly and rounded once, never through an
intermediate double.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

MIN_BITS = 64


class ParseError(ValueError):
    """Malformed numeric literal or malformed matrix input."""


class InternalConsistencyError(ArithmeticError):
    """An internal invariant failed; indicates a bug."""


# Optional sign, digits with optional fractional part, optional exponent.
_DECIMAL_RE = re.compile(r"[+-]?(\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?")

# Most digits a decimal literal's exact value may need: its mantissa digits
# plus the size of its exponent.  The same as the interpreter's default
# limit on int() conversion, which bounds the mantissa but not the 10**|e|
# that Fraction builds for the exponent.
MAX_DECIMAL_DIGITS = 4300


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal literal into an exact rational.

    Accepts integer and finite decimal literals with optional sign and
    optional exponent ("3", "-0.625", "1e-7").  Anything else (including
    inf/nan and fraction syntax) raises ParseError naming the token, and so
    does a literal whose exact value needs more than MAX_DECIMAL_DIGITS
    digits ("1e-100000") or whose digits pass the interpreter's limit on
    str -> int conversion.
    """
    token = text.strip()
    match = _DECIMAL_RE.fullmatch(token)
    if not match:
        raise ParseError(f"not a decimal literal: {text!r}")
    mantissa, exponent = match.groups()
    whole, _, frac = mantissa.partition(".")
    size = len(whole) + len(frac)
    power = 0
    if exponent:
        digits = exponent.lstrip("+-")
        # past four significant digits the exponent is past the limit
        # already; int() reads a zero of any script, one digit at a time
        if any(map(int, digits[:-4])):
            size = MAX_DECIMAL_DIGITS + 1
        else:
            power = int(digits[-4:])
            size += power
            if exponent[0] == "-":
                power = -power
    if size > MAX_DECIMAL_DIGITS:
        raise ParseError(
            f"decimal literal of {len(token)} characters has too many digits "
            f"(its exact value needs more than {MAX_DECIMAL_DIGITS})"
        )
    # the value is sign * int(whole + frac) * 10**(power - len(frac))
    try:
        numerator = int(whole + frac)
    except ValueError:  # the interpreter's limit on str -> int digits
        raise ParseError(
            f"decimal literal of {len(token)} characters has more digits than "
            f"the interpreter converts ({sys.get_int_max_str_digits()})"
        ) from None
    if token[0] == "-":
        numerator = -numerator
    shift = power - len(frac)
    if shift >= 0:
        return Fraction(numerator * 10**shift)
    return Fraction(numerator, 10**-shift)


class ExactBackend:
    """Reads input as arbitrary-precision rationals."""

    def convert(self, value) -> Fraction:
        """Coerce value (int but not bool, Fraction, decimal string) to an exact scalar.

        Binary floats are refused: the caller has already rounded and we
        cannot know to what; feed decimal strings instead.
        """
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise ParseError(f"refusing boolean {value!r}; pass the number instead")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return parse_decimal(value)
        if isinstance(value, float):
            raise ParseError(
                f"refusing binary float {value!r} in exact mode; "
                "pass a decimal string instead"
            )
        raise ParseError(f"cannot convert {value!r} to an exact scalar")

    def __repr__(self):
        return "ExactBackend()"


class FloatBackend:
    """Rounds input to binary floats with a fixed mantissa size."""

    def __init__(self, bits: int):
        if bits < MIN_BITS:
            raise ValueError(f"float backend needs >= {MIN_BITS} bits, got {bits}")
        self.bits = bits

    def convert(self, value) -> Fraction:
        """value rounded to bits significant bits, as an exact Fraction.

        Reads what EXACT reads, and finite doubles exactly (widening a
        double is lossless), then rounds once: to nearest, ties to even.
        """
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ParseError(f"non-finite float {value!r} is not a scalar")
            value = Fraction(value)
        value = EXACT.convert(value)
        num, den = abs(value.numerator), value.denominator
        if num == 0:
            return value
        # scale num/den by 2^shift into [2^(bits-1), 2^bits): the estimate
        # lands in [2^(bits-1), 2^(bits+1)), and one halving corrects it
        shift = self.bits - num.bit_length() + den.bit_length()
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        if num >= den << self.bits:
            den <<= 1
            shift -= 1
        man, rem = divmod(num, den)
        if 2 * rem > den or (2 * rem == den and man & 1):
            man += 1
        if value < 0:
            man = -man
        return Fraction(man, 1 << shift) if shift >= 0 else Fraction(man << -shift)

    def __repr__(self):
        return f"FloatBackend(bits={self.bits})"


EXACT = ExactBackend()


@lru_cache(maxsize=None)
def float_backend(bits: int) -> FloatBackend:
    """Shared FloatBackend for the given precision."""
    return FloatBackend(bits)
