"""Input conversion: exact rationals, and rounding to binary floats.

Every polynomial and matrix in this package holds ``fractions.Fraction``
values, and every computation on them is exact.  A backend only says how
input is read:

* the exact backend reads ints, Fractions and decimal text exactly;
* a float backend rounds each value once, correctly, to ``bits`` bits in
  an mpmath context (one shared context per precision).  A matrix built
  on it holds the exact values of the rounded floats, and the
  fixed-precision references in charpoly.py and oracle.py compute on the
  mpf values themselves.

Decimal text is converted with a single correct rounding, never through
an intermediate double.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

MIN_BITS = 64


class ParseError(ValueError):
    """Malformed numeric literal or malformed matrix input."""


class BackendMismatchError(TypeError):
    """A value has no exact rational value (non-finite or not a number)."""


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
    digits ("1e-100000").
    """
    token = text.strip()
    match = _DECIMAL_RE.fullmatch(token)
    if not match:
        raise ParseError(f"not a decimal literal: {text!r}")
    mantissa, exponent = match.groups()
    size = len(mantissa) - ("." in mantissa)
    if exponent:
        digits = exponent.lstrip("+-").lstrip("0")
        # five or more significant digits are past the limit already
        size += int(digits or 0) if len(digits) < 5 else MAX_DECIMAL_DIGITS + 1
    if size > MAX_DECIMAL_DIGITS:
        raise ParseError(
            f"decimal literal of {len(token)} characters has too many digits "
            f"(its exact value needs more than {MAX_DECIMAL_DIGITS})"
        )
    return Fraction(token)


class ExactBackend:
    """Reads input as arbitrary-precision rationals."""

    def convert(self, value) -> Fraction:
        """Coerce value (int, Fraction, decimal string) to an exact scalar.

        Binary floats are refused: the caller has already rounded and we
        cannot know to what; feed decimal strings instead.
        """
        if isinstance(value, Fraction):
            return value
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
        # mpmath loads with the first float backend, not with the package
        from mpmath.ctx_mp import MPContext

        if bits < MIN_BITS:
            raise ValueError(f"float backend needs >= {MIN_BITS} bits, got {bits}")
        self.bits = bits
        ctx = MPContext()
        ctx.prec = bits
        self.ctx = ctx

    def from_fraction(self, value: Fraction):
        """Correctly rounded conversion of an exact rational."""
        from mpmath import libmp

        raw = libmp.from_rational(
            value.numerator, value.denominator, self.bits, libmp.round_nearest
        )
        return self.ctx.make_mpf(raw)

    def convert(self, value):
        if self.owns(value):
            return value
        if isinstance(value, int):
            return self.from_fraction(Fraction(value))
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        if isinstance(value, str):
            return self.from_fraction(parse_decimal(value))
        if isinstance(value, float):
            # Doubles are exact binary rationals; widening them is lossless.
            return self.from_fraction(Fraction(value))
        raise ParseError(f"cannot convert {value!r} to a float scalar")

    def owns(self, value) -> bool:
        return isinstance(value, self.ctx.mpf)

    def __repr__(self):
        return f"FloatBackend(bits={self.bits})"


EXACT = ExactBackend()


@lru_cache(maxsize=None)
def float_backend(bits: int) -> FloatBackend:
    """Shared FloatBackend for the given precision."""
    return FloatBackend(bits)


def exact_value(value) -> Fraction:
    """Exact rational value of a scalar from either backend.

    Binary floats (mpf) are exact dyadic rationals, so this never rounds.
    SquareMatrix.from_rows stores every entry through it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    mpf_tuple = getattr(value, "_mpf_", None)
    if mpf_tuple is not None:
        sign, man, exp, _ = mpf_tuple
        if man == 0:
            if exp != 0:
                raise BackendMismatchError(f"non-finite float {value!r}")
            return Fraction(0)
        man = -int(man) if sign else int(man)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    raise BackendMismatchError(f"no exact value for {value!r}")

