"""Certified real-eigenvalue localization.

Computes intervals that provably contain every real eigenvalue of a real
square matrix: Gershgorin disks bound the spectrum, Hermite-form signature
tests certify which regions actually touch the real spectrum, and certified
bisection narrows them to any requested width.  Every matrix and
polynomial holds exact rationals, and every step runs in exact
arithmetic; a float backend only rounds the input entries, by integer
arithmetic, and the matrix of the rounded values is certified exactly.
The package needs nothing outside the standard library.
"""

from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.localize import CertificationContext, certify_interval, locate
from eigencert.numerics import (
    EXACT,
    InternalConsistencyError,
    ParseError,
    float_backend,
    parse_decimal,
)
from eigencert.poly import Poly
from eigencert.refine import refine_all, refine_interval

__version__ = "0.1.0"


def __getattr__(name):
    # run lives in eigencert.cli; importing it here, eagerly, would make
    # `python -m eigencert.cli` find the module already imported
    if name == "run":
        from eigencert.cli import run

        return run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CertificationContext",
    "EXACT",
    "InternalConsistencyError",
    "ParseError",
    "Poly",
    "SquareMatrix",
    "__version__",
    "certify_interval",
    "charpoly",
    "float_backend",
    "locate",
    "parse_decimal",
    "refine_all",
    "refine_interval",
    "run",
]
