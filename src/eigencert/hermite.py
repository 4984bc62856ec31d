"""Hermite quadratic forms attached to a polynomial, and their signatures.

For monic p of degree n with roots z_1..z_n (with multiplicity), the
Hermite matrix of a weight polynomial q is

    H_q[i][j] = sum_k q(z_k) z_k^(i+j)     (0-based i, j).

Each entry depends only on i+j, so H_q is the Hankel matrix of the 2n-1
numbers T_m = sum_k q(z_k) z_k^m = sum_t q_t S_{m+t}, where S_m are the
Newton power sums of p (Basu-Pollack-Roy, Algorithms in Real Algebraic
Geometry, ch. 4).  The power sums come from p's coefficients alone, so
every form is built from one list S_0..S_{2n}, computed once with H_1
(whose T_m is S_m), and is symmetric by construction.  Its signature
counts real roots weighted by the sign of q, which is what turns sign
tests into interval certificates: sigma(H_1) is the number of distinct
real roots, and sigma(H_q) differs from it exactly when q takes negative
values on some real root.

Every form holds exact rationals, so its signature is a certificate.  It
comes from fraction-free symmetric inertia (Bareiss elimination on the
cleared integer form) at every size.

The certificate stays sigma(H_q), but this module is no longer how the
pipeline computes it: for q = (x-a)(x-b) and square-free p, sigma(H_q) =
TaQ(q, p), which localize.py reads off one integer Sturm chain of p.
The forms here are the paper's route, and the tests use them as the
independent oracle for the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from eigencert import kernels
from eigencert.charpoly import (
    SquareMatrix,
    # unused here; certbench/tracing.py patches these names on this module
    charpoly,
    faddeev_leverrier,
)
from eigencert.poly import Poly


@dataclass
class HermiteForm:
    poly: Poly
    q: Poly
    matrix: SquareMatrix
    # power sums S_0..S_2n of poly; hermite_base fills them in on H_1
    sums: list = field(default_factory=list, repr=False, compare=False)
    _signature: int | None = field(default=None, repr=False, compare=False)


def power_sums(p: Poly, m: int) -> list:
    """Newton power sums S_0..S_m of the roots of monic p (degree >= 1)."""
    if p.degree() < 1:
        raise ValueError("power sums need degree >= 1")
    if not p.is_monic():
        raise ValueError("power sums need a monic polynomial")
    return kernels.power_sums(p.coeffs, m)


def hermite_base(p: Poly) -> HermiteForm:
    """H_1: the Hankel matrix of power sums S_0..S_{2n-2}.

    Keeps S_0..S_2n on the form, enough for every quadratic weight.
    """
    n = p.degree()
    sums = power_sums(p, 2 * n)
    rows = tuple(tuple(sums[i:i + n]) for i in range(n))
    return HermiteForm(p, Poly.from_coeffs([1]), SquareMatrix(rows), sums)


def hermite_weighted(base: HermiteForm, q: Poly) -> HermiteForm:
    """H_q as the Hankel matrix of T_m = sum_t q_t S_{m+t}, m = 0..2n-2.

    Reads the power sums kept on base; a q of degree above 2 needs sums
    past S_2n, which are computed afresh.  O(n deg q) arithmetic.
    """
    p = base.poly
    n = p.degree()
    last = 2 * n - 3 + len(q.coeffs)  # index of the last power sum read
    sums = base.sums
    if len(sums) <= last:
        sums = power_sums(p, last)
    rows = kernels.hermite_product(sums, list(q.coeffs), n)
    return HermiteForm(p, q, SquareMatrix(tuple(tuple(r) for r in rows)))


# no signature reads this; certbench/tracing.py patches the name on this module
def descartes_signature(char: Poly) -> int:
    """V(p_H(x)) - V(p_H(-x)): #positive - #negative roots, all roots real."""
    return kernels.sign_variations(char.coeffs) - kernels.sign_variations(
        char.reflected().coeffs
    )


def inertia(m: SquareMatrix):
    """(n+, n-, n0) of a symmetric matrix by congruence elimination."""
    if not m.is_symmetric():
        raise ValueError("inertia needs a symmetric matrix")
    rows, _ = m.cleared  # positive scaling preserves inertia
    return kernels.bareiss_inertia(rows)


def signature(form: HermiteForm) -> int:
    """sigma(H_q) = (#positive - #negative eigenvalues), cached on the form."""
    if form._signature is None:
        pos, neg, _ = inertia(form.matrix)
        form._signature = pos - neg
    return form._signature
