"""Artin-Mazur zeta functions from periodic-point counts and closed forms.

zeta(t) = exp(sum_n N_n t^n / n).  Counts are recovered from a rational
zeta by its logarithmic derivative; the kneading relation 1/zeta = Phi * D
is checked exactly by peeling Phi into (1 - t^p) factors.
"""

from __future__ import annotations

from typing import Sequence

from .series import (
    Q,
    RationalFn,
    TruncSeries,
    _convolve,
    _scaled,
    cyclotomic_peel,
    poly_mul,
    rf_to_series,
)


class NonIntegralCountError(ValueError):
    """A zeta function whose logarithmic derivative is not integer-valued."""


def zeta_from_counts(counts: Sequence[int], order: int) -> TruncSeries:
    """Zeta series through t**order from fixed-point counts N_1..N_order."""
    if len(counts) < order:
        raise ValueError("need counts N_1..N_%d" % order)
    log_zeta = TruncSeries.from_coeffs(
        [0] + [Q(counts[n - 1], n) for n in range(1, order + 1)], order
    )
    return log_zeta.exp()


def counts_from_zeta(rf: RationalFn, order: int) -> list[int]:
    """Fixed-point counts from a rational zeta via t * zeta' / zeta.

    Requires zeta(0) = 1.  Non-integral coefficients mean the input is not
    the zeta function of anything counting points, and are a hard error.
    """
    if rf.at_zero() != 1:
        raise ValueError("zeta must have constant term 1")
    # zeta = p/q over one common denominator, which cancels in t p'q/(pq) - t q'p/(pq)
    ints, _ = _scaled([*rf.num, *rf.den])
    p, q = ints[: len(rf.num)], ints[len(rf.num) :]
    dp, dq = ([i * x for i, x in enumerate(f)][1:] for f in (p, q))
    deg = len(p) + len(q) - 2
    num = [0] + [x - y for x, y in zip(_convolve(dp, q, deg - 1), _convolve(dq, p, deg - 1))]
    s = rf_to_series(RationalFn(num, _convolve(p, q, deg)), order)
    out = []
    for n in range(1, order + 1):
        c = s[n]
        if c.denominator != 1:
            raise NonIntegralCountError("coefficient of t^%d is %s" % (n, c))
        out.append(int(c))
    return out


def zeta_vu_closed_form(nu: int) -> RationalFn:
    """Closed-form zeta 1/(Phi_nu(t)(1-t^3)(1-t-t^2)) for nu >= 2 turning points.

    Phi_nu is 1-t^2 for even nu (boundary two-cycle) and 1-t for odd nu
    (fixed boundary point).
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    phi = (1, 0, -1) if nu % 2 == 0 else (1, -1)
    den = poly_mul(poly_mul(phi, (1, 0, 0, -1)), (1, -1, -1))
    return RationalFn((Q(1),), den)


def mt_relation_check(zeta: RationalFn, det: RationalFn) -> list[int] | None:
    """Recover Phi = 1/(zeta * D) and peel it into (1 - t^p) factors.

    Returns the factor exponents when Phi is a polynomial (reduced
    denominator 1) that peels completely; None otherwise.
    """
    if zeta.at_zero() != 1:
        raise ValueError("zeta must have constant term 1")
    if det.at_zero() != 1:
        raise ValueError("kneading determinant must have leading coefficient 1")
    phi = (zeta * det).reciprocal()
    if phi.den != (1,):
        return None
    factors, residual = cyclotomic_peel(phi.num)
    if residual != (Q(1),):
        return None
    return factors
