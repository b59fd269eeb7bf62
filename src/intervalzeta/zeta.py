"""Artin-Mazur zeta functions from periodic-point counts and closed forms.

zeta(t) = exp(sum_n N_n t^n / n).  Counts are recovered from a rational
zeta by its logarithmic derivative; the kneading relation 1/zeta = Phi * D
is checked exactly by peeling Phi into (1 - t^p) factors.
"""

from __future__ import annotations

from typing import Sequence

from .series import Q, RationalFn, TruncSeries, cyclotomic_peel, poly_mul, poly_sub, rf_to_series


class NonIntegralCountError(ValueError):
    """A zeta function whose logarithmic derivative is not integer-valued."""


# the most work, n^3 (b + n)^2, that zeta_from_counts admits for n = order
# terms from counts of at most b bits (at least 1): exp makes about n^2 / 2
# products of an integer of up to about n (b + n) bits by one of b + n bits,
# and printing the n coefficients, of up to about n (b + n) bits, costs as
# much again in CPython's quadratic int-to-str.  Fresh `zeta from-counts`
# processes (Python 3.11, 2 cores) took 3.1-3.5 s at this bound: 200, 100, 50
# and 29 counts of 590, 2136, 6274 and 14284 bits; 36 counts of 14284 bits
# (9.6e12) took 6.1 s.
MAX_FROM_COUNTS_WORK = 5 * 10**12


# the most work, (n_1 n_2 b)^2, that zeta mt-check admits: n_1 and n_2 are
# the lengths of zeta D's numerator and denominator before reduction, and b
# the bits of zeta's largest entry plus those of D's widest numerator or
# denominator.  Reducing zeta and then zeta D runs primitive-PRS gcds whose
# remainders' contents cost about that.  Fresh `zeta mt-check` processes
# (Python 3.11, 2 cores) at this bound took 0.9-3.0 s: with D = (1-2t)/(1-t)
# of --rho 0,2,0, 98 + 98 entries of 58 bits, 50 + 50 of 219 and 98 + 2 of
# 1498; with a D of 133 + 134 coefficients, 98 + 98 of 9 bits.  100 + 100
# entries of 40 digits, now refused, took 13-15 s on --rho 0,2,0.
MAX_MT_CHECK_WORK = 36 * 10**10


def check_mt_work(num: Sequence[int], den: Sequence[int], det: RationalFn) -> None:
    """Refuse, before zeta = num/den is reduced, a zeta that with the
    determinant D(t) makes more work than MAX_MT_CHECK_WORK."""
    n1, n2 = len(num) + len(det.num), len(den) + len(det.den)
    bits = max(1, max((abs(x).bit_length() for x in (*num, *den)), default=0))
    bits += max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in (*det.num, *det.den))
    work = (n1 * n2 * bits) ** 2
    if work > MAX_MT_CHECK_WORK:
        raise ValueError("zeta D of %d + %d entries of up to %d bits: (n_1 n_2 b)^2 = %d, capped at %d"
                         % (n1, n2, bits, work, MAX_MT_CHECK_WORK))


def zeta_from_counts(counts: Sequence[int], order: int) -> TruncSeries:
    """Zeta series through t**order from fixed-point counts N_1..N_order.
    Refuses, before exp runs, more work than MAX_FROM_COUNTS_WORK."""
    if len(counts) < order:
        raise ValueError("need counts N_1..N_%d" % order)
    bits = max(1, max((c.bit_length() for c in counts[:order]), default=0))
    work = order**3 * (bits + order) ** 2
    if work > MAX_FROM_COUNTS_WORK:
        raise ValueError("%d counts of up to %d bits: n^3 (b + n)^2 = %d, capped at %d"
                         % (order, bits, work, MAX_FROM_COUNTS_WORK))
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
    # zeta = p/q, so t zeta'/zeta = t (p'q - q'p) / (pq)
    p, q = rf.num, rf.den
    dp, dq = ([i * x for i, x in enumerate(f)][1:] for f in (p, q))
    s = rf_to_series(RationalFn((0, *poly_sub(poly_mul(dp, q), poly_mul(dq, p))), poly_mul(p, q)), order)
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
    # P = zeta * D is reduced with P(0) = num[0] = 1, so 1/P = den/num is
    # reduced too: a polynomial exactly when num is 1, and then Phi = den
    product = zeta * det
    if product.num != (1,):
        return None
    factors, residual = cyclotomic_peel(product.den)
    if residual != (Q(1),):
        return None
    return factors
