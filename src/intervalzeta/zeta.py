"""Artin-Mazur zeta functions from periodic-point counts and closed forms.

zeta(t) = exp(sum_n N_n t^n / n).  Counts are recovered from a rational
zeta by its logarithmic derivative; the kneading relation 1/zeta = Phi * D
is checked exactly by peeling Phi into (1 - t^p) factors.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .series import Q, RationalFn, TruncSeries, cyclotomic_peel, poly_mul, poly_sub, rf_to_series


class NonIntegralCountError(ValueError):
    """A zeta function whose logarithmic derivative is not integer-valued."""


# the most work, n^3 (b + n)^2, that zeta_from_counts admits for n counts
# of at most b bits (at least 1): exp makes about n^2 / 2 products of an
# integer of up to about n (b + n) bits by one of b + n bits, and printing
# the n coefficients, of up to about n (b + n) bits, costs as much again in
# CPython's quadratic int-to-str.  Fresh `zeta from-counts` processes
# (Python 3.11, 2 cores) took 3.1-3.5 s at this bound: 200, 100, 50 and 29
# counts of 590, 2136, 6274 and 14284 bits; 36 counts of 14284 bits
# (9.6e12) took 6.1 s.
MAX_FROM_COUNTS_WORK = 5 * 10**12


def zeta_from_counts(counts: Sequence[int]) -> TruncSeries:
    """Zeta series through t**n from the fixed-point counts N_1..N_n.
    Refuses, before exp runs, more work than MAX_FROM_COUNTS_WORK."""
    n = len(counts)
    bits = max(1, max((c.bit_length() for c in counts), default=0))
    work = n**3 * (bits + n) ** 2
    if work > MAX_FROM_COUNTS_WORK:
        raise ValueError("%d counts of up to %d bits: n^3 (b + n)^2 = %d, capped at %d"
                         % (n, bits, work, MAX_FROM_COUNTS_WORK))
    log_zeta = TruncSeries.from_coeffs([0] + [Q(c, k) for k, c in enumerate(counts, 1)], n)
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
    return RationalFn((1,), den)


def mt_relation_check(num: Sequence, den: Sequence, det: RationalFn) -> list[int] | None:
    """Recover Phi = 1/(zeta D) for zeta = num/den, which need not be
    reduced, and peel it into (1 - t^p) factors.

    Returns the factor exponents when Phi is a polynomial that peels
    completely; None otherwise.  Nothing is reduced.  With P = num D.num
    and Q = den D.den over one common denominator, P(0) = Q(0) != 0, and
    Phi = Q/P is divided out from the constant term up:
    Phi_k = (Q_k - sum_{j>=1} P_j Phi_{k-j}) / P_0 for k <= n = deg Q - deg P.
    A Phi that peels is a product of r <= n factors (1 - t^p), whose
    coefficient sizes sum to at most 2^r, so |Phi_k| <= 2^n; the division
    stops at the first Phi_k that is not an integer or is larger than 2^n.
    Each Phi_k kept thus has at most n + 1 bits, and each partial sum at
    most n + 2 + log2(len P) bits more than the widest entry of P and Q:
    no integer grows with k, as the remainders of a gcd would.  Phi is then
    the quotient exactly when P Phi = Q.
    """
    if not den or den[0] == 0:
        raise ValueError("denominator must have nonzero constant term")
    if not num or num[0] != den[0]:
        raise ValueError("zeta must have constant term 1")
    if det.at_zero() != 1:
        raise ValueError("kneading determinant must have leading coefficient 1")
    products = poly_mul(num, det.num), poly_mul(den, det.den)
    d = lcm(*(c.denominator for f in products for c in f))
    p, q = ([c.numerator * (d // c.denominator) for c in f] for f in products)
    n = len(q) - len(p)
    if n < 0:
        return None
    phi: list[int] = []
    for k in range(n + 1):
        s = q[k] - sum(p[j] * phi[k - j] for j in range(1, min(k + 1, len(p))))
        c, r = divmod(s, p[0])
        if r or abs(c) > 1 << n:
            return None
        phi.append(c)
    if poly_mul(p, phi) != tuple(q):
        return None
    factors, residual = cyclotomic_peel(phi)
    return factors if residual == (1,) else None
