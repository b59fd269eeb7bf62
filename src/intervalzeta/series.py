"""Truncated formal power series and rational functions over exact rationals.

Everything here is exact, and all operations are closed at a stated
truncation order.  Coefficients go in as ints, ``fractions.Fraction`` values
or anything ``Fraction`` reads exactly.  A coefficient comes out as an
``int`` when it is an integer and as a ``Fraction`` otherwise, never as a
float; the two compare, hash and print alike.  Inner loops run on Python
ints: the inputs are scaled over one common denominator, and each output
coefficient is divided by it once (`_q`).  Rational functions are stored
reduced, with the denominator normalized to constant term 1 so they expand
as power series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from ._value import Value

Q = Fraction

# ---------------------------------------------------------------------------
# dense polynomial helpers (tuples of rationals, lowest degree first)
# ---------------------------------------------------------------------------


def _q(x: int, d: int) -> int | Fraction:
    """The rational x/d of integers x and d != 0: an int when d divides x,
    a Fraction otherwise."""
    if d == 1:
        return x
    c, r = divmod(x, d)
    return Fraction(x, d) if r else c


def _frac(x) -> int | Fraction:
    """A coefficient as an exact rational: an int when it is an integer."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _scaled(coeffs) -> tuple[list[int], int]:
    """The integers d*c and the least common denominator d of rational
    coefficients, so that products and reciprocals run on ints."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs), 1
    coeffs = [_frac(c) for c in coeffs]
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _trimmed(a: list) -> list:
    """A coefficient list with its trailing zeros dropped, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _poly_ints(p) -> tuple[list[int], int]:
    """A polynomial as integers over its common denominator, trailing zeros
    dropped."""
    a, d = _scaled(p)
    return _trimmed(a), d


def _ratios(xs: Sequence[int], d: int) -> tuple[int | Fraction, ...]:
    """The rationals x/d, trailing zeros dropped."""
    return tuple(_trimmed(list(xs) if d == 1 else [_q(x, d) for x in xs]))


def poly_trim(p: Sequence) -> tuple[int | Fraction, ...]:
    return tuple(_trimmed([_frac(c) for c in p]))


def poly_sub(p, q) -> tuple[int | Fraction, ...]:
    return poly_trim([_frac(a) - _frac(b) for a, b in zip_longest(p, q, fillvalue=0)])


def poly_mul(p, q) -> tuple[int | Fraction, ...]:
    a, da = _poly_ints(p)
    b, db = _poly_ints(q)
    if not a or not b:
        return ()
    return _ratios(_convolve(a, b, len(a) + len(b) - 2), da * db)


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Integer pseudo-division by b, with leading coefficient lc = b[-1].

    Returns quotient digits c and remainder r, len(r) < len(b), with
    lc^e a = (sum_i c_i lc^i t^i) b + r for e = len(c) = len(a) - len(b) + 1
    (no digits and r = a when a is the shorter).
    """
    lc, body = b[-1], b[:-1]
    r = list(a)
    c = [0] * max(0, len(a) - len(b) + 1)
    for i in reversed(range(len(c))):
        # r <- lc*r - top t^i b, which cancels the top coefficient
        top = c[i] = r.pop()
        if lc != 1:
            r = [lc * x for x in r]
        if top:
            for j, y in enumerate(body):
                r[i + j] -= top * y
    return c, r


def poly_divmod(p, q) -> tuple[tuple[int | Fraction, ...], tuple[int | Fraction, ...]]:
    """Exact division with remainder in Q[t], by pseudo-division on ints."""
    a, da = _poly_ints(p)
    b, db = _poly_ints(q)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    c, r = _pseudo_divmod(a, b)
    # p = a/da and q = b/db, so quotient i is c_i db / (lc^(e-i) da) and
    # the remainder is r / (lc^e da)
    lc, e = b[-1], len(c)
    quot = tuple(_q(x * db, lc ** (e - i) * da) for i, x in enumerate(c))
    return quot, _ratios(r, lc**e * da)


def _primitive(a: list[int]) -> list[int]:
    """An integer polynomial divided by the gcd of its coefficients, trailing
    zeros dropped."""
    g = gcd(*_trimmed(a))
    return a if g <= 1 else [x // g for x in a]


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two integer polynomials, by the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def poly_compose(p, q) -> tuple[int | Fraction, ...]:
    """p(q(t)) by Horner on integer polynomials: with p = a/da and q = b/db of
    degree D in p, p(q) = sum_i a_i b^i db^(D-i) / (da db^D)."""
    a, da = _poly_ints(p)
    b, db = _poly_ints(q)
    if not a:
        return ()
    acc = [a[-1]]
    scale = 1  # db^(D-i)
    for x in reversed(a[:-1]):
        scale *= db
        acc = _convolve(acc, b, len(acc) + len(b) - 2) if b else [0]
        acc[0] += x * scale
    return _ratios(acc, da * scale)


def poly_eval(p, x):
    """p(x) by Horner's rule: exact at a rational x; at a float x each step
    rounds as a float Horner on the coefficients rounded to floats does."""
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


class TruncSeries(Value):
    """Power series known exactly through ``t**order``.

    Binary operations truncate at the smaller of the two operand orders, so
    no coefficient is ever reported beyond what both inputs determine.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int | Fraction, ...]):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "TruncSeries":
        cs = [_frac(c) for c in coeffs][: order + 1]
        cs += [0] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coeffs[n]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return TruncSeries(self.order, tuple(_frac(a * c) for a in self.coeffs))
        n = min(self.order, other.order)
        a, da = _scaled(self.coeffs[: n + 1])
        b, db = _scaled(other.coeffs[: n + 1])
        d, out = da * db, _convolve(a, b, n)
        return TruncSeries(n, tuple(out if d == 1 else (_q(c, d) for c in out)))

    __rmul__ = __mul__

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a, d = _scaled(self.coeffs)
        a0 = a[0]
        if a0 == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        beta = _quotient_ints([1], a, self.order)
        out = beta if d == a0 == 1 else (_q(d * x, a0 ** (n + 1)) for n, x in enumerate(beta))
        return TruncSeries(self.order, tuple(out))

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term 0")
        # with b_k = (k+1) a_{k+1} = B_k / d, (n+1) e_{n+1} = sum_k b_k e_{n-k};
        # e_n = y_n / (n! d^n) for integers y_0 = 1 and
        # y_{n+1} = sum_k B_k y_{n-k} d^k n!/(n-k)!
        b, d = _scaled([(k + 1) * c for k, c in enumerate(self.coeffs[1:])])
        y = [1]
        for n in range(self.order):
            s, w = 0, 1  # w = d^k n!/(n-k)!
            for k in range(n + 1):
                if b[k]:
                    s += b[k] * y[n - k] * w
                w *= (n - k) * d
            y.append(s)
        e, scale = [], 1  # scale = n! d^n
        for n, x in enumerate(y):
            e.append(_q(x, scale))
            scale *= (n + 1) * d
        return TruncSeries(self.order, tuple(e))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two integer coefficient lists."""
    nonzero = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in nonzero:
                if i + j > n:
                    break
                out[i + j] += x * y
    return out


def _quotient_ints(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Integers y_0..y_n with coefficient k of (a/b) equal to
    y_k / (b0^(k+1)), b0 = b[0] != 0:
    y_k = a_k b0^k - sum_{j>=1} b_j b0^(j-1) y_{k-j}."""
    b0 = b[0]
    terms = [(j, b[j] * b0 ** (j - 1)) for j in range(1, min(len(b), n + 1)) if b[j]]
    y: list[int] = []
    scale = 1  # b0^k
    for k in range(n + 1):
        s = a[k] * scale if k < len(a) else 0
        for j, c in terms:
            if j > k:
                break
            s -= c * y[k - j]
        y.append(s)
        scale *= b0
    return y


def _series_quotient(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of a/b for integer series with b[0] != 0, where b
    divides a over the integers."""
    b0, y = b[0], _quotient_ints(a, b, n)
    return y if b0 == 1 else [x // b0 ** (k + 1) for k, x in enumerate(y)]


def series_matrix_det(rows: Sequence[Sequence[TruncSeries]]) -> TruncSeries:
    """Determinant of a square matrix of series, through the smallest order
    of its entries, by fraction-free elimination (Bareiss, Sylvester's
    identity and multistep integer-preserving Gaussian elimination, 1968):
    O(m^3) truncated products and quotients for m x m.

    On the entries scaled to integers, step k replaces each entry a_ij of
    the trailing block by (a_kk a_ij - a_ik a_kj) / p, p the previous pivot
    (1 at first).  Each is a minor (Sylvester's identity), so the division
    is exact, and the last entry left is the determinant.  A truncated
    quotient needs a pivot with a nonzero constant term, which a row swap
    (flipping the sign) brings up.  When no row has one, the pivot column of
    the block is divisible by t: it is divided by t, the working order drops
    by one, and the result is multiplied by t at the end.  Every later entry
    is then the unshifted one over t, so the divisions stay exact and no
    coefficient is lost.  A column zero through the working order makes the
    determinant zero.
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    if m == 0:
        raise ValueError("empty matrix")
    order = min(e.order for r in rows for e in r)
    scaled = [[_scaled(e.coeffs[: order + 1]) for e in r] for r in rows]
    d = lcm(*(de for r in scaled for _, de in r))
    block = [[a if de == d else [x * (d // de) for x in a] for a, de in r] for r in scaled]
    n, shift, sign, prev = order, 0, 1, [1]
    while len(block) > 1:
        while (k := next((i for i, row in enumerate(block) if row[0][0]), None)) is None:
            if n == 0:
                return TruncSeries(order, (0,) * (order + 1))
            n, shift = n - 1, shift + 1
            for row in block:
                row[0] = row[0][1:]
        if k:
            block[0], block[k] = block[k], block[0]
            sign = -sign
        (pivot, *top), rest = block[0], block[1:]
        block = [
            [
                _series_quotient([x - y for x, y in zip(_convolve(pivot, a, n), _convolve(row[0], b, n))], prev, n)
                for a, b in zip(row[1:], top)
            ]
            for row in rest
        ]
        prev = pivot
    scale = sign * d**m
    return TruncSeries(order, (0,) * shift + tuple(_q(x, scale) for x in block[0][0][: n + 1]))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFn(Value):
    """Quotient of polynomials in Q[t], reduced, with den(0) = 1.

    The denominator's nonzero constant term makes every RationalFn
    expandable as a power series.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        self.__post_init__()

    def __post_init__(self):
        # the one normalising step of every construction (bench/tracing.py
        # counts constructions through it)
        # num and den over one common denominator, which cancels
        k = len(self.num)
        ints, _ = _scaled([*self.num, *self.den])
        a, b = _trimmed(ints[:k]), _trimmed(ints[k:])
        if not b or b[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        g = _gcd_ints(a, b)
        if len(g) > 1:
            # g divides b, so g[0] != 0; by Gauss's lemma the primitive g
            # leaves integer quotients
            a, b = _series_quotient(a, g, len(a) - len(g)), _series_quotient(b, g, len(b) - len(g))
        c = b[0]
        object.__setattr__(self, "num", tuple(_q(x, c) for x in a))
        object.__setattr__(self, "den", tuple(_q(x, c) for x in b))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def at_zero(self) -> int | Fraction:
        return self.num[0] if self.num else 0

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}


def rf_to_series(rf: RationalFn, order: int) -> TruncSeries:
    """Exact power-series expansion of a rational function: its numerator
    times the reciprocal of its denominator."""
    return TruncSeries.from_coeffs(rf.num, order) * TruncSeries.from_coeffs(rf.den, order).recip()


# ---------------------------------------------------------------------------
# eventual periodicity of bounded integer coefficient sequences
# ---------------------------------------------------------------------------


class PeriodicityCertificate(NamedTuple):
    preperiod: int
    period: int
    depth: int  # number of coefficients inspected


def detect_eventual_periodicity(coeffs: Sequence[int]) -> PeriodicityCertificate | None:
    """Search for the minimal eventually periodic pattern in a truncation.

    Heuristic by construction: a certificate only asserts consistency with
    the inspected prefix.  The search is bounded (preperiod and period each
    at most len(coeffs)//3) and a candidate period must repeat in full at
    least twice past the preperiod, which bounds the false-positive risk on
    truncations of aperiodic sequences.

    Minimality is by smallest period, then smallest preperiod.
    """
    coeffs = list(coeffs)
    depth = len(coeffs)
    bound = depth // 3
    for k in range(1, bound + 1):
        # a period that holds from p holds from every later preperiod, and
        # depth - p >= 2k for every p <= bound: test p = bound, then lower it
        p = bound
        if all(coeffs[i + k] == coeffs[i] for i in range(p, depth - k)):
            while p > 0 and coeffs[p - 1] == coeffs[p - 1 + k]:
                p -= 1
            return PeriodicityCertificate(preperiod=p, period=k, depth=depth)
    return None


def rational_from_eventually_periodic(prefix: Sequence, cycle: Sequence) -> RationalFn:
    """Rational function whose expansion is prefix followed by cycle repeated.

    prefix(t) + t^len(prefix) * cyc(t) / (1 - t^len(cycle)), reduced.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    p, L = len(prefix), len(cycle)
    ints, d = _scaled([*prefix, *cycle])
    # everything over the common denominator d
    num = [0] * p + ints[p:]
    for i, x in enumerate(ints[:p]):
        num[i] += x
        num[i + L] -= x
    return RationalFn(num, [d] + [0] * (L - 1) + [-d])


def cyclotomic_peel(poly: Sequence) -> tuple[list[int], tuple[int | Fraction, ...]]:
    """Greedily factor a polynomial into (1 - t^p) factors.

    At each step the only admissible ``p`` is the lowest degree with a
    nonzero coefficient in (current - 1); peeling fails (the loop stops)
    whenever that coefficient is not negative or (1 - t^p) does not divide
    exactly.  Returns (exponents, residual); residual == (1,) on success,
    and factors times residual always multiply back to the input.
    """
    cur = poly_trim(poly)
    if not cur or cur[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    factors: list[int] = []
    while cur != (1,):
        # cur is trimmed, starts with 1 and is not (1,): some cur[p] != 0
        p = next(i for i in range(1, len(cur)) if cur[i] != 0)
        if cur[p] > 0:
            break
        fac = poly_trim([1] + [0] * (p - 1) + [-1])
        quot, rem = poly_divmod(cur, fac)
        if rem:
            break
        factors.append(p)
        cur = quot
    return factors, cur
