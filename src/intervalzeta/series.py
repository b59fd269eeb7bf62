"""Truncated formal power series and rational functions over exact rationals.

Everything here is exact: coefficients are ``fractions.Fraction`` values and
all operations are closed at a stated truncation order.  Rational functions
are stored reduced, with the denominator normalized to constant term 1 so
they expand as power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Q = Fraction

# ---------------------------------------------------------------------------
# dense polynomial helpers (tuples of Fraction, lowest degree first)
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _scaled(coeffs) -> tuple[list[int], int]:
    """The integers d*c and the least common denominator d of rational
    coefficients, so that products and reciprocals run on ints."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def poly_trim(p: Sequence) -> tuple[Fraction, ...]:
    p = [_frac(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    return poly_trim(
        [(_frac(p[i]) if i < len(p) else Q(0)) + (_frac(q[i]) if i < len(q) else Q(0)) for i in range(n)]
    )


def poly_neg(p) -> tuple[Fraction, ...]:
    return tuple(-_frac(c) for c in p)


def poly_sub(p, q) -> tuple[Fraction, ...]:
    return poly_add(p, poly_neg(q))


def poly_mul(p, q) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        a = _frac(a)
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * _frac(b)
    return poly_trim(out)


def poly_scale(p, c) -> tuple[Fraction, ...]:
    c = _frac(c)
    return poly_trim([_frac(a) * c for a in p])


def poly_divmod(p, q) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact division with remainder in Q[t]."""
    p = list(poly_trim(p))
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Q(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        k = len(p) - len(q)
        c = p[-1] / q[-1]
        quot[k] = c
        for i, b in enumerate(q):
            p[k + i] -= c * b
        while p and p[-1] == 0:
            p.pop()
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p, q) -> tuple[Fraction, ...]:
    """Monic gcd via Euclid's algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, 1 / a[-1])
    return a


def poly_derivative(p) -> tuple[Fraction, ...]:
    return poly_trim([_frac(c) * i for i, c in enumerate(p)][1:])


def poly_compose(p, q) -> tuple[Fraction, ...]:
    """p(q(t)) by Horner on polynomials."""
    acc: tuple[Fraction, ...] = ()
    for c in reversed(poly_trim(p)):
        acc = poly_add(poly_mul(acc, q), (c,))
    return acc


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncSeries:
    """Power series known exactly through ``t**order``.

    Binary operations truncate at the smaller of the two operand orders, so
    no coefficient is ever reported beyond what both inputs determine.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "TruncSeries":
        cs = [_frac(c) for c in coeffs][: order + 1]
        cs += [Q(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs((), order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs((1,), order)

    @classmethod
    def var(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs((0, 1), order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[: order + 1])

    def _common(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += _frac(other)
            return TruncSeries(self.order, tuple(cs))
        n = self._common(other)
        return TruncSeries(n, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-_frac(other))
        n = self._common(other)
        return TruncSeries(n, tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return TruncSeries(self.order, tuple(a * c for a in self.coeffs))
        n = self._common(other)
        a, da = _scaled(self.coeffs[: n + 1])
        b, db = _scaled(other.coeffs[: n + 1])
        d = da * db
        return TruncSeries(n, tuple(Q(c, d) for c in _convolve(a, b, n)))

    __rmul__ = __mul__

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a, d = _scaled(self.coeffs)
        a0 = a[0]
        if a0 == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        # coefficient n of 1/a is d * beta_n / a0**(n+1), with integers
        # beta_0 = 1 and beta_n = -sum_{k>=1} a[k] a0**(k-1) beta_{n-k}
        terms = [(k, a[k] * a0 ** (k - 1)) for k in range(1, len(a)) if a[k]]
        beta = [1]
        for n in range(1, self.order + 1):
            beta.append(-sum(c * beta[n - k] for k, c in terms if k <= n))
        return TruncSeries(self.order, tuple(Q(d * x, a0 ** (n + 1)) for n, x in enumerate(beta)))

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term 0")
        a = self.coeffs
        e = [Q(1)]
        for n in range(self.order):
            # (n+1) e_{n+1} = sum_{k} (k+1) a_{k+1} e_{n-k}
            s = sum(((k + 1) * a[k + 1] * e[n - k] for k in range(n + 1)), Q(0))
            e.append(s / (n + 1))
        return TruncSeries(self.order, tuple(e))

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        u = self.coeffs
        l = [Q(0)]
        for n in range(1, self.order + 1):
            s = sum((k * l[k] * u[n - k] for k in range(1, n)), Q(0))
            l.append(u[n] - s / n)
        return TruncSeries(self.order, tuple(l))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def __str__(self):
        return "TruncSeries(order=%d, %s)" % (self.order, ", ".join(str(c) for c in self.coeffs))


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


def series_matrix_det(rows: Sequence[Sequence[TruncSeries]]) -> TruncSeries:
    """Determinant of a square matrix of series, by Laplace expansion along
    the rows, each minor (a set of columns of the trailing rows) computed
    once.  The entries are scaled to integers over one common denominator.

    Intended for the small matrices arising from kneading data (m <= 6).
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    if m == 0:
        raise ValueError("empty matrix")
    order = min(e.order for r in rows for e in r)
    if m == 1:
        return rows[0][0].truncate(order)
    d = lcm(*(c.denominator for r in rows for e in r for c in e.coeffs[: order + 1]))
    entries = [[[c.numerator * (d // c.denominator) for c in e.coeffs[: order + 1]] for e in r] for r in rows]

    @cache
    def minor(cols: tuple[int, ...]) -> list[int]:
        row = entries[m - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        acc = [0] * (order + 1)
        for k, j in enumerate(cols):
            term = _convolve(row[j], minor(cols[:k] + cols[k + 1 :]), order)
            sign = 1 if k % 2 == 0 else -1
            acc = [x + sign * y for x, y in zip(acc, term)]
        return acc

    scale = d**m
    return TruncSeries(order, tuple(Q(x, scale) for x in minor(tuple(range(m)))))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFn:
    """Quotient of polynomials in Q[t], reduced, with den(0) = 1.

    The denominator's nonzero constant term makes every RationalFn
    expandable as a power series.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def __post_init__(self):
        num = poly_trim(self.num)
        den = poly_trim(self.den)
        if not den or den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        c = den[0]
        num = poly_scale(num, 1 / c)
        den = poly_scale(den, 1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_poly(cls, p) -> "RationalFn":
        return cls(poly_trim(p), (Q(1),))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def reciprocal(self) -> "RationalFn":
        if not self.num or self.num[0] == 0:
            raise ValueError("reciprocal would have a pole at 0")
        return RationalFn(self.den, self.num)

    def at_zero(self) -> Fraction:
        return self.num[0] if self.num else Q(0)

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}


def rf_to_series(rf: RationalFn, order: int) -> TruncSeries:
    """Exact power-series expansion of a rational function."""
    num, den = rf.num, rf.den
    out = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else Q(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            s -= den[k] * out[n - k]
        out.append(s)  # den[0] == 1 by normalization
    return TruncSeries(order, tuple(out))


# ---------------------------------------------------------------------------
# eventual periodicity of bounded integer coefficient sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicityCertificate:
    preperiod: int
    period: int
    depth: int  # number of coefficients inspected


def detect_eventual_periodicity(
    coeffs: Sequence[int],
    max_preperiod: int | None = None,
    max_period: int | None = None,
) -> PeriodicityCertificate | None:
    """Search for the minimal eventually periodic pattern in a truncation.

    Heuristic by construction: a certificate only asserts consistency with
    the inspected prefix.  The search is bounded (defaults: preperiod and
    period each at most len(coeffs)//3) and a candidate period must repeat
    in full at least twice past the preperiod, which bounds the
    false-positive risk on truncations of aperiodic sequences.

    Minimality is by smallest period, then smallest preperiod.
    """
    coeffs = list(coeffs)
    depth = len(coeffs)
    if depth == 0:
        return None
    kmax = max_period if max_period is not None else depth // 3
    pmax = max_preperiod if max_preperiod is not None else depth // 3
    for k in range(1, kmax + 1):
        for p in range(0, pmax + 1):
            if depth - p < 2 * k:
                break
            if all(coeffs[i + k] == coeffs[i] for i in range(p, depth - k)):
                return PeriodicityCertificate(preperiod=p, period=k, depth=depth)
    return None


def rational_from_eventually_periodic(prefix: Sequence, cycle: Sequence) -> RationalFn:
    """Rational function whose expansion is prefix followed by cycle repeated.

    prefix(t) + t^len(prefix) * cyc(t) / (1 - t^len(cycle)), reduced.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    L = len(cycle)
    den = poly_trim([1] + [0] * (L - 1) + [-1])
    pre = tuple(_frac(c) for c in prefix)
    shifted_cycle = [Q(0)] * len(pre) + [_frac(c) for c in cycle]
    num = poly_add(poly_mul(pre, den) if pre else (), shifted_cycle)
    return RationalFn(num, den)


def cyclotomic_peel(poly: Sequence) -> tuple[list[int], tuple[Fraction, ...]]:
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
    while cur != (Q(1),):
        p = next((i for i in range(1, len(cur)) if cur[i] != 0), None)
        if p is None:
            break
        if cur[p] > 0:
            break
        fac = poly_trim([1] + [0] * (p - 1) + [-1])
        quot, rem = poly_divmod(cur, fac)
        if rem:
            break
        factors.append(p)
        cur = quot
    return factors, cur
