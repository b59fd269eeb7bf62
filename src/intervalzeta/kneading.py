"""Kneading machinery for the PL models of piecewise monotone interval maps.

One-sided itineraries of turning points are computed symbolically: a sided
state (point, side, accumulated sign) is advanced by the map, the next side
being the current side times the slope sign of the lap the sided point sits
in.  On PL models this is exact; no perturbation is ever needed.

The increments assemble into the kneading matrix, whose determinant is
computed exactly, as a rational function, from the minor deleting column 0;
the row identity sum_j nu_ij(t) (1 - s_j t) = 0, by which every column
gives the same determinant, is checked instead (Milnor-Thurston, On
iterated maps of the interval, 1988).  The minor is one fraction-free
elimination (`series_matrix_det`), polynomial in the number m of turning
points; m and the total orbit length N are capped (`CAPS`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .combinatorics import PLModel, eventual_path, turning_points
from .series import (
    RationalFn,
    TruncSeries,
    poly_mul,
    rational_from_eventually_periodic,
    rf_to_series,
    series_matrix_det,
)


class KneadingError(RuntimeError):
    """Internal inconsistency: a kneading row breaks the Milnor-Thurston
    identity, or the determinant's leading coefficient is not 1 or its
    degree bound is broken."""


def _laps(model: PLModel) -> tuple[list[int], tuple[int, ...]]:
    """The turning points of a model and the slope sign of each lap."""
    trn = turning_points(model.rho)
    if not trn:
        raise ValueError("model has no turning points")
    return trn, tuple(1 if model.slope(c) > 0 else -1 for c in [0, *trn])


def lap_shape(model: PLModel) -> tuple[int, ...]:
    """The slope sign of each lap of a model: +1 rising, -1 falling."""
    return _laps(model)[1]


def _sided_lap(turning: Sequence[int], n: int, x, side: int) -> int:
    """Lap index of points immediately on `side` of x in [0, n].

    A turning point resolves to its adjacent lap on that side; a boundary
    point must face inward.
    """
    if not 0 <= x <= n:
        raise ValueError("orbit left the domain at %r" % (x,))
    lap = bisect_left(turning, x)
    if lap < len(turning) and turning[lap] == x:
        return lap if side < 0 else lap + 1
    if x == 0 and side < 0:
        raise ValueError("side points outside the domain at the left endpoint")
    if x == n and side > 0:
        raise ValueError("side points outside the domain at the right endpoint")
    return lap


def theta_series(model: PLModel, turn_index: int, side: int, order: int) -> list[TruncSeries]:
    """Signed one-sided itinerary of c_i as m+1 coefficient series.

    Component j collects the coefficients of the lap symbol I_j in
    theta(c_i^side) = sum_n eps_0...eps_{n-1} A_n t^n.
    """
    turning, shape = _laps(model)
    if not (1 <= turn_index <= len(turning)):
        raise ValueError("turning index out of range")
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    comps = [[0] * (order + 1) for _ in shape]
    point, sign = turning[turn_index - 1], 1
    for n in range(order + 1):
        lap = _sided_lap(turning, model.n, point, side)
        comps[lap][n] += sign
        s = shape[lap]
        point, side, sign = model(point), side * s, sign * s
    return [TruncSeries(order, tuple(c)) for c in comps]


class KneadingData(NamedTuple):
    """The kneading matrix, m rows and m+1 columns of series with integer
    coefficients, and the preperiod P_i and period L_i of each row."""

    shape: tuple[int, ...]
    matrix: tuple[tuple[TruncSeries, ...], ...]
    periods: tuple[tuple[int, int], ...]

    @property
    def modality(self) -> int:
        return len(self.matrix)

    @property
    def order(self) -> int:
        return self.matrix[0][0].order


# the largest modality m and N = sum_i (P_i + L_i) that kneading_matrix
# accepts, so that no determinant runs for long: it costs O(m^3 N^2) integer
# operations.  kneading_rational took 0.1 s on generate_vu(20) (m = 20,
# N = 99), and on random PM vectors 0.7-2.5 s at m = 20, N = 150..160,
# 1.4-5.2 s at (20, 200), 11 s at (20, 331) and 43 s at (25, 449)
# (Python 3.11.7 on a 2-core container).
CAPS = {"m": 20, "N": 160}


def kneading_matrix(model: PLModel, order: int | None = None) -> KneadingData:
    """Kneading increments nu_i = theta(c_i^+) - theta(c_i^-) as a matrix,
    through t^order; by default through t^N, N = sum_i (P_i + L_i).

    From the first iterate on, c_i^- follows c_i^+ with the opposite sign, so
    row i is e_i - e_{i-1} at t^0 and 2 eps_n e_{lap_n} at t^n for n >= 1,
    where (point, side, eps_n) is the n-th sided state of c_i^+ and lap_n
    its lap.  On a PL model that state ranges over finitely many (integer
    point, side, sign), so one walk until the first repeat fixes the whole
    row: a preperiod P_i (at least 1, for the t^0 term) and a period L_i.
    More than CAPS["m"] turning points, or N above CAPS["N"], is refused
    with a ValueError before any row is built.
    """
    turning, shape = _laps(model)
    n = model.n

    def step(state):
        point, side, sign = state
        s = shape[_sided_lap(turning, n, point, side)]
        return model(point), side * s, sign * s

    walks = [eventual_path(step, (c, 1, 1)) for c in turning]
    periods = tuple((max(start, 1), len(path) - start) for path, start in walks)
    total = sum(p + k for p, k in periods)
    if len(turning) > CAPS["m"]:
        raise ValueError("%d turning points, capped at %d" % (len(turning), CAPS["m"]))
    if total > CAPS["N"]:
        raise ValueError("N = sum of preperiods and periods = %d, capped at %d" % (total, CAPS["N"]))
    if order is None:
        order = total
    elif order < 0:
        raise ValueError("order must be >= 0")
    rows = []
    for i, (path, start) in enumerate(walks, start=1):
        terms = [(_sided_lap(turning, n, point, side), 2 * sign) for point, side, sign in path]
        cycle = len(path) - start
        row = [[0] * (order + 1) for _ in shape]
        row[i][0], row[i - 1][0] = 1, -1
        for t in range(1, order + 1):
            lap, c = terms[t if t < len(path) else start + (t - start) % cycle]
            row[lap][t] = c
        rows.append(tuple(TruncSeries(order, tuple(c)) for c in row))
    return KneadingData(shape, tuple(rows), periods)


def kneading_determinant(model: PLModel, order: int) -> TruncSeries:
    """The kneading determinant D(t) through t^order: the expansion of
    kneading_rational."""
    return rf_to_series(kneading_rational(model), order)


def kneading_rational(model: PLModel) -> RationalFn:
    """The kneading determinant D(t) of a PL model as an exact rational function.

    As sum_j theta_j(x) (1 - s_j t) = 1 for every sided point x, every row
    has sum_j nu_ij(t) (1 - s_j t) = 0 (checked through t^(P_i + L_i),
    which by periodicity is enough).  So the signed minors (-1)^j M_j, which
    D(0) = 1 makes nonzero, are proportional to (1 - s_j t)_j, and
    D = M_0 / (1 - s_0 t) is what every column gives (Milnor-Thurston 1988).
    Each M_j times Pi = prod_i (1 - t^L_i) has degree at most N - m, and
    the s_j take both values, so D(t) Pi has degree below N - m.
    """
    return _rational_determinant(kneading_matrix(model))


def _check_rows(kd: KneadingData) -> None:
    """Raise unless every row i has sum_j nu_ij(t) (1 - s_j t) = 0 through t^(P_i + L_i)."""
    for i, (row, (p, k)) in enumerate(zip(kd.matrix, kd.periods), start=1):
        # coefficient n is sum_j nu_ij[n] - sum_j s_j nu_ij[n-1]
        prev = 0
        for col in zip(*(e.coeffs[: p + k + 1] for e in row)):
            if sum(col) != prev:
                raise KneadingError("row %d breaks the Milnor-Thurston identity" % i)
            prev = sum(s * c for s, c in zip(kd.shape, col))


def _rational_determinant(kd: KneadingData) -> RationalFn:
    _check_rows(kd)
    den = (1,)
    for _, period in kd.periods:
        den = poly_mul(den, (1,) + (0,) * (period - 1) + (-1,))
    minor = series_matrix_det([row[1:] for row in kd.matrix])
    det = minor * TruncSeries.from_coeffs((1, -kd.shape[0]), kd.order).recip()
    if det[0] != 1:
        raise KneadingError("kneading determinant must have leading coefficient 1")
    num = (det * TruncSeries.from_coeffs(den, kd.order)).coeffs
    degree = kd.order - kd.modality - 1
    if any(num[degree + 1 :]):
        raise KneadingError("kneading determinant exceeds its degree bound")
    return RationalFn(num[: degree + 1], den)


# ---------------------------------------------------------------------------
# unimodal specialization
# ---------------------------------------------------------------------------


def unimodal_kneading(eps: Sequence[int], order: int) -> TruncSeries:
    """Partial-product series 1 + e1 t + e1 e2 t^2 + ... from signs eps."""
    if len(eps) < order:
        raise ValueError("need at least %d signs" % order)
    if any(e not in (1, -1) for e in eps[:order]):
        raise ValueError("signs must be +1 or -1")
    coeffs = [1]
    for n in range(order):
        coeffs.append(coeffs[-1] if eps[n] == 1 else -coeffs[-1])
    return TruncSeries(order, tuple(coeffs))


def unimodal_rational_form(eps_prefix: Sequence[int], eps_cycle: Sequence[int]) -> RationalFn:
    """Closed form of the partial-product series of an eventually periodic
    sign sequence, reduced.

    With prefix length p-1 and cycle length k, the partial products repeat
    with period (not necessarily minimal) 2k past their first p-1 terms.
    """
    if not eps_cycle:
        raise ValueError("cycle must be nonempty")
    signs = list(eps_prefix) + 2 * list(eps_cycle)
    if any(e not in (1, -1) for e in signs):
        raise ValueError("signs must be +1 or -1")
    partial = list(accumulate(signs[:-1], mul, initial=1))
    p = len(eps_prefix)
    return rational_from_eventually_periodic(partial[:p], partial[p:])


# ---------------------------------------------------------------------------
# virtually unimodal structure of the kneading matrix
# ---------------------------------------------------------------------------


class VUStructureReport(NamedTuple):
    ok: bool
    rows_polynomial_outside_pair: bool
    determinant_factors_through_dominant: bool


def vu_structure_check(model: PLModel, dominant_row: int) -> VUStructureReport:
    """Structure of the kneading matrix forced by virtual unimodality.

    For dominant turning point c_j (row j, adjacent laps j-1 and j) of a PL
    model: every other row must be polynomial outside columns {j-1, j}
    (its repeating part vanishes), and the determinant after deleting column
    j-1 must factor exactly through N_{c_j, j}, the quotient again being
    polynomial (the dominant row keeps only that entry, its other components
    vanishing identically).  Both tests are exact.
    """
    kd = kneading_matrix(model)
    m = kd.modality
    j = dominant_row
    if not (1 <= j <= m):
        raise ValueError("dominant row out of range")
    periods = kd.periods
    # the repeating part of every entry's coefficients
    cycles = [[e.coeffs[p : p + k] for e in row] for row, (p, k) in zip(kd.matrix, periods)]

    rows_ok = all(
        not any(cycles[i - 1][col])
        for i in range(1, m + 1)
        if i != j
        for col in range(m + 1)
        if col not in (j - 1, j)
    )

    pivot = rational_from_eventually_periodic(kd.matrix[j - 1][j].coeffs[: periods[j - 1][0]], cycles[j - 1][j])
    # the determinant after deleting column j-1 is +-D(t)(1 - s_{j-1} t);
    # its quotient by the pivot, reduced, must have denominator 1
    det = _rational_determinant(kd)
    factors_ok = pivot.at_zero() != 0 and RationalFn(
        poly_mul(poly_mul(det.num, (1, -kd.shape[j - 1])), pivot.den), poly_mul(det.den, pivot.num)
    ).den == (1,)
    return VUStructureReport(rows_ok and factors_ok, rows_ok, factors_ok)
