"""Kneading machinery for the PL models of piecewise monotone interval maps.

One-sided itineraries of turning points are computed symbolically: a sided
state (point, side) is advanced by the map, the next side being the current
side times the slope sign of the lap the sided point sits in (so from side
+1 the side is also the walk's sign).  On PL models this is exact.

The increments assemble into the kneading matrix, each row kept as the
eventually periodic word of its walk (`KneadingData`), read only by `_row`.
Its determinant is computed exactly, as a rational function, from the minor
deleting column 0; the row identity sum_j nu_ij(t) (1 - s_j t) = 0, by which
every column gives the same determinant, is checked on each row through
t^(P_i + L_i) (Milnor-Thurston, On iterated maps of the interval, 1988).
Row i times 1 - t^(L_i) is a polynomial (`_numerators`), so the minor is
one fraction-free elimination over Z[t] (`series_matrix_det`) and one exact
division; m and the total orbit length N are capped (`CAPS`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, cycle
from operator import mul
from typing import NamedTuple, Sequence

from .combinatorics import PLModel, eventual_path, turning_points
from .series import (
    RationalFn,
    TruncSeries,
    poly_divmod,
    poly_mul,
    rational_from_eventually_periodic,
    rf_to_series,
    series_matrix_det,
)


class KneadingError(RuntimeError):
    """Internal inconsistency: a kneading row breaks the Milnor-Thurston
    identity, the minor is not divisible by 1 - s_0 t, or the determinant's
    leading coefficient is not 1."""


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
    point, start = turning[turn_index - 1], side
    for n in range(order + 1):
        lap = _sided_lap(turning, model.n, point, side)
        comps[lap][n] += start * side
        point, side = model(point), side * shape[lap]
    return [TruncSeries(order, tuple(c)) for c in comps]


class KneadingData(NamedTuple):
    """The kneading matrix (m rows, m+1 columns) as the lap shape, the word of
    each row and its preperiod P_i and period L_i: words[i-1][n-1] = (lap, c)
    is row i's t^n term c e_lap for 1 <= n < P_i + L_i, the word repeats with
    period L_i from t^(P_i) on, and the t^0 term e_i - e_{i-1} is implied."""

    shape: tuple[int, ...]
    words: tuple[tuple[tuple[int, int], ...], ...]
    periods: tuple[tuple[int, int], ...]

    @property
    def modality(self) -> int:
        return len(self.words)

    def series(self, order: int) -> tuple[tuple[TruncSeries, ...], ...]:
        """The rows as m+1 series each through t^order, for display."""
        if order < 0:
            raise ValueError("order must be >= 0")
        rows = (_row(self, i, order + 1) for i in range(1, self.modality + 1))
        return tuple(tuple(TruncSeries(order, tuple(e)) for e in row) for row in rows)


def _row(kd: KneadingData, i: int, length: int) -> list[list[int]]:
    """Row i's m+1 entries as integer coefficients through t^(length - 1)."""
    word, (p, _) = kd.words[i - 1], kd.periods[i - 1]
    row = [[0] * length for _ in kd.shape]
    row[i][0], row[i - 1][0] = 1, -1
    for n, (lap, c) in zip(range(1, length), chain(word, cycle(word[p - 1 :]))):
        row[lap][n] = c
    return row


def _numerators(kd: KneadingData, i: int) -> list[list[int]]:
    """Row i's entries times 1 - t^(L_i): polynomials of degree below
    P_i + L_i, as the row repeats with period L_i from t^(P_i)."""
    p, k = kd.periods[i - 1]
    row = _row(kd, i, p + k)
    for e in row:
        e[k:] = [x - y for x, y in zip(e[k:], e)]
    return row


# the largest modality m and N = sum_i (P_i + L_i) that kneading_matrix
# accepts, so that no determinant runs for long: it costs O(m^3 N^2) integer
# operations.  kneading_rational took 0.11 s on generate_vu(20) (m = 20,
# N = 99), and on random PM vectors 0.35-0.8 s at m = 20, N = 154..160,
# 0.7-1.1 s at (20, 199..205), 2.1-3.2 s at (20, 311..332) and 11 s at
# (25, 459) (Python 3.11.7 on a 2-core container).
CAPS = {"m": 20, "N": 160}


def kneading_matrix(model: PLModel) -> KneadingData:
    """Kneading increments nu_i = theta(c_i^+) - theta(c_i^-) as words.

    From the first iterate on, c_i^- follows c_i^+ with the opposite sign, so
    row i is e_i - e_{i-1} at t^0 and 2 eps_n e_{lap_n} at t^n for n >= 1,
    where (point, eps_n) is the n-th sided state of c_i^+, whose side is its
    walk's sign, and lap_n its lap.  On a PL model that state ranges over
    finitely many (integer point, side), so one walk until the first repeat
    fixes the row: a preperiod P_i (at least 1, for t^0) and a period L_i.
    More than CAPS["m"] turning points, or N above CAPS["N"], is refused
    with a ValueError before any word is built.
    """
    turning, shape = _laps(model)
    n = model.n

    def step(state):
        point, side = state
        return model(point), side * shape[_sided_lap(turning, n, point, side)]

    walks = [eventual_path(step, (c, 1)) for c in turning]
    periods = tuple((max(start, 1), len(path) - start) for path, start in walks)
    total = sum(p + k for p, k in periods)
    if len(turning) > CAPS["m"]:
        raise ValueError("%d turning points, capped at %d" % (len(turning), CAPS["m"]))
    if total > CAPS["N"]:
        raise ValueError("N = sum of preperiods and periods = %d, capped at %d" % (total, CAPS["N"]))
    terms = [[(_sided_lap(turning, n, point, side), 2 * side) for point, side in path] for path, _ in walks]
    # a walk back to its start (start 0) moves t^0 to the end of the word
    words = tuple(tuple((t + t[start:])[1 : p + k]) for t, (_, start), (p, k) in zip(terms, walks, periods))
    return KneadingData(shape, words, periods)


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
    Row i times 1 - t^(L_i) has degree below P_i + L_i, so the minor of
    those rows, M_0 Pi with Pi = prod_i (1 - t^L_i), has degree at most
    N - m and is eliminated exactly through t^(N - m); the s_j take both
    values, so D Pi = M_0 Pi / (1 - s_0 t) is one exact division.
    """
    return _rational_determinant(kneading_matrix(model))


def _check_rows(kd: KneadingData) -> None:
    """Raise unless every row i has sum_j nu_ij(t) (1 - s_j t) = 0: its t^0
    coefficient is 1 - 1, and its t^n one, sum_j (nu_ij[n] - s_j nu_ij[n-1]),
    repeats with period L_i past t^(P_i), so t^1..t^(P_i + L_i) decide it."""
    for i, (p, k) in enumerate(kd.periods, start=1):
        row = _row(kd, i, p + k + 1)
        if any(sum(e[n] - s * e[n - 1] for e, s in zip(row, kd.shape)) for n in range(1, p + k + 1)):
            raise KneadingError("row %d breaks the Milnor-Thurston identity" % i)


def _rational_determinant(kd: KneadingData) -> RationalFn:
    _check_rows(kd)
    order = sum(p + k - 1 for p, k in kd.periods)
    den = (1,)
    for _, k in kd.periods:
        den = poly_mul(den, (1,) + (0,) * (k - 1) + (-1,))
    rows = [[TruncSeries.from_coeffs(e, order) for e in _numerators(kd, i)[1:]] for i in range(1, kd.modality + 1)]
    num, rem = poly_divmod(series_matrix_det(rows).coeffs, (1, -kd.shape[0]))
    if rem:
        raise KneadingError("the minor is not divisible by 1 - s_0 t")
    if not num or num[0] != 1:
        raise KneadingError("kneading determinant must have leading coefficient 1")
    return RationalFn(num, den)


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
    j = dominant_row
    if not (1 <= j <= kd.modality):
        raise ValueError("dominant row out of range")
    # each other row's cycle, t^(P_i) on, outside columns j-1 and j
    rows = ((_row(kd, i, p + k), p) for i, (p, k) in enumerate(kd.periods, start=1) if i != j)
    rows_ok = not any(any(e[p:]) for row, p in rows for col, e in enumerate(row) if col not in (j - 1, j))
    # the determinant after deleting column j-1 is +-D(t)(1 - s_{j-1} t), and
    # the pivot is N_jj / (1 - t^(L_j)), N_jj(0) = 1: the quotient is a
    # polynomial when D.den N_jj divides D.num (1 - s_{j-1} t)(1 - t^(L_j))
    det, k = _rational_determinant(kd), kd.periods[j - 1][1]
    top = poly_mul(poly_mul(det.num, (1, -kd.shape[j - 1])), (1,) + (0,) * (k - 1) + (-1,))
    factors_ok = not poly_divmod(top, poly_mul(det.den, _numerators(kd, j)[j]))[1]
    return VUStructureReport(rows_ok and factors_ok, rows_ok, factors_ok)
