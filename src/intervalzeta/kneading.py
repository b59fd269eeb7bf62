"""Kneading machinery for the PL models of piecewise monotone interval maps.

One-sided itineraries of turning points are computed symbolically: a sided
state (point, side, accumulated sign) is advanced by the map, the next side
being the current side times the slope sign of the lap the sided point sits
in.  On PL models this is exact; no perturbation is ever needed.

The increments assemble into the kneading matrix, each row kept as the
eventually periodic word of its walk (`KneadingData`; `KneadingData.series`
expands it for display).  Its determinant is computed exactly, as a
rational function, from the minor deleting column 0; the row identity
sum_j nu_ij(t) (1 - s_j t) = 0, by which every column gives the same
determinant, is checked on the words (Milnor-Thurston, On iterated maps of
the interval, 1988).  Row i times 1 - t^(L_i) is a polynomial, so the minor
is one fraction-free elimination over Z[t] (`series_matrix_det`) and one
exact division; m and the total orbit length N are capped (`CAPS`).
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
    point, sign = turning[turn_index - 1], 1
    for n in range(order + 1):
        lap = _sided_lap(turning, model.n, point, side)
        comps[lap][n] += sign
        s = shape[lap]
        point, side, sign = model(point), side * s, sign * s
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
        rows = []
        for i, (word, (p, _)) in enumerate(zip(self.words, self.periods), start=1):
            row = [[0] * (order + 1) for _ in self.shape]
            row[i][0], row[i - 1][0] = 1, -1
            for t, (lap, c) in zip(range(1, order + 1), chain(word, cycle(word[p - 1 :]))):
                row[lap][t] = c
            rows.append(tuple(TruncSeries(order, tuple(c)) for c in row))
        return tuple(rows)


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
    where (point, side, eps_n) is the n-th sided state of c_i^+ and lap_n
    its lap.  On a PL model that state ranges over finitely many (integer
    point, side, sign), so one walk until the first repeat fixes the whole
    row: a preperiod P_i (at least 1, for the t^0 term) and a period L_i.
    More than CAPS["m"] turning points, or N above CAPS["N"], is refused
    with a ValueError before any word is built.
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
    terms = [[(_sided_lap(turning, n, point, side), 2 * sign) for point, side, sign in path] for path, _ in walks]
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
    """Raise unless every row i has sum_j nu_ij(t) (1 - s_j t) = 0: its t^1
    coefficient is c_1 - s_i + s_{i-1} and its t^n one c_n - s_{lap_{n-1}} c_{n-1},
    so it holds everywhere if it holds through the wrap at t^(P_i + L_i)."""
    for i, (word, (p, _)) in enumerate(zip(kd.words, kd.periods), start=1):
        prev = kd.shape[i] - kd.shape[i - 1]
        for lap, c in (*word, word[p - 1]):
            if c != prev:
                raise KneadingError("row %d breaks the Milnor-Thurston identity" % i)
            prev = kd.shape[lap] * c


def _rational_determinant(kd: KneadingData) -> RationalFn:
    _check_rows(kd)
    order = sum(p + k - 1 for p, k in kd.periods)
    den, rows = (1,), []
    for i, (word, (p, k)) in enumerate(zip(kd.words, kd.periods), start=1):
        den = poly_mul(den, (1,) + (0,) * (k - 1) + (-1,))
        row = [[0] * (p + k) for _ in kd.shape]
        row[i][0], row[i - 1][0] = 1, -1
        for n, (lap, c) in enumerate(word, start=1):
            row[lap][n] = c
        # times 1 - t^k, from the top down: the word repeats with period k from t^p
        for e in row:
            for n in reversed(range(k, p + k)):
                e[n] -= e[n - k]
        rows.append([TruncSeries.from_coeffs(e, order) for e in row[1:]])
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
    # the laps of each row's cycle, t^(P_i) on
    cycles = [word[p - 1 :] for word, (p, _) in zip(kd.words, kd.periods)]
    rows_ok = all(lap in (j - 1, j) for i, laps in enumerate(cycles, start=1) if i != j for lap, _ in laps)

    # entry (j, j) through t^(P_j + L_j - 1): 1 at t^0, then c_n wherever lap_n = j
    p = kd.periods[j - 1][0]
    entry = [1, *(c if lap == j else 0 for lap, c in kd.words[j - 1])]
    pivot = rational_from_eventually_periodic(entry[:p], entry[p:])
    # the determinant after deleting column j-1 is +-D(t)(1 - s_{j-1} t);
    # its quotient by the pivot, reduced, must have denominator 1
    det = _rational_determinant(kd)
    factors_ok = pivot.at_zero() != 0 and RationalFn(
        poly_mul(poly_mul(det.num, (1, -kd.shape[j - 1])), pivot.den), poly_mul(det.den, pivot.num)
    ).den == (1,)
    return VUStructureReport(rows_ok and factors_ok, rows_ok, factors_ok)
