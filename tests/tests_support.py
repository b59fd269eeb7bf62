"""Frozen expected values shared by the module tests and the acceptance suite,
plain-Fraction reference implementations of the integer series kernels, the
Laplace expansion that series_matrix_det replaced, the unimodal sign
sequence, per-column determinants and VU structure fields read off the
expanded matrix that the kneading tests compare against, the closed form
of the virtually unimodal family, the five-condition virtually-unimodal
test, Phi built as the reciprocal of zeta D, the exact
tent-map references of the Fibonacci bisection, the scan of every (period,
preperiod) pair that detect_eventual_periodicity replaced, the all-pairs
disjointness and structure checks that the sorted sweeps replaced, the
argv of the benchmark's jobs, and the check of the coefficient types the
library returns."""

import importlib.util
import sys
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import lcm
from pathlib import Path

from intervalzeta.combinatorics import Combinatorics, PLModel, is_own_combinatorics, orbit_set, turning_points
from intervalzeta.fibmap import _C, _R, IntervalFamily, TentOrbit, _s
from intervalzeta.kneading import KneadingData, kneading_matrix, kneading_rational
from intervalzeta.series import (
    PeriodicityCertificate,
    RationalFn,
    TruncSeries,
    _convolve,
    cyclotomic_peel,
    poly_mul,
    rational_from_eventually_periodic,
)

ROOT = Path(__file__).resolve().parents[1]

Q = Fraction

# Endpoint labels (turning-orbit indices) of the level sets M_0..M_4.
# These are the published lists, with one correction forced by the defining
# images: the first J piece of level 4 runs to index 18 = S(5) + S(3), the
# image of level-5 data after S(3) steps (its printed form, 14, contradicts
# the displayed J4^1 = {6, 19} one application later).
PAPER_M_LABELS = {
    0: [(1, 2)],
    1: [(2, 5), (4, 1)],
    2: [(3, 5), (4, 1), (2, 7)],
    3: [(13, 5), (6, 1), (2, 7), (3, 11), (4, 12)],
    4: [(13, 8), (9, 1), (2, 10), (3, 11), (4, 12), (18, 5), (6, 19), (20, 7)],
}

# fixed-point counts of the cubic family on its invariant interval,
# frozen from the logarithmic derivative of 1/((1-t^3)(1-t^2)(1-t-t^2))
CUBIC_COUNTS = [1, 5, 7, 9, 11, 23]

# |fib_language(n)| for n = 1..10
FIB_WORD_COUNTS = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def bench_argvs(seeds=(1, 2, 3)) -> list[tuple[str, ...]]:
    """The CLI argv of every job bench/workloads.py builds for the seeds, in
    job order; a `fib check` argv holds the placeholder of the slope."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [job.argv for w in workloads.GENERATORS for seed in seeds for job in workloads.build(w, seed)]


def unimodal_eps(model: PLModel, order: int) -> list[int]:
    """Signs eps_1..eps_order of the turning orbit of a unimodal model.

    eps_n is the slope sign of the lap containing F^n(c); an exact return
    to c contributes the product of the previous signs.
    """
    trn = turning_points(model.rho)
    if len(trn) != 1:
        raise ValueError("model is not unimodal")
    c = trn[0]
    rho = model.rho
    left = 1 if rho[1] > rho[0] else -1
    out = []
    running = 1
    x = c
    for _ in range(order):
        x = rho[x]
        if x == c:
            e = running
        else:
            e = left if x < c else -left
        out.append(e)
        running *= e
    return out


def laplace_det(rows) -> TruncSeries:
    """Determinant of a square matrix of series, by Laplace expansion along
    the rows, each minor (a set of columns of the trailing rows) computed
    once: 2^m minors for an m x m matrix.  The entries are scaled to
    integers over one common denominator."""
    m = len(rows)
    order = min(e.order for r in rows for e in r)
    if m == 1:
        return rows[0][0]
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


def _column_determinants(kd: KneadingData, order: int) -> list[TruncSeries]:
    """The determinant through t^order from each deletable column, by the
    Laplace reference."""
    m = kd.modality
    rows = kd.series(order)
    out = []
    for col in range(m + 1):
        minor = [[rows[i][j] for j in range(m + 1) if j != col] for i in range(m)]
        det = laplace_det(minor)
        sign = 1 if col % 2 == 0 else -1
        denom = TruncSeries.from_coeffs((1, -kd.shape[col]), order)
        out.append((sign * det) * denom.recip())
    return out


def vu_structure_fields(model: PLModel, j: int) -> tuple[bool, bool]:
    """The two fields of vu_structure_check(model, j), read off the matrix
    expanded through t^(3N): each row's cycle as the coefficients at
    t^(P_i)..t^(P_i + L_i - 1) of every entry, the pivot (j, j) as the
    rational function of its expansion."""
    kd = kneading_matrix(model)
    m = kd.modality
    rows = kd.series(3 * sum(p + k for p, k in kd.periods))
    cycles = [[e.coeffs[p : p + k] for e in row] for row, (p, k) in zip(rows, kd.periods)]
    rows_ok = all(
        not any(cycles[i - 1][col])
        for i in range(1, m + 1)
        if i != j
        for col in range(m + 1)
        if col not in (j - 1, j)
    )
    pivot = rational_from_eventually_periodic(rows[j - 1][j].coeffs[: kd.periods[j - 1][0]], cycles[j - 1][j])
    det = kneading_rational(model)
    factors_ok = pivot.at_zero() != 0 and RationalFn(
        poly_mul(poly_mul(det.num, (1, -kd.shape[j - 1])), pivot.den), poly_mul(det.den, pivot.num)
    ).den == (1,)
    return rows_ok, factors_ok


# ---------------------------------------------------------------------------
# Fraction references for the integer kernels of intervalzeta.series: the
# coefficient-by-coefficient rational loops those kernels replaced, kept as
# they were (exp as a function of the series, the normalization of
# RationalFn.__post_init__ as a function of its fields), and the series log
# the zeta tests invert exp with
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def assert_exact(got, want) -> None:
    """got equals want coefficient by coefficient, and each coefficient is an
    int when it is an integer and a Fraction otherwise: never a float, a bool
    or a Fraction with denominator 1."""
    got, want = tuple(got), tuple(want)
    assert got == want
    for c in got:
        assert type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1), repr(c)


def poly_trim(p) -> tuple[Fraction, ...]:
    """p as Fractions, trailing zeros dropped; the library's poly_trim keeps
    integers as ints, on which the references' `/` would give floats."""
    out = [_frac(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p, q) -> tuple[Fraction, ...]:
    return poly_trim([_frac(a) + _frac(b) for a, b in zip_longest(p, q, fillvalue=0)])


def poly_scale(p, c) -> tuple[Fraction, ...]:
    c = _frac(c)
    return poly_trim([_frac(a) * c for a in p])


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


def poly_eval(p, x) -> Fraction:
    """p(x) by Horner's rule on Fractions."""
    acc = Q(0)
    for c in reversed(p):
        acc = acc * _frac(x) + _frac(c)
    return acc


def poly_compose(p, q) -> tuple[Fraction, ...]:
    """p(q(t)) by Horner on polynomials."""
    acc: tuple[Fraction, ...] = ()
    for c in reversed(poly_trim(p)):
        acc = poly_add(poly_mul(acc, q), (c,))
    return acc


def rational_fn_fields(num, den) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The reduced (num, den) of RationalFn(num, den), den[0] == 1."""
    num = poly_trim(num)
    den = poly_trim(den)
    if not den or den[0] == 0:
        raise ValueError("denominator must have nonzero constant term")
    g = poly_gcd(num, den)
    if len(g) > 1:
        num, _ = poly_divmod(num, g)
        den, _ = poly_divmod(den, g)
    c = den[0]
    num = poly_scale(num, 1 / c)
    den = poly_scale(den, 1 / c)
    return num, den


def mt_relation_reference(zeta: RationalFn, det: RationalFn) -> list[int] | None:
    """mt_relation_check with Phi built as the reduced RationalFn 1/(zeta D)."""
    if zeta.at_zero() != 1 or det.at_zero() != 1:
        raise ValueError("zeta and D must have constant term 1")
    product = zeta * det
    phi = RationalFn(product.den, product.num)
    if phi.den != (1,):
        return None
    factors, residual = cyclotomic_peel(phi.num)
    return factors if residual == (1,) else None


def exp(series: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term."""
    if series.coeffs[0] != 0:
        raise ValueError("exp requires constant term 0")
    a = series.coeffs
    e = [Q(1)]
    for n in range(series.order):
        # (n+1) e_{n+1} = sum_{k} (k+1) a_{k+1} e_{n-k}
        s = sum(((k + 1) * a[k + 1] * e[n - k] for k in range(n + 1)), Q(0))
        e.append(s / (n + 1))
    return TruncSeries(series.order, tuple(e))


def log(series: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1."""
    if series.coeffs[0] != 1:
        raise ValueError("log requires constant term 1")
    u = series.coeffs
    out = [Q(0)]
    for n in range(1, series.order + 1):
        # n l_n = n u_n - sum_{0<k<n} k l_k u_{n-k}
        s = sum((k * out[k] * u[n - k] for k in range(1, n)), Q(0))
        out.append(u[n] - s / n)
    return TruncSeries(series.order, tuple(out))


def rf_to_series(rf, order: int) -> TruncSeries:
    """Exact power-series expansion of a rational function."""
    num, den = rf.num, rf.den
    out = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else Q(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            s -= den[k] * out[n - k]
        out.append(s)  # den[0] == 1 by normalization
    return TruncSeries(order, tuple(out))


def detect_period_all_pairs(coeffs) -> PeriodicityCertificate | None:
    """detect_eventual_periodicity as every (period, preperiod) pair is
    scanned: the smallest period, then the smallest preperiod, each at most
    len(coeffs) // 3, with the period repeating twice past the preperiod."""
    coeffs = list(coeffs)
    depth = len(coeffs)
    if depth == 0:
        return None
    bound = depth // 3
    for k in range(1, bound + 1):
        for p in range(0, bound + 1):
            if depth - p < 2 * k:
                break
            if all(coeffs[i + k] == coeffs[i] for i in range(p, depth - k)):
                return PeriodicityCertificate(preperiod=p, period=k, depth=depth)
    return None


# ---------------------------------------------------------------------------
# closed form of the virtually unimodal family, which generate_vu derives from
# the marked-orbit construction
# ---------------------------------------------------------------------------


def vu_closed_form(nu: int) -> Combinatorics:
    """Closed-form virtually unimodal combinatorics with nu turning points.

    Length nu+6; entry 0 is nu+5 for even nu and 0 for odd; entries 1..nu-1
    alternate between nu+1 and nu+3 ending at nu+1; entries nu..nu+4 are the
    embedded period-two marking (nu+2, nu+3, nu+4, nu+1, nu); the last entry
    is 0.
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    n = nu + 5
    entries = [0] * (n + 1)
    entries[0] = n if nu % 2 == 0 else 0
    for i in range(1, nu):
        entries[i] = nu + 1 if (nu - 1 - i) % 2 == 0 else nu + 3
    entries[nu : nu + 5] = [nu + 2, nu + 3, nu + 4, nu + 1, nu]
    entries[n] = 0
    return Combinatorics(tuple(entries))


def virtually_unimodal_five_conditions(rho) -> int | None:
    """is_virtually_unimodal as it tested all five conditions: lo < hi, c the
    only turning point inside H, the orbit of c inside H, F(H) = H, and every
    turning orbit meeting H."""
    rho = Combinatorics(tuple(rho))
    if not is_own_combinatorics(rho):
        raise ValueError("combinatorics is not its own combinatorics")
    trn = turning_points(rho)
    for c in trn:
        fc = rho[c]
        f2c = rho[fc]
        lo, hi = min(f2c, fc), max(f2c, fc)
        if lo >= hi:
            continue
        if [t for t in trn if lo < t < hi] != [c]:
            continue
        if not all(lo <= p <= hi for p in orbit_set(rho, c)):
            continue
        vals = [rho[j] for j in range(lo, hi + 1)]
        if (min(vals), max(vals)) != (lo, hi):
            continue
        if all(any(lo <= p <= hi for p in orbit_set(rho, t)) for t in trn):
            return c
    return None


# ---------------------------------------------------------------------------
# exact tent-map references for intervalzeta.fibmap
# ---------------------------------------------------------------------------


def tent_map(lam: Fraction, x: Fraction) -> Fraction:
    """T(x) = lam * min(x, 1 - x) on [0, 1], exact for rational data."""
    if not (0 <= x <= 1):
        raise ValueError("point outside [0, 1]")
    return lam * min(x, 1 - x)


def addresses(orb: TentOrbit, n_from: int, n_to: int) -> list[int]:
    """The addresses of c_n_from..c_n_to on an exact orbit."""
    return [orb.address(n) for n in range(n_from, n_to + 1)]


def parity_lex_cmp(a, b) -> int:
    """Compare address sequences in the parity-lexicographic order."""
    flip = 1
    for x, y in zip(a, b):
        if x != y:
            return flip * ((x > y) - (x < y))
        if x == _R:
            flip = -flip
        elif x == _C:
            break
    return 0


def pairwise_check(intervals) -> bool:
    """Whether no two intervals meet, by testing every pair."""
    return all(
        intervals[i].disjoint(intervals[j]) for i in range(len(intervals)) for j in range(i + 1, len(intervals))
    )


def structure_checks_pairwise(family: IntervalFamily, k_max: int) -> dict[str, bool]:
    """The checks of fibmap.verify_structure, in its key order, with every
    disjointness and nesting test made on all pairs of pieces and the
    injectivity test on recomputed orbit points."""
    orb = TentOrbit(family.lam, _s(k_max + 1))
    c = orb.point(0)
    checks = {}

    ok = True
    for kp in range(2, k_max + 1):
        for k in range(1, kp):
            ok = ok and family.D[kp - 1].contains(family.J[kp]) and family.I[k].contains(family.D[kp - 1])
    checks["J_in_D_in_I"] = ok

    ok = True
    for kp in range(1, k_max + 1):
        for k in range(1, kp):
            ok = ok and family.J[k].disjoint(family.J[kp])
    checks["J_pairwise_disjoint"] = ok

    checks["M_level_disjoint"] = all(pairwise_check(family.M[k]) for k in range(0, k_max + 1))

    ok = True
    for k in range(0, k_max):
        for piece in family.M[k + 1]:
            ok = ok and any(parent.contains(piece) for parent in family.M[k])
    checks["M_nested"] = ok

    ok = True
    for k in range(1, k_max + 1):
        for i in range(0, _s(k - 1) - 1):
            a, b = orb.point(1 + i), orb.point(_s(k) + 1 + i)
            lo, hi = min(a, b), max(a, b)
            ok = ok and not (lo < c < hi)
    checks["T_injective_ranges"] = ok

    ok = True
    for k in range(1, k_max):
        hits = [p for p in family.M[k + 1] if not p.disjoint(family.I[k])]
        names = {p.name for p in hits}
        ok = ok and names == {"I%d" % (k + 1), "J%d" % (k + 1)}
        ok = ok and all(family.I[k].contains(p) for p in hits)
    checks["Mk1_meets_Ik_exactly_I_J"] = ok
    return checks
