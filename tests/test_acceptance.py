"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; every expected value below is either a published constant or was
frozen from the stated independent oracle before the implementation ran.
"""

import random
import time
from fractions import Fraction as Q

from intervalzeta.combinatorics import (
    count_fixed_points_of_iterate,
    generate_vu,
    is_expanding,
    is_own_combinatorics,
    is_pm,
    is_virtually_unimodal,
    pl_model,
)
from intervalzeta.cubicfam import (
    count_periodic,
    critical_value,
    critical_value_direct,
    critical_value_factored,
    cubic_family,
    repeller_pieces,
    s_star,
    verify_critical_orbit,
)
from intervalzeta.fibmap import (
    TentOrbit,
    cut_times,
    diameter_ratios,
    orbit_order_holds,
    target_kneading,
)
from intervalzeta.kneading import (
    kneading_determinant,
    kneading_matrix,
    kneading_rational,
    unimodal_kneading,
    unimodal_rational_form,
)
from intervalzeta.series import RationalFn, detect_eventual_periodicity, poly_eval, rf_to_series
from intervalzeta.subshift import fib_adjacency, fib_language, fib_numbers, sft_periodic_counts
from intervalzeta.zeta import counts_from_zeta, mt_relation_check, zeta_from_counts, zeta_vu_closed_form
from tests_support import CUBIC_COUNTS, FIB_WORD_COUNTS, PAPER_M_LABELS, _column_determinants

FIB_ZETA = RationalFn((1,), (1, -1, -1))


def _report(n: int, text: str) -> None:
    print("[acceptance] criterion %2d: PASS  %s" % (n, text))


def test_criterion_01_fibonacci_shift_zeta():
    t0 = time.perf_counter()
    counts = sft_periodic_counts(fib_adjacency(), 32)
    series = zeta_from_counts(counts)
    expected = rf_to_series(FIB_ZETA, 32)
    elapsed = time.perf_counter() - t0
    assert series.coeffs == expected.coeffs
    assert elapsed < 1.0
    _report(1, "zeta of the Fibonacci shift matches 1/(1-t-t^2) through t^32 (%.3fs)" % elapsed)


def test_criterion_02_trace_counts():
    counts = sft_periodic_counts(fib_adjacency(), 4)
    assert counts == [1, 3, 4, 7]
    ell = fib_numbers(6)
    assert counts == [ell[n - 1] + ell[n + 1] for n in range(1, 5)]
    _report(2, "trace counts N_1..N_4 = 1, 3, 4, 7 equal the Fibonacci form")


def test_criterion_03_generated_vectors():
    rho2, rho3 = generate_vu(2), generate_vu(3)
    assert rho2.entries == (7, 3, 4, 5, 6, 3, 2, 0)
    assert rho3.entries == (0, 6, 4, 5, 6, 7, 4, 3, 0)
    assert is_expanding(rho2) and is_expanding(rho3)
    _report(3, "generate_vu(2) and generate_vu(3) match and are expanding")


def test_criterion_04_classifier_worked_examples():
    pm = is_pm((0, 3, 3, 2, 0))
    assert not pm and pm.witness == 1
    own = is_own_combinatorics((0, 3, 4, 7, 6, 5, 2, 1, 0))
    assert not own and own.induced_labels == (0, 1, 3, 7, 0)
    assert is_virtually_unimodal((5, 2, 3, 4, 2, 0)) == 3
    assert is_virtually_unimodal((6, 2, 1, 4, 5, 3, 0)) is None
    _report(4, "all four worked classifier examples reproduce exactly")


def test_criterion_05_kneading_determinant_period_three():
    model = pl_model((0, 2, 3, 1, 0))
    det = kneading_determinant(model, 48)
    expected = rf_to_series(RationalFn((1, -1, -1), (1, 0, 0, -1)), 48)
    assert det.coeffs == expected.coeffs
    # every deletable column of the truncated matrix, not the exact path's own expansion
    columns = _column_determinants(kneading_matrix(model), 48)
    assert len(columns) == 2 and all(c.coeffs == det.coeffs for c in columns)
    _report(5, "D(t) of the period-three model equals (1-t-t^2)/(1-t^3) through t^48, all columns agree")


def test_criterion_06_milnor_thurston_full_tent():
    model = pl_model((0, 2, 0))
    # independent oracle: brute-force fixed points of every iterate
    brute = [count_fixed_points_of_iterate(model, n) for n in range(1, 11)]
    assert brute == [2**n for n in range(1, 11)]
    zeta_rf = RationalFn((1,), (1, -2))
    factors = mt_relation_check(zeta_rf.num, zeta_rf.den, kneading_rational(model))
    assert factors == [1]
    _report(6, "full-tent Phi peels to [(1-t)] with residual 1; oracle counts are 2^n")


def test_criterion_07_cubic_exact_identities():
    rng = random.Random(20240811)
    t0 = time.perf_counter()
    for _ in range(50):
        s = 1 + Q(rng.randrange(0, 371), 1000)
        poly, par = cubic_family(s)
        assert poly_eval(poly, Q(0)) == 1 and poly_eval(poly, Q(1)) == -s and poly_eval(poly, -s) == 0
        assert verify_critical_orbit(s)
        assert critical_value_direct(s) == critical_value_factored(s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, "50 random rational parameters satisfy all exact identities (%.3fs)" % elapsed)


def test_criterion_08_s_star_and_first_critical_value():
    root = s_star(1e-4)
    assert abs(root.value - 1.371) <= 1e-3
    assert critical_value(1) == -1
    _report(8, "s_* = %.4f within 1e-3 of 1.371; F_1(c_1) = -1 exactly" % root.value)


def test_criterion_09_cubic_periodic_counts():
    # oracle first: counts from the logarithmic derivative of the closed form
    oracle = counts_from_zeta(zeta_vu_closed_form(2), 6)
    assert oracle == CUBIC_COUNTS
    t0 = time.perf_counter()
    numeric = [count_periodic(1, n).count for n in range(1, 7)]
    elapsed = time.perf_counter() - t0
    assert numeric == oracle
    assert elapsed < 30.0
    _report(9, "numeric N_1..N_6 = %s match the log-derivative oracle (%.2fs)" % (numeric, elapsed))


def test_criterion_10_repeller_pieces():
    s = Q(6, 5)
    previous_max = None
    for depth in range(1, 11):
        pieces = [p.interval for p in repeller_pieces(s, depth)]
        assert len(pieces) == len(fib_language(depth)) == FIB_WORD_COUNTS[depth - 1]
        assert all(
            pieces[i].disjoint(pieces[j]) for i in range(len(pieces)) for j in range(i + 1, len(pieces))
        )
        largest = max(p.diameter for p in pieces)
        if previous_max is not None:
            assert largest < previous_max
        previous_max = largest
    _report(10, "piece counts 2..144 match the word counts; disjoint; max diameter strictly decreasing")


def test_criterion_11_fibonacci_tent_structure(fib_lambda_12, fib_family_10):
    lam = fib_lambda_12
    assert orbit_order_holds(lam, 8)
    family = fib_family_10
    for k, expected in PAPER_M_LABELS.items():
        assert [p.label_set for p in family.M[k]] == [frozenset(pair) for pair in expected]
    report = diameter_ratios(family, 8)
    s = cut_times(9)
    for k in range(1, 9):
        bound = Q(1, 10**8) * lam ** s[k - 1]
        assert report.residuals[k - 1] < bound
    assert all(0 < c < 1 for c in report.C)
    assert all(a < b for a, b in zip(report.C, report.C[1:]))
    _report(11, "closest returns, level labels, recurrence residuals, and C_k monotonicity all hold")


def test_criterion_12_rationality_dichotomy(fib_lambda_12):
    rng = random.Random(64)
    for _ in range(100):
        prefix = [rng.choice((1, -1)) for _ in range(rng.randrange(0, 7))]
        cycle = [rng.choice((1, -1)) for _ in range(rng.randrange(1, 7))]
        rf = unimodal_rational_form(prefix, cycle)
        order = 2 * (len(prefix) + 2 * len(cycle)) + 16
        eps = [prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)] for n in range(order)]
        assert rf_to_series(rf, order).coeffs == unimodal_kneading(eps, order).coeffs
    # the Fibonacci tent signs are aperiodic: no certificate at depth 64
    signs = target_kneading(9)[:64]
    orb = TentOrbit(fib_lambda_12, 64)
    assert [1 if orb.address(n) == 0 else -1 for n in range(1, 65)] == signs
    partial = [1]
    for e in signs:
        partial.append(partial[-1] * e)
    assert detect_eventual_periodicity(partial[:64]) is None
    _report(12, "100 eventually periodic sign sequences expand exactly; Fibonacci truncation yields no certificate")
