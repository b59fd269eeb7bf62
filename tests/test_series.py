from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tests_support as ref
from intervalzeta import series
from intervalzeta.combinatorics import generate_vu, pl_model
from intervalzeta.kneading import kneading_matrix
from intervalzeta.series import (
    RationalFn,
    TruncSeries,
    cyclotomic_peel,
    detect_eventual_periodicity,
    poly_compose,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_trim,
    rational_from_eventually_periodic,
    rf_to_series,
    series_matrix_det,
)


def S(coeffs, order):
    return TruncSeries.from_coeffs(coeffs, order)


class TestArithmetic:
    def test_one_is_multiplicative_unit(self):
        s = S([1, 2, 3], 5)
        assert (S([1], 5) * s).coeffs == s.coeffs

    def test_recip_of_one_minus_t_is_geometric(self):
        s = S([1, -1], 4)
        assert s.recip().coeffs == (1, 1, 1, 1, 1)

    def test_product_against_long_multiplication(self):
        # (1 - t - t^2) * 1/(1 - t^3) at order 6
        left = S([1, -1, -1], 6)
        right = S([1, 0, 0, -1], 6).recip()
        assert (left * right).coeffs == (1, -1, -1, 1, -1, -1, 1)

    def test_recip_requires_unit_constant(self):
        with pytest.raises(ValueError):
            S([0, 1], 4).recip()

    def test_order_truncates_to_minimum(self):
        assert (S([1], 8) * S([1], 3)).order == 3


class TestExpLog:
    def test_exp_of_zero(self):
        assert S([], 6).exp().coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_exp_of_harmonic_series_is_geometric(self):
        # exp(sum t^n / n) = exp(-log(1 - t)) = 1/(1 - t)
        s = TruncSeries(5, (Q(0), Q(1), Q(1, 2), Q(1, 3), Q(1, 4), Q(1, 5)))
        assert s.exp().coeffs == (1, 1, 1, 1, 1, 1)

    def test_exp_precondition(self):
        with pytest.raises(ValueError):
            S([1, 1], 3).exp()


class TestRationalFn:
    def test_geometric_expansion(self):
        assert rf_to_series(RationalFn((1,), (1, -2)), 3).coeffs == (1, 2, 4, 8)

    def test_fibonacci_expansion(self):
        s = rf_to_series(RationalFn((1,), (1, -1, -1)), 7)
        assert s.coeffs == (1, 1, 2, 3, 5, 8, 13, 21)

    def test_long_division(self):
        s = rf_to_series(RationalFn((1, -2), (1, -1)), 4)
        assert s.coeffs == (1, -1, -1, -1, -1)

    def test_reduction_is_canonical(self):
        # (1 - t^2)/((1 - t)(1 - t^3)) reduces like (1 + t)/(1 - t^3)
        a = RationalFn((1, 0, -1), poly_mul((1, -1), (1, 0, 0, -1)))
        b = RationalFn((1, 1), (1, 0, 0, -1))
        assert a == b

    def test_denominator_unit_required(self):
        with pytest.raises(ValueError):
            RationalFn((1,), (0, 1))


class TestDetectPeriodicity:
    def test_constant(self):
        cert = detect_eventual_periodicity([1] * 30)
        assert (cert.preperiod, cert.period) == (0, 1)

    def test_preperiodic(self):
        cert = detect_eventual_periodicity([1] + [-1] * 30)
        assert (cert.preperiod, cert.period) == (1, 1)

    def test_minimal_period(self):
        cert = detect_eventual_periodicity([1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
        assert (cert.preperiod, cert.period) == (0, 2)

    def test_search_bounds_are_a_third_of_the_depth(self):
        cert = detect_eventual_periodicity([0] * 4 + [1] * 8)
        assert (cert.preperiod, cert.period) == (4, 1)
        assert detect_eventual_periodicity([0] * 5 + [1] * 7) is None

    def test_no_certificate_on_short_input(self):
        assert detect_eventual_periodicity([1, 2]) is None

    def test_certificate_never_contradicts_inspected_coefficients(self):
        seq = [1, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1, 1]
        cert = detect_eventual_periodicity(seq)
        assert cert is not None
        p, k = cert.preperiod, cert.period
        assert all(seq[i + k] == seq[i] for i in range(p, len(seq) - k))

    @given(
        st.lists(st.integers(-1, 1), max_size=12),
        st.lists(st.integers(-1, 1), min_size=1, max_size=5),
        st.integers(0, 40),
        st.lists(st.integers(-1, 1), max_size=3),
    )
    @settings(max_examples=400)
    @example([], [1], 0, [])
    @example([0] * 4, [1], 8, [])
    @example([0] * 5, [1], 7, [])
    @example([1] * 11, [1], 0, [2])
    def test_certificate_equals_the_all_pairs_scan(self, prefix, cycle, repeats, tail):
        # an eventually periodic run, cut anywhere, with a few arbitrary
        # coefficients after it
        seq = prefix + [cycle[i % len(cycle)] for i in range(repeats)] + tail
        assert detect_eventual_periodicity(seq) == ref.detect_period_all_pairs(seq)

    def test_one_check_per_period(self, monkeypatch):
        # every preperiod fails for every period: the scan of every pair
        # made about depth^3 / 18 comparisons
        seq = [1] * 2999 + [2]
        checks = []
        monkeypatch.setattr(series, "all", lambda it: checks.append(1) or all(it), raising=False)
        assert detect_eventual_periodicity(seq) is None
        assert len(checks) == len(seq) // 3

    @given(
        st.lists(st.integers(-2, 2), min_size=0, max_size=4),
        st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_round_trip_through_rational_fn(self, prefix, cycle):
        rf = rational_from_eventually_periodic(prefix, cycle)
        n = 24
        expected = [prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)] for i in range(n + 1)]
        assert list(rf_to_series(rf, n).coeffs) == expected


class TestRationalFromEventuallyPeriodic:
    def test_constant_cycle(self):
        assert rational_from_eventually_periodic((), (1,)) == RationalFn((1,), (1, -1))

    def test_prefix_plus_cycle(self):
        assert rational_from_eventually_periodic((1,), (-1,)) == RationalFn((1, -2), (1, -1))

    def test_period_three(self):
        rf = rational_from_eventually_periodic((), (1, -1, -1))
        assert rf == RationalFn((1, -1, -1), (1, 0, 0, -1))


class TestCyclotomicPeel:
    def test_single_factor(self):
        factors, residual = cyclotomic_peel((1, 0, -1))
        assert factors == [2] and residual == (1,)

    def test_two_factors(self):
        factors, residual = cyclotomic_peel(poly_mul((1, -1), (1, 0, 0, -1)))
        assert factors == [1, 3] and residual == (1,)

    def test_not_of_the_form(self):
        factors, residual = cyclotomic_peel((1, 1))
        assert factors == [] and residual == (Q(1), Q(1))

    def test_inexact_division_stops(self):
        # the coefficient of t is negative, but 1 - t does not divide 1 - t - t^2
        factors, residual = cyclotomic_peel((1, -1, -1))
        assert factors == [] and residual == (1, -1, -1)

    @given(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    @settings(max_examples=40)
    def test_factors_multiply_back(self, exponents):
        poly = (Q(1),)
        for p in exponents:
            poly = poly_mul(poly, [1] + [0] * (p - 1) + [-1])
        factors, residual = cyclotomic_peel(poly)
        assert sorted(factors) == sorted(exponents)
        rebuilt = residual
        for p in factors:
            rebuilt = poly_mul(rebuilt, [1] + [0] * (p - 1) + [-1])
        assert poly_trim(rebuilt) == poly_trim(poly)


class TestMatrixDet:
    def test_one_by_one(self):
        s = S([2, 1], 4)
        assert series_matrix_det([[s]]).coeffs == s.coeffs

    def test_identity(self):
        one, zero = S([1], 4), S([], 4)
        assert series_matrix_det([[one, zero], [zero, one]]).coeffs == one.coeffs

    def test_two_by_two(self):
        one, t = S([1], 4), S([0, 1], 4)
        det = series_matrix_det([[one, t], [t, one]])
        assert det.coeffs == (1, 0, -1, 0, 0)

    def test_pivot_swap(self):
        # no constant term at (0, 0): the rows are swapped, flipping the sign
        one, t = S([1], 4), S([0, 1], 4)
        rows = [[t, one], [one, t]]
        assert series_matrix_det(rows).coeffs == naive_det(rows) == (-1, 0, 1, 0, 0)

    def test_t_shift(self):
        # the first column is divisible by t: it is divided by t and the
        # result multiplied by t, with no coefficient lost
        t, t2 = S([0, 1], 5), S([0, 0, 1], 5)
        rows = [[t, t2], [t2, t]]
        assert series_matrix_det(rows).coeffs == naive_det(rows) == (0, 0, 1, 0, -1, 0)

    def test_zero_matrix(self):
        zero = S([], 3)
        rows = [[zero] * 3 for _ in range(3)]
        assert series_matrix_det(rows).coeffs == naive_det(rows) == (0, 0, 0, 0)

    def test_cubic_count_of_products(self, monkeypatch):
        # fraction-free elimination makes 2 products per entry of each
        # trailing block, at most 2m^3/3; the Laplace expansion over the
        # 2^m column sets made 24,564 on this 12 x 12 minor
        kd = kneading_matrix(pl_model(generate_vu(12)))
        minor = [row[1:] for row in kd.series(sum(p + k for p, k in kd.periods))]
        calls = []
        convolve = series._convolve
        monkeypatch.setattr(series, "_convolve", lambda *a: calls.append(1) or convolve(*a))
        det = series_matrix_det(minor)
        m = len(minor)
        assert m == 12 and len(calls) <= 2 * m**3 / 3
        assert det.coeffs == ref.laplace_det(minor).coeffs


small_series = st.lists(st.integers(-3, 3), min_size=1, max_size=9).map(
    lambda cs: TruncSeries.from_coeffs(cs, 8)
)


def add(a, b):
    return tuple(x + y for x, y in zip(a.coeffs, b.coeffs))


class TestRingAxioms:
    @given(small_series, small_series, small_series)
    @settings(max_examples=50)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (S(add(a, b), 8) * c).coeffs == add(a * c, b * c)

    @given(small_series)
    @settings(max_examples=30)
    def test_recip_is_inverse_when_defined(self, a):
        if a[0] == 0:
            return
        assert (a * a.recip()).coeffs == S([1], 8).coeffs


# products and reciprocals run on integers scaled over a common denominator;
# these compare them with plain Fraction arithmetic on rational coefficients
rational_series = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=8
).map(lambda cs: TruncSeries.from_coeffs(cs, 7))


def naive_product(a, b):
    n = min(a.order, b.order)
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Q(0)) for k in range(n + 1))


def naive_recip(a):
    """1/a by Fraction arithmetic, a[0] != 0."""
    b = [Q(1) / a[0]]
    for n in range(1, a.order + 1):
        b.append(-sum((a[k] * b[n - k] for k in range(1, n + 1)), Q(0)) / a[0])
    return tuple(b)


def naive_det(rows):
    """Leibniz formula over truncated products."""
    m = len(rows)
    order = min(e.order for r in rows for e in r)
    acc = [Q(0)] * (order + 1)
    for perm in permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = S([1], order)
        for i, j in enumerate(perm):
            term = TruncSeries(order, naive_product(term, rows[i][j]))
        sign = -1 if inversions % 2 else 1
        acc = [x + sign * y for x, y in zip(acc, term.coeffs)]
    return tuple(acc)


class TestRationalCoefficients:
    @given(rational_series, rational_series)
    @settings(max_examples=50)
    def test_product_matches_fraction_arithmetic(self, a, b):
        assert (a * b).coeffs == naive_product(a, b)

    @given(rational_series)
    @settings(max_examples=50)
    def test_recip_matches_fraction_arithmetic(self, a):
        if a[0] == 0:
            return
        assert a.recip().coeffs == naive_recip(a)

    @given(st.integers(2, 4).flatmap(lambda m: st.lists(
        st.lists(rational_series, min_size=m, max_size=m), min_size=m, max_size=m)))
    @settings(max_examples=30)
    def test_matrix_det_matches_leibniz(self, rows):
        assert series_matrix_det(rows).coeffs == naive_det(rows)

    def test_matrix_det_truncates_to_smallest_order(self):
        rows = [[S([Q(1, 2), 1], 5), S([0, 1], 3)], [S([1, Q(-1, 3)], 4), S([2], 6)]]
        det = series_matrix_det(rows)
        assert det.order == 3
        assert det.coeffs == naive_det(rows)


# the integer kernels against the plain-Fraction loops they replaced
# (tests_support): mixed denominators, negative and non-unit leading
# coefficients, zero polynomials, denominators with constant term != 1
rationals = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=9))
polys = st.lists(rationals, max_size=7)
nonzero_polys = polys.filter(lambda p: any(p))


def rf_parts(g, u, v):
    """num = g*u and den = g*v: a common factor for the reduction to remove."""
    return ref.poly_mul(g, u), ref.poly_mul(g, v)


rational_fns = st.builds(
    rf_parts,
    nonzero_polys,
    polys,
    st.lists(rationals, min_size=1, max_size=5).filter(lambda v: v[0] != 0),
).filter(lambda parts: parts[1] and parts[1][0] != 0)


class TestIntegerKernelsMatchFractionReference:
    @given(polys, polys)
    @settings(max_examples=60)
    def test_poly_mul(self, p, q):
        assert poly_mul(p, q) == ref.poly_mul(p, q)

    @given(polys, nonzero_polys)
    @settings(max_examples=80)
    @example([Q(1, 2), 3, Q(-5, 6), 7], [1, 0, Q(-3, 4)])
    def test_poly_divmod(self, p, q):
        assert poly_divmod(p, q) == ref.poly_divmod(p, q)

    def test_poly_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod((1, 2), (0, Q(0)))

    def test_reduction_keeps_coefficients_primitive(self, monkeypatch):
        # Knuth's example (TAOCP 4.6.1): the plain pseudo-remainder sequence
        # of these coprime polynomials reaches a 35-digit coefficient, the
        # primitive one that reduces a RationalFn stays below 6200
        a = (-5, 2, 8, -3, -3, 0, 1, 0, 1)
        b = (21, -9, -4, 0, 5, 0, 3)
        seen = []
        divide = series._pseudo_divmod

        def recording(x, y):
            seen.extend(map(abs, x + y))
            return divide(x, y)

        monkeypatch.setattr(series, "_pseudo_divmod", recording)
        rf = RationalFn(a, b)
        assert (rf.num, rf.den) == (tuple(Q(x, 21) for x in a), tuple(Q(x, 21) for x in b))
        assert max(seen) < 2**13

    @given(polys, polys)
    @settings(max_examples=40)
    def test_poly_compose(self, p, q):
        assert poly_compose(p, q) == ref.poly_compose(p, q)

    @given(polys, rationals)
    @settings(max_examples=60)
    def test_poly_eval(self, p, x):
        assert poly_eval(p, x) == ref.poly_eval(p, x)

    @given(rational_fns)
    @settings(max_examples=80)
    @example(((), (2, 1)))
    @example(((0, 0), (Q(-3, 2), 1)))
    def test_rational_fn_reduction(self, parts):
        num, den = parts
        rf = RationalFn(num, den)
        assert (rf.num, rf.den) == ref.rational_fn_fields(num, den)
        if not any(num):
            assert rf.den == (1,)

    @given(rational_fns, st.integers(0, 12))
    @settings(max_examples=80)
    @example(((1,), (Q(2, 3), Q(-5, 7), Q(3, 4))), 8)
    def test_rf_to_series(self, parts, order):
        rf = RationalFn(*parts)
        assert rf_to_series(rf, order).coeffs == ref.rf_to_series(rf, order).coeffs

    @given(st.lists(rationals, max_size=10), st.integers(0, 10))
    @settings(max_examples=60)
    def test_exp(self, tail, order):
        s = TruncSeries.from_coeffs([0] + tail, order)
        assert s.exp().coeffs == ref.exp(s).coeffs


# every coefficient the layer returns is an int when it is an integer and a
# Fraction otherwise, whatever mix of ints, bools and integral or other
# Fractions goes in
mixed = st.one_of(rationals, st.booleans(), st.integers(-4, 4).map(Q))
mixed_polys = st.lists(mixed, max_size=7)


class TestCoefficientTypes:
    @given(mixed_polys, mixed_polys)
    @settings(max_examples=80)
    def test_polynomials(self, p, q):
        ref.assert_exact(poly_trim(p), ref.poly_trim(p))
        ref.assert_exact(series.poly_sub(p, q), ref.poly_add(p, ref.poly_scale(q, -1)))
        ref.assert_exact(poly_mul(p, q), ref.poly_mul(p, q))
        ref.assert_exact(poly_compose(p, q), ref.poly_compose(p, q))
        if any(q):
            for got, want in zip(poly_divmod(p, q), ref.poly_divmod(p, q)):
                ref.assert_exact(got, want)

    @given(mixed_polys, mixed_polys, mixed, st.integers(0, 8))
    @settings(max_examples=80)
    def test_series(self, p, q, c, order):
        a, b = S(p, order), S(q, order)
        ref.assert_exact(a.coeffs, [Q(x) for x in p[: order + 1]] + [Q(0)] * (order + 1 - len(p)))
        ref.assert_exact((a * b).coeffs, naive_product(a, b))
        ref.assert_exact((a * c).coeffs, [x * Q(c) for x in a.coeffs])
        ref.assert_exact((c * a).coeffs, [x * Q(c) for x in a.coeffs])
        if a[0]:
            ref.assert_exact(a.recip().coeffs, naive_recip(a))
        s = S([0, *q], order)
        ref.assert_exact(s.exp().coeffs, ref.exp(s).coeffs)

    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.lists(mixed_polys.map(lambda p: S(p, 5)), min_size=m, max_size=m), min_size=m, max_size=m)))
    @settings(max_examples=40)
    def test_matrix_det(self, rows):
        ref.assert_exact(series_matrix_det(rows).coeffs, ref.laplace_det(rows).coeffs)

    @given(rational_fns, st.integers(0, 10), mixed_polys, mixed_polys.filter(bool))
    @settings(max_examples=80)
    def test_rational_functions(self, parts, order, prefix, cycle):
        rf = RationalFn(*parts)
        for got, want in zip((rf.num, rf.den), ref.rational_fn_fields(*parts)):
            ref.assert_exact(got, want)
        ref.assert_exact(rf_to_series(rf, order).coeffs, ref.rf_to_series(rf, order).coeffs)
        rf = rational_from_eventually_periodic(prefix, cycle)
        for got, want in zip((rf.num, rf.den), ref.rational_fn_fields(rf.num, rf.den)):
            ref.assert_exact(got, want)
        expansion = [*prefix, *(cycle[k % len(cycle)] for k in range(order + 1))][: order + 1]
        ref.assert_exact(rf_to_series(rf, order).coeffs, map(Q, expansion))

    @given(st.lists(st.integers(1, 4), max_size=3), polys)
    @settings(max_examples=60)
    def test_cyclotomic_peel(self, exponents, tail):
        phi = (1,)
        for p in exponents:
            phi = ref.poly_mul(phi, (1,) + (0,) * (p - 1) + (-1,))
        poly = ref.poly_mul(phi, (1, *tail))
        factors, residual = cyclotomic_peel(poly)
        peeled = (1,)
        for p in factors:
            peeled = ref.poly_mul(peeled, (1,) + (0,) * (p - 1) + (-1,))
        ref.assert_exact(residual, ref.poly_divmod(poly, peeled)[0])
