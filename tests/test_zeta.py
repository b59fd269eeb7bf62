from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests_support as ref
from intervalzeta.combinatorics import count_fixed_points_of_iterate, generate_vu, pl_model
from intervalzeta import zeta
from intervalzeta.series import RationalFn, TruncSeries, poly_mul, rf_to_series
from intervalzeta.subshift import fib_adjacency, sft_periodic_counts
from intervalzeta.zeta import (
    NonIntegralCountError,
    counts_from_zeta,
    mt_relation_check,
    zeta_from_counts,
    zeta_vu_closed_form,
)

FIB_ZETA = RationalFn((1,), (1, -1, -1))
ONE = RationalFn((1,), (1,))


def unit_polys():
    """Small integer polynomials with constant term 1."""
    return st.lists(st.integers(-3, 3), max_size=4).map(lambda tail: (1, *tail))


def rational_unit_polys():
    """Small rational polynomials with constant term 1."""
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(coeffs, max_size=4).map(lambda tail: (1, *tail))


@st.composite
def unreduced(draw, num, den):
    """Integer lists for num/den over one common denominator, times a common
    factor g with g(0) != 0."""
    g = (draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), *draw(st.lists(st.integers(-3, 3), max_size=3)))
    num, den = poly_mul(num, g), poly_mul(den, g)
    d = lcm(*(c.denominator for c in (*num, *den)))
    return [int(c * d) for c in num], [int(c * d) for c in den]


@st.composite
def zeta_pairs(draw):
    """(num, den, D): zeta = num/den unreduced and D with rational
    coefficients, each with constant term 1."""
    num, den = draw(unreduced(draw(unit_polys()), draw(unit_polys())))
    return num, den, RationalFn(draw(rational_unit_polys()), draw(rational_unit_polys()))


@st.composite
def peelable_pairs(draw):
    """(exponents, num, den, D) with zeta = num/den = 1/(Phi D) unreduced,
    Phi the product of the (1 - t^p) factors."""
    det = RationalFn(draw(rational_unit_polys()), draw(rational_unit_polys()))
    exponents = draw(st.lists(st.integers(1, 4), max_size=3))
    phi = (1,)
    for p in exponents:
        phi = poly_mul(phi, (1,) + (0,) * (p - 1) + (-1,))
    return (exponents, *draw(unreduced(det.den, poly_mul(phi, det.num))), det)


class TestZetaFromCounts:
    def test_no_periodic_points(self):
        assert zeta_from_counts([0] * 8).coeffs == (1,) + (0,) * 8

    def test_single_fixed_point(self):
        assert zeta_from_counts([1] * 8).coeffs == (1,) * 9

    def test_fibonacci_shift(self):
        counts = sft_periodic_counts(fib_adjacency(), 32)
        assert zeta_from_counts(counts).coeffs == rf_to_series(FIB_ZETA, 32).coeffs

    def test_work_over_budget_is_refused_before_exp(self, monkeypatch):
        # 20 counts of 24980 bits make n^3 (b + n)^2 = 20^3 * 25000^2, the
        # bound itself; a count of one bit more, or one count more, is over it
        ran = []
        monkeypatch.setattr(TruncSeries, "exp", lambda self: ran.append(self.order) or self)
        at_bound = [2**24980 - 1] * 20
        assert 20**3 * 25000**2 == zeta.MAX_FROM_COUNTS_WORK
        zeta_from_counts(at_bound)
        assert ran == [20]
        with pytest.raises(ValueError, match=r"^20 counts of up to 24981 bits: n\^3 \(b \+ n\)\^2 = "
                                             r"5000400008000, capped at 5000000000000$"):
            zeta_from_counts([*at_bound[1:], 2**24981 - 1])
        with pytest.raises(ValueError, match="capped at"):
            zeta_from_counts([*at_bound, 1])
        assert ran == [20]


class TestCountsFromZeta:
    def test_fibonacci(self):
        assert counts_from_zeta(FIB_ZETA, 6) == [1, 3, 4, 7, 11, 18]

    def test_trivial(self):
        assert counts_from_zeta(RationalFn((1,), (1, -1)), 5) == [1] * 5

    def test_cubic_closed_form(self):
        den = poly_mul(poly_mul((1, 0, 0, -1), (1, 0, -1)), (1, -1, -1))
        counts = counts_from_zeta(RationalFn((1,), den), 6)
        assert counts == [1, 5, 7, 9, 11, 23]

    def test_non_integral_is_hard_error(self):
        with pytest.raises(NonIntegralCountError):
            counts_from_zeta(RationalFn((2,), (2, -1)), 4)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            counts_from_zeta(RationalFn((2,), (1, -1)), 4)

    @given(st.lists(st.integers(0, 5), min_size=10, max_size=10))
    @settings(max_examples=40)
    def test_round_trip(self, counts):
        z = zeta_from_counts(counts)
        # recover by log derivative of the series: n * [t^n] log zeta
        logz = ref.log(z)
        recovered = [int(logz[n] * n) for n in range(1, 11)]
        assert recovered == counts


class TestClosedForm:
    def test_even(self):
        rf = zeta_vu_closed_form(2)
        den = poly_mul(poly_mul((1, 0, -1), (1, 0, 0, -1)), (1, -1, -1))
        assert rf == RationalFn((1,), den)

    def test_odd(self):
        rf = zeta_vu_closed_form(3)
        den = poly_mul(poly_mul((1, -1), (1, 0, 0, -1)), (1, -1, -1))
        assert rf == RationalFn((1,), den)

    def test_parity_only(self):
        assert zeta_vu_closed_form(4) == zeta_vu_closed_form(2)
        assert zeta_vu_closed_form(5) == zeta_vu_closed_form(3)

    def test_rejects_small_nu(self):
        with pytest.raises(ValueError):
            zeta_vu_closed_form(1)

    @pytest.mark.parametrize("nu, p_max", [(2, 5), (3, 5), (4, 4), (5, 4)])
    def test_pinned_to_the_pl_model(self, nu, p_max):
        # without its factor 1/(1 - t^3) the closed form counts the fixed
        # points of the iterates of the PL model of generate_vu(nu)
        model = pl_model(generate_vu(nu))
        rf = zeta_vu_closed_form(nu) * RationalFn((1, 0, 0, -1), (1,))
        assert counts_from_zeta(rf, p_max) == [count_fixed_points_of_iterate(model, p) for p in range(1, p_max + 1)]

    def test_counts_are_nonnegative_integers(self):
        for nu in range(2, 9):
            counts = counts_from_zeta(zeta_vu_closed_form(nu), 24)
            assert all(c >= 0 for c in counts)


class TestMTRelation:
    def test_full_tent(self):
        zeta_rf = RationalFn((1,), (1, -2))
        det = RationalFn((1, -2), (1, -1))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, det) == [1]

    def test_det_equals_reciprocal_zeta(self):
        zeta_rf = RationalFn((1,), (1, -1, -1))
        det = RationalFn((1, -1, -1), (1,))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, det) == []

    def test_unpeelable_polynomial_returns_none(self):
        # phi = 1/(zeta * D) = 1 + t has no (1 - t^p) factorization
        zeta_rf = RationalFn((1,), (1, 1))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, ONE) is None

    def test_non_stabilizing_returns_none(self):
        # phi = 1/(1 - t) never becomes a polynomial
        zeta_rf = RationalFn((1, -1), (1,))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, ONE) is None

    def test_high_degree_polynomial_phi(self):
        # phi = 1 - t^20
        zeta_rf = RationalFn((1,), (1,) + (0,) * 19 + (-1,))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, ONE) == [20]

    @given(zeta_pairs())
    @settings(max_examples=150)
    def test_matches_the_reciprocal_reference(self, case):
        num, den, det = case
        assert mt_relation_check(num, den, det) == ref.mt_relation_reference(RationalFn(num, den), det)

    @given(peelable_pairs(), st.booleans(), st.data())
    @settings(max_examples=150)
    def test_one_changed_coefficient_matches_the_reference(self, case, in_num, data):
        # a coefficient past the constant term of a peelable zeta moves by
        # one, or a new top coefficient 1 is added
        _, num, den, det = case
        f = num if in_num else den
        i = data.draw(st.integers(1, len(f)))
        f[i:i + 1] = [f[i] + data.draw(st.sampled_from((-1, 1)))] if i < len(f) else [1]
        assert mt_relation_check(num, den, det) == ref.mt_relation_reference(RationalFn(num, den), det)

    @given(peelable_pairs())
    @settings(max_examples=150)
    def test_peels_one_over_phi_d(self, case):
        exponents, num, den, det = case
        factors = mt_relation_check(num, den, det)
        assert factors == ref.mt_relation_reference(RationalFn(num, den), det)
        assert sorted(factors) == sorted(exponents)

    def test_pole_beyond_truncation_returns_none(self):
        # phi = 1/(1 - t^40), whose expansion is 1 through t^39
        zeta_rf = RationalFn((1,) + (0,) * 39 + (-1,), (1,))
        assert mt_relation_check(zeta_rf.num, zeta_rf.den, ONE) is None

    def test_coefficient_over_the_peel_bound_stops_the_division(self, monkeypatch):
        # phi = (1 + 5t)(1 - t) = 1 + 4t - 5t^2 is an integer polynomial and
        # the exact quotient, but its -5 is over 2^2: no phi of degree 2 that
        # peels has it
        monkeypatch.setattr(zeta, "cyclotomic_peel", lambda poly: pytest.fail("phi was peeled"))
        assert mt_relation_check((1,), (1, 4, -5), ONE) is None

    def test_inexact_quotient_fails_the_product_check(self, monkeypatch):
        # (1 + t^2)/(1 + t) begins 1 - t, which peels, but 1 + t^2 is not
        # (1 + t)(1 - t): every division step is exact and within 2^1
        monkeypatch.setattr(zeta, "cyclotomic_peel", lambda poly: pytest.fail("phi was peeled"))
        assert mt_relation_check((1, 1), (1, 0, 1), ONE) is None

    @pytest.mark.parametrize("num, den, det, reason", [
        ((1,), (), ONE, "denominator must have nonzero constant term"),
        ((), (0, 1), RationalFn((2,), (1,)), "denominator must have nonzero constant term"),
        ((), (1, -2), RationalFn((2,), (1,)), "zeta must have constant term 1"),
        ((2, 1), (1, -2), RationalFn((2,), (1,)), "zeta must have constant term 1"),
        ((3, 1), (3, -2), RationalFn((2, 1), (1,)), "kneading determinant must have leading coefficient 1"),
    ])
    def test_refusals_in_order(self, num, den, det, reason):
        with pytest.raises(ValueError, match="^%s$" % reason):
            mt_relation_check(num, den, det)
