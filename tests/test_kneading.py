from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta import kneading
from intervalzeta.combinatorics import Combinatorics, PLModel, generate_vu, is_pm, pl_model, turning_points
from intervalzeta.kneading import (
    KneadingError,
    _rational_determinant,
    _sided_lap,
    kneading_determinant,
    kneading_matrix,
    kneading_rational,
    lap_shape,
    theta_series,
    unimodal_kneading,
    unimodal_rational_form,
    vu_structure_check,
)
from intervalzeta.series import RationalFn, TruncSeries, rf_to_series, series_matrix_det

from tests_support import (
    _column_determinants,
    assert_exact,
    laplace_det,
    rational_fn_fields,
    rows_break_identity,
    unimodal_eps,
    vu_structure_fields,
)

RHO0 = (0, 2, 3, 1, 0)
FULL_TENT = (0, 2, 0)
# 11 turning points whose orbits have N = sum_i (P_i + L_i) = 178
LONG_ORBITS = (15, 8, 14, 7, 13, 2, 10, 9, 5, 16, 17, 14, 9, 15, 6, 3, 1, 4)


def sub(a, b):
    """The coefficients of a - b, two series of one order."""
    return tuple(x - y for x, y in zip(a.coeffs, b.coeffs))


def reflect(rho):
    n = len(rho) - 1
    return tuple(n - rho[n - i] for i in range(n + 1))


@st.composite
def pm_rhos(draw, turns, max_n=6):
    """Piecewise monotone combinatorics vectors with `turns` turning points.

    Built directly, so every such vector with n <= max_n can be drawn and
    none is rejected: a sign per step with exactly `turns` sign changes,
    then values in {0..n} that keep every remaining run feasible.
    """
    n = draw(st.integers(turns + 1, max_n))
    flips = draw(st.sets(st.integers(1, n - 1), min_size=turns, max_size=turns))
    sign = draw(st.sampled_from((1, -1)))
    signs = []
    for i in range(n):
        sign = -sign if i in flips else sign
        signs.append(sign)
    # lo[i]..hi[i]: the values at i from which signs[i:] fit inside {0..n}
    lo, hi = [0] * (n + 1), [n] * (n + 1)
    for i in reversed(range(n)):
        if signs[i] > 0:
            hi[i] = hi[i + 1] - 1
        else:
            lo[i] = lo[i + 1] + 1
    rho = [draw(st.integers(lo[0], hi[0]))]
    for i in range(n):
        if signs[i] > 0:
            rho.append(draw(st.integers(max(rho[-1] + 1, lo[i + 1]), hi[i + 1])))
        else:
            rho.append(draw(st.integers(lo[i + 1], min(rho[-1] - 1, hi[i + 1]))))
    return tuple(rho)


def long_cycle_rhos():
    """Permutations of {0..n}, 3 <= n <= 9, that are not monotone: at most 8
    turning points, each turning orbit a cycle, often of length near n + 1."""
    rhos = st.integers(3, 9).flatmap(lambda n: st.permutations(range(n + 1))).map(tuple)
    return rhos.filter(lambda rho: turning_points(Combinatorics(rho)))


class TestPMRhos:
    @pytest.mark.parametrize("turns", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_draws_have_the_asked_turns(self, turns, data):
        rho = data.draw(pm_rhos(turns))
        assert is_pm(rho) and len(turning_points(Combinatorics(rho))) == turns


class TestAddress:
    """Laps of sided points: turning points resolve by side, endpoints face inward."""

    def test_out_of_domain(self):
        with pytest.raises(ValueError, match="left the domain"):
            _sided_lap([1], 2, Q(5, 2), +1)

    def test_sides(self):
        sided = ((1, -1), (1, 1), (3, -1), (3, 1))
        assert [_sided_lap([1, 3], 4, x, side) for x, side in sided] == [0, 1, 1, 2]
        assert [_sided_lap([1, 3], 4, x, 1) for x in (0, Q(1, 2), 2, Q(7, 2))] == [0, 0, 1, 2]
        assert _sided_lap([1, 3], 4, 4, -1) == 2
        for x, side in ((0, -1), (4, 1)):
            with pytest.raises(ValueError, match="outside the domain"):
                _sided_lap([1, 3], 4, x, side)


class TestThetaSeries:
    def test_full_tent_plus_side(self):
        comps = theta_series(pl_model(FULL_TENT), 1, +1, 5)
        assert comps[1].coeffs == (1, -1, 0, 0, 0, 0)
        assert comps[0].coeffs == (0, 0, 1, 1, 1, 1)

    def test_order_zero_term_is_signed_side_lap(self):
        model = pl_model(RHO0)
        plus = theta_series(model, 1, +1, 0)
        minus = theta_series(model, 1, -1, 0)
        assert plus[1][0] == 1 and plus[0][0] == 0
        assert minus[0][0] == 1 and minus[1][0] == 0

    def test_increment_leading_structure(self):
        model = pl_model(RHO0)
        plus = theta_series(model, 1, +1, 8)
        minus = theta_series(model, 1, -1, 8)
        nu_right = sub(plus[1], minus[1])
        nu_left = sub(plus[0], minus[0])
        assert nu_right[0] == 1 and nu_left[0] == -1


class TestKneadingMatrix:
    @given(st.one_of(pm_rhos(1), pm_rhos(2), pm_rhos(3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_theta_increments(self, rho, data):
        # the one walk of c_i^+ against both sided itineraries, at any order
        model = pl_model(rho)
        kd = kneading_matrix(model)
        order = data.draw(st.integers(0, 3 * sum(p + k for p, k in kd.periods)))
        for i, row in enumerate(kd.series(order), start=1):
            plus = theta_series(model, i, +1, order)
            minus = theta_series(model, i, -1, order)
            assert [e.coeffs for e in row] == [sub(p, q) for p, q in zip(plus, minus)]

    @pytest.mark.parametrize("nu, evaluations", [(3, 14), (5, 24)])
    def test_one_walk_per_turning_point(self, nu, evaluations, monkeypatch):
        # generate_vu walks the base model, so the model is built first
        model = pl_model(generate_vu(nu))
        calls = []
        evaluate = PLModel.__call__

        def counted(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(PLModel, "__call__", counted)
        kneading_rational(model)
        assert len(calls) <= evaluations
        kd = kneading_matrix(model)
        assert kd.periods == ((1, 4),) * (nu - 1) + ((1, 3),)

    def test_modality_cap(self):
        # generate_vu(20) has m = 20 and N = 99, within both caps
        assert kneading.CAPS == {"m": 20, "N": 160}
        assert kneading_matrix(pl_model(generate_vu(20))).modality == 20
        with pytest.raises(ValueError, match="^21 turning points, capped at 20$"):
            kneading_matrix(pl_model(generate_vu(21)))

    def test_orbit_length_cap(self):
        with pytest.raises(ValueError, match="^N = sum of preperiods and periods = 178, capped at 160$"):
            kneading_rational(pl_model(LONG_ORBITS))


class TestRowIdentity:
    """sum_j nu_ij(t) (1 - s_j t) = 0 for every row: what makes every
    deletable column give the same determinant."""

    @given(st.one_of(pm_rhos(1), pm_rhos(2), pm_rhos(3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_row_satisfies_the_identity(self, rho, data):
        kd = kneading_matrix(pl_model(rho))
        rows = kd.series(data.draw(st.integers(0, 3 * sum(p + k for p, k in kd.periods))))
        one_minus_st = [TruncSeries.from_coeffs((1, -s), rows[0][0].order) for s in kd.shape]
        for row in rows:
            products = [e * f for e, f in zip(row, one_minus_st)]
            assert not any(map(sum, zip(*(p.coeffs for p in products))))

    # hand-built corruptions of the full tent's data: the one row is
    # (-1 + 2t^2 + 2t^3 + ..., 1 - 2t), the word ((1, -2), (0, 2)) with
    # preperiod 2, period 1 and shape (1, -1); each reaches one KneadingError

    def test_row_breaking_the_identity(self):
        kd = kneading_matrix(pl_model(FULL_TENT))
        assert kd.words == (((1, -2), (0, 2)),)
        with pytest.raises(KneadingError, match="row 1 breaks the Milnor-Thurston identity"):
            _rational_determinant(kd._replace(words=(((1, -2), (0, -2)),)))

    def test_wrong_period_breaks_the_identity_at_the_wrap(self):
        # period 2 from t^1 would make t^3 = (1, -2), where the identity needs (0, 2)
        kd = kneading_matrix(pl_model(FULL_TENT))
        assert kd.periods == ((2, 1),)
        with pytest.raises(KneadingError, match="row 1 breaks the Milnor-Thurston identity"):
            _rational_determinant(kd._replace(periods=((1, 2),)))

    @given(st.integers(1, 4).flatmap(lambda m: pm_rhos(m, 9)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_corrupted_words_break_the_identity_as_the_recurrence_says(self, rho, data):
        # one corruption of a true matrix: a term's sign flipped, a term moved
        # to another lap, or the cycle start moved by one within the word
        kd = kneading_matrix(pl_model(rho))
        assert rows_break_identity(kd) is None
        i = data.draw(st.integers(1, kd.modality))
        words, periods = list(kd.words), list(kd.periods)
        (p, k), word = periods[i - 1], list(words[i - 1])
        shifts = [d for d in (1, -1) if 1 <= p + d and 1 <= k - d]
        kind = data.draw(st.sampled_from(["sign", "lap", "period"] if shifts else ["sign", "lap"]))
        if kind == "period":
            d = data.draw(st.sampled_from(shifts))
            periods[i - 1] = (p + d, k - d)
        else:
            n = data.draw(st.integers(0, len(word) - 1))
            lap, c = word[n]
            if kind == "sign":
                word[n] = (lap, -c)
            else:
                word[n] = (data.draw(st.integers(0, kd.modality).filter(lambda x: x != lap)), c)
            words[i - 1] = tuple(word)
        bad = kd._replace(words=tuple(words), periods=tuple(periods))
        broken = rows_break_identity(bad)
        if broken is None:
            _rational_determinant(bad)
        else:
            with pytest.raises(KneadingError, match="^row %d breaks the Milnor-Thurston identity$" % broken):
                _rational_determinant(bad)

    # words that pass the identity fix the unit lower-bidiagonal t^0 part and,
    # by kneading_rational's argument, the divisibility by 1 - s_0 t: the two
    # remaining checks guard the series arithmetic, so a faulty minor reaches them

    def test_leading_coefficient_not_one(self, monkeypatch):
        det = kneading.series_matrix_det
        monkeypatch.setattr(kneading, "series_matrix_det", lambda rows: 2 * det(rows))
        with pytest.raises(KneadingError, match="leading coefficient 1"):
            kneading_rational(pl_model(FULL_TENT))

    @pytest.mark.parametrize("rho", [FULL_TENT, reflect(FULL_TENT)], ids=["rising", "falling"])
    def test_minor_not_divisible(self, rho, monkeypatch):
        # the minor is D (1 - t)(1 - s_0 t) with D = (1 - 2t)/(1 - t): 1 - 3t + 2t^2
        # (s_0 = 1) or, reflected, 1 - t - 2t^2 (s_0 = -1); one more
        # t^(N - m) = t^2 leaves the remainder 1 by 1 - s_0 t
        def long_det(rows):
            d = det(rows)
            return TruncSeries(d.order, d.coeffs[:-1] + (d.coeffs[-1] + 1,))

        det = kneading.series_matrix_det
        monkeypatch.setattr(kneading, "series_matrix_det", long_det)
        assert kneading_matrix(pl_model(rho)).periods == ((2, 1),)
        with pytest.raises(KneadingError, match="^the minor is not divisible by 1 - s_0 t$"):
            kneading_rational(pl_model(rho))

    def test_one_matrix_det_per_determinant(self, monkeypatch):
        calls = []
        det = kneading.series_matrix_det
        monkeypatch.setattr(kneading, "series_matrix_det", lambda rows: calls.append(len(rows)) or det(rows))
        kneading_rational(pl_model(generate_vu(5)))
        assert calls == [5]


class TestKneadingDeterminant:
    def test_full_tent_closed_form(self):
        det = kneading_determinant(pl_model(FULL_TENT), 16)
        assert det.coeffs == rf_to_series(RationalFn((1, -2), (1, -1)), 16).coeffs

    def test_period_three_closed_form(self):
        det = kneading_determinant(pl_model(RHO0), 48)
        assert det.coeffs == rf_to_series(RationalFn((1, -1, -1), (1, 0, 0, -1)), 48).coeffs

    @pytest.mark.parametrize("nu", range(2, 11))
    def test_minors_match_laplace(self, nu):
        kd = kneading_matrix(pl_model(generate_vu(nu)))
        for col in range(kd.modality + 1):
            minor = [row[:col] + row[col + 1 :] for row in kd.series(sum(p + k for p, k in kd.periods))]
            assert series_matrix_det(minor).coeffs == laplace_det(minor).coeffs

    def test_column_independence(self):
        cols = _column_determinants(kneading_matrix(pl_model(generate_vu(2))), 32)
        assert len(cols) == 3 and all(c.coeffs == cols[0].coeffs for c in cols)

    def test_leading_coefficient_is_one(self):
        for rho in (RHO0, FULL_TENT, tuple(generate_vu(2)), tuple(generate_vu(3))):
            assert kneading_determinant(pl_model(rho), 16)[0] == 1

    def test_monotone_model_has_no_matrix(self):
        with pytest.raises(ValueError, match="no turning points"):
            kneading_matrix(pl_model((0, 1, 2, 3)))

    def test_lap_shape(self):
        assert lap_shape(pl_model(RHO0)) == (1, -1)
        assert lap_shape(pl_model((5, 2, 3, 4, 2, 0))) == (-1, 1, -1)
        with pytest.raises(ValueError, match="no turning points"):
            lap_shape(pl_model((3, 2, 1, 0)))

    @pytest.mark.parametrize("rho", [RHO0, FULL_TENT, (5, 2, 3, 4, 2, 0)])
    def test_reflection_invariance(self, rho):
        d1 = kneading_determinant(pl_model(rho), 24)
        d2 = kneading_determinant(pl_model(reflect(rho)), 24)
        assert d1.coeffs == d2.coeffs

    def test_integer_coefficients(self):
        det = kneading_determinant(pl_model(generate_vu(3)), 32)
        assert all(c.denominator == 1 for c in det.coeffs)


class TestKneadingRational:
    @pytest.mark.parametrize(
        "rho, expected",
        [
            (FULL_TENT, RationalFn((1, -2), (1, -1))),
            (RHO0, RationalFn((1, -1, -1), (1, 0, 0, -1))),
            ((5, 2, 3, 4, 2, 0), RationalFn((1, -1, -1), (1, 0, 0, -1))),
            *((tuple(generate_vu(nu)), RationalFn((1, -1, -1), (1, 0, 0, -1))) for nu in range(2, 6)),
        ],
    )
    def test_closed_forms(self, rho, expected):
        assert kneading_rational(pl_model(rho)) == expected

    @given(st.one_of(pm_rhos(1), pm_rhos(2), pm_rhos(3), st.integers(4, 8).flatmap(lambda m: pm_rhos(m, 16)),
                     long_cycle_rhos()))
    @settings(max_examples=80, deadline=None)
    def test_expansion_matches_truncated_columns(self, rho):
        # the truncated matrix needs neither the period detection nor the
        # exact division; through t^(2N) it pins the rational function, as
        # both sides have numerator and denominator of degree below N
        model = pl_model(rho)
        kd = kneading_matrix(model)
        order = max(48, 2 * sum(p + k for p, k in kd.periods))
        expansion = rf_to_series(kneading_rational(model), order).coeffs
        assert all(c.coeffs == expansion for c in _column_determinants(kd, order))


class TestCoefficientTypes:
    @given(st.one_of(pm_rhos(1), pm_rhos(2), pm_rhos(3)))
    @settings(max_examples=40, deadline=None)
    def test_integers_come_out_as_ints(self, rho):
        # D = M_0 / (1 - s_0 t), M_0 the minor without column 0, on Fractions
        model, order = pl_model(rho), 24
        rf = kneading_rational(model)
        for got, want in zip((rf.num, rf.den), rational_fn_fields(rf.num, rf.den)):
            assert_exact(got, want)
        kd = kneading_matrix(model)
        minor = laplace_det([row[1:] for row in kd.series(order)])
        s0 = Q(kd.shape[0])
        want = [sum((Q(minor[k]) * s0 ** (n - k) for k in range(n + 1)), Q(0)) for n in range(order + 1)]
        assert_exact(kneading_determinant(model, order).coeffs, want)


class TestUnimodal:
    def test_all_plus_gives_geometric(self):
        s = unimodal_kneading([1] * 12, 12)
        assert s.coeffs == rf_to_series(RationalFn((1,), (1, -1)), 12).coeffs

    def test_period_three_signs(self):
        eps = [-1, 1, -1] * 5
        s = unimodal_kneading(eps, 15)
        assert s.coeffs == rf_to_series(RationalFn((1, -1, -1), (1, 0, 0, -1)), 15).coeffs

    def test_tent_signs(self):
        eps = [-1] + [1] * 11
        s = unimodal_kneading(eps, 12)
        assert s.coeffs == rf_to_series(RationalFn((1, -2), (1, -1)), 12).coeffs

    def test_eps_convention_at_exact_returns(self):
        assert unimodal_eps(pl_model(RHO0), 6) == [-1, 1, -1, -1, 1, -1]

    @given(pm_rhos(1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_general_determinant(self, rho):
        model = pl_model(rho)
        order = 24
        general = kneading_determinant(model, order)
        special = unimodal_kneading(unimodal_eps(model, order), order)
        assert general.coeffs == special.coeffs


class TestUnimodalRationalForm:
    def test_constant_cycle(self):
        assert unimodal_rational_form((), (1,)) == RationalFn((1,), (1, -1))

    def test_period_three(self):
        assert unimodal_rational_form((), (-1, 1, -1)) == RationalFn((1, -1, -1), (1, 0, 0, -1))

    def test_tent(self):
        assert unimodal_rational_form((-1,), (1,)) == RationalFn((1, -2), (1, -1))

    @given(
        st.lists(st.sampled_from([1, -1]), min_size=0, max_size=5),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=5),
    )
    @settings(max_examples=80)
    def test_expansion_matches_partial_products(self, prefix, cycle):
        rf = unimodal_rational_form(prefix, cycle)
        order = 2 * (len(prefix) + 2 * len(cycle)) + 8
        eps = [prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)] for n in range(order)]
        assert rf_to_series(rf, order).coeffs == unimodal_kneading(eps, order).coeffs


class TestVUStructure:
    @pytest.mark.parametrize("nu", [2, 3, 4, 5])
    def test_generated_families(self, nu):
        report = vu_structure_check(pl_model(generate_vu(nu)), dominant_row=nu)
        assert report.ok
        assert report.rows_polynomial_outside_pair
        assert report.determinant_factors_through_dominant

    def test_non_dominant_rows_fail(self):
        model = pl_model(generate_vu(3))
        assert not any(vu_structure_check(model, dominant_row=j).ok for j in (1, 2))

    def test_unimodal_vacuous(self):
        assert vu_structure_check(pl_model(RHO0), dominant_row=1).ok

    @given(st.one_of(pm_rhos(1), pm_rhos(2), pm_rhos(3)))
    @settings(max_examples=60, deadline=None)
    def test_fields_match_the_expanded_matrix(self, rho):
        model = pl_model(rho)
        for j in range(1, len(turning_points(rho)) + 1):
            report = vu_structure_check(model, dominant_row=j)
            fields = (report.rows_polynomial_outside_pair, report.determinant_factors_through_dominant)
            assert fields == vu_structure_fields(model, j)
            assert report.ok == all(fields)

    def test_dominant_row_bounds(self):
        with pytest.raises(ValueError):
            vu_structure_check(pl_model(RHO0), dominant_row=2)
