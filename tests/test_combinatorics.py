from fractions import Fraction as Q

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta.combinatorics import (
    BASE_UNIMODAL,
    Combinatorics,
    build_vu_from_periodic_points,
    classify_points,
    count_fixed_points_of_iterate,
    generate_vu,
    induced_combinatorics,
    is_expanding,
    is_framed,
    is_own_combinatorics,
    is_pm,
    is_virtually_unimodal,
    orbit,
    orbit_set,
    periodic_orbits_of_pl,
    pl_model,
    turning_points,
)
from tests_support import virtually_unimodal_five_conditions, vu_closed_form

RHO0 = (0, 2, 3, 1, 0)


def valid_rhos(max_n=6):
    """Strategy for arbitrary combinatorics vectors."""

    def build(n):
        return st.lists(st.integers(0, n), min_size=n + 1, max_size=n + 1)

    return st.integers(1, max_n).flatmap(build).map(lambda e: Combinatorics(tuple(e)))


def pm_rhos(max_n=6):
    return valid_rhos(max_n).filter(is_pm)


class TestCombinatorics:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Combinatorics((0, 5, 1))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Combinatorics((0,))


class TestPLModel:
    def test_integer_nodes(self):
        m = pl_model(RHO0)
        assert m(2) == 3

    def test_identity_edge(self):
        assert pl_model((0, 1))(Q(1, 2)) == Q(1, 2)

    def test_affine_interpolation(self):
        assert pl_model(RHO0)(Q(3, 2)) == Q(5, 2)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            pl_model(RHO0)(5)

    @given(pm_rhos(), st.fractions(min_value=0, max_value=1))
    @settings(max_examples=60)
    def test_image_stays_in_domain(self, rho, t):
        m = pl_model(rho)
        x = t * rho.n
        assert 0 <= m(x) <= rho.n


class TestTurningPoints:
    def test_single_turning_point(self):
        assert turning_points(RHO0) == [2]

    def test_monotone(self):
        assert turning_points((0, 1, 2, 3)) == []

    def test_two_turning_points(self):
        assert turning_points((7, 3, 4, 5, 6, 3, 2, 0)) == [1, 4]

    @given(pm_rhos())
    @settings(max_examples=60)
    def test_agrees_with_local_extrema_of_model(self, rho):
        model = pl_model(rho)
        trn = set(turning_points(rho))
        for i in range(1, rho.n):
            left, mid, right = model(Q(2 * i - 1, 2)), model(i), model(Q(2 * i + 1, 2))
            is_extremum = (left < mid and right < mid) or (left > mid and right > mid)
            assert (i in trn) == is_extremum


class TestOrbit:
    def test_periodic_turning_point(self):
        info = orbit(RHO0, 2)
        assert info.preperiod == 0 and info.cycle == (2, 3, 1)

    def test_fixed_endpoint(self):
        info = orbit(RHO0, 0)
        assert info.preperiod == 0 and info.cycle == (0,)

    def test_preperiodic(self):
        info = orbit((7, 3, 4, 5, 6, 3, 2, 0), 1)
        assert info.preperiod == 1 and info.cycle == (3, 5)

    @given(valid_rhos())
    @settings(max_examples=80)
    def test_orbit_terminates_within_bounds(self, rho):
        for i in range(rho.n + 1):
            info = orbit(rho, i)
            assert info.preperiod + len(info.cycle) <= rho.n + 1
            assert len(set(info.cycle)) == len(info.cycle)
            assert rho[info.cycle[-1]] == info.cycle[0]

    @given(valid_rhos())
    @settings(max_examples=80)
    def test_orbit_set_is_preperiod_and_cycle(self, rho):
        for i in range(rho.n + 1):
            info = orbit(rho, i)
            points, x = set(), i
            for _ in range(info.preperiod + len(info.cycle)):
                points.add(x)
                x = rho[x]
            assert orbit_set(rho, i) == points


class TestPredicates:
    def test_pm_failure_with_witness(self):
        check = is_pm((0, 3, 3, 2, 0))
        assert not check and check.witness == 1

    def test_pm_trivial(self):
        assert is_pm((0, 1))

    def test_pm_worked_example(self):
        assert is_pm(RHO0)

    def test_own_combinatorics_failure(self):
        check = is_own_combinatorics((0, 3, 4, 7, 6, 5, 2, 1, 0))
        assert not check
        assert check.induced_labels == (0, 1, 3, 7, 0)
        assert check.induced.entries == RHO0

    def test_own_combinatorics_holds(self):
        assert is_own_combinatorics(RHO0)
        assert is_own_combinatorics((5, 2, 3, 4, 2, 0))

    @given(pm_rhos())
    @settings(max_examples=80)
    def test_round_trip_when_own(self, rho):
        if turning_points(rho) and is_own_combinatorics(rho):
            assert induced_combinatorics(rho).entries == rho.entries

    @pytest.mark.parametrize("predicate", [is_own_combinatorics, classify_points])
    def test_not_pm_is_refused(self, predicate):
        with pytest.raises(ValueError, match="^combinatorics has equal adjacent entries$"):
            predicate((0, 3, 3, 2, 0))

    def test_framed_examples(self):
        assert is_framed((7, 3, 4, 5, 6, 3, 2, 0))
        assert is_framed((0, 1))
        assert is_framed((5, 2, 3, 4, 2, 0))
        assert not is_framed((1, 2, 3, 1))


class TestVirtuallyUnimodal:
    def test_dominant_turning_point(self):
        assert is_virtually_unimodal((5, 2, 3, 4, 2, 0)) == 3

    def test_not_vu(self):
        assert is_virtually_unimodal((6, 2, 1, 4, 5, 3, 0)) is None

    def test_unimodal_is_vu(self):
        assert is_virtually_unimodal(RHO0) == 2

    def test_hull_is_invariant(self):
        # the dominant hull maps exactly onto itself
        rho = Combinatorics((5, 2, 3, 4, 2, 0))
        c = is_virtually_unimodal(rho)
        fc, f2c = rho[c], rho[rho[c]]
        lo, hi = min(fc, f2c), max(fc, f2c)
        values = [rho[j] for j in range(lo, hi + 1)]
        assert (min(values), max(values)) == (lo, hi)


    def test_census_matches_five_conditions(self):
        # every vector in {0..n}^(n+1), n <= 5: the value, or the error's type
        # and message, of the three-condition test equals the five-condition
        # reference's
        def outcome(test, rho):
            try:
                return test(rho)
            except ValueError as exc:
                return type(exc), str(exc)

        seen = set()
        for n in range(1, 6):
            for rho in product(range(n + 1), repeat=n + 1):
                got = outcome(is_virtually_unimodal, rho)
                assert got == outcome(virtually_unimodal_five_conditions, rho), rho
                seen.add(type(got))
        assert seen == {int, type(None), tuple}


class TestClassifyAndExpanding:
    def test_fatou_points_of_generated_vector(self):
        cls = classify_points((7, 3, 4, 5, 6, 3, 2, 0))
        assert sorted(cls.fatou) == [1, 2, 4, 6]
        assert sorted(cls.julia) == [0, 3, 5, 7]

    def test_monotone_is_all_julia(self):
        cls = classify_points((0, 1, 2, 3))
        assert not cls.fatou

    def test_unimodal_interior_fatou(self):
        cls = classify_points(RHO0)
        assert {1, 2, 3} <= cls.fatou

    def test_expanding_generated(self):
        assert is_expanding(generate_vu(2))
        assert is_expanding(generate_vu(3))

    def test_not_expanding_when_pair_cycles(self):
        check = is_expanding((0, 1, 3, 2, 4))
        assert not check and check.cycling_edge == 0

    def test_witnesses_are_recorded(self):
        # Julia edges (0, 1) and (3, 4) separate after one and two steps
        check = is_expanding((1, 3, 4, 1, 0))
        assert check and check.witnesses == {0: 1, 3: 2}

    def test_identity_not_expanding(self):
        assert not is_expanding((0, 1, 2, 3))

    def test_brute_force_counterexample_search(self):
        # there is a non-monotone pm vector with a cycling Julia edge
        found = []
        n = 4
        for a in range(n + 1):
            for b in range(n + 1):
                rho = (0, 1, a, b, 4)
                if not is_pm(rho):
                    continue
                if not turning_points(Combinatorics(rho)):
                    continue
                if not is_expanding(rho):
                    found.append(rho)
        assert (0, 1, 3, 2, 4) in found


class TestGenerateVU:
    def test_worked_vectors(self):
        assert generate_vu(2).entries == (7, 3, 4, 5, 6, 3, 2, 0)
        assert generate_vu(3).entries == (0, 6, 4, 5, 6, 7, 4, 3, 0)

    def test_closed_pattern_nu_four(self):
        assert generate_vu(4).entries == (9, 5, 7, 5, 6, 7, 8, 5, 4, 0)

    def test_rejects_small_nu(self):
        with pytest.raises(ValueError):
            generate_vu(1)

    def test_equals_the_closed_form(self):
        # through the --nu cap of the CLI
        for nu in range(2, 101):
            assert generate_vu(nu) == vu_closed_form(nu), nu

    @pytest.mark.parametrize("nu", range(2, 17))
    def test_all_predicates(self, nu):
        rho = generate_vu(nu)
        assert is_pm(rho)
        assert is_own_combinatorics(rho)
        assert is_framed(rho)
        assert is_virtually_unimodal(rho) == nu + 2
        assert is_expanding(rho)

    @pytest.mark.parametrize("nu", range(2, 17))
    def test_turning_point_count(self, nu):
        assert len(turning_points(generate_vu(nu))) == nu


class TestPeriodicOrbits:
    def test_period_two_orbit(self):
        result = periodic_orbits_of_pl(pl_model(RHO0), 2)
        assert [o.cycle for o in result.orbits] == [(Q(5, 3), Q(8, 3))]
        assert not result.degenerate

    def test_fixed_points(self):
        result = periodic_orbits_of_pl(pl_model(RHO0), 1)
        assert sorted(o.cycle[0] for o in result.orbits) == [0, Q(7, 3)]

    def test_identity_edge_is_degenerate(self):
        result = periodic_orbits_of_pl(pl_model((0, 1)), 1)
        assert sorted(o.cycle[0] for o in result.orbits) == [0, 1]
        assert result.degenerate[0].interval == (0, 1)

    def test_rejects_period_zero(self):
        with pytest.raises(ValueError):
            periodic_orbits_of_pl(pl_model(RHO0), 0)

    @given(pm_rhos(max_n=4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_orbit_points_are_exactly_periodic(self, rho, p):
        model = pl_model(rho)
        result = periodic_orbits_of_pl(model, p)
        for o in result.orbits:
            for x in o.cycle:
                y = x
                for _ in range(p):
                    y = model(y)
                assert y == x
            assert len(o.cycle) == p

    @pytest.mark.parametrize("rho", [(0, 1, 1, 0), (0, 2, 2, 0), (1, 1)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_flat_lap_is_refused(self, rho, p):
        for count in (count_fixed_points_of_iterate, periodic_orbits_of_pl):
            with pytest.raises(ValueError, match="not piecewise monotone"):
                count(pl_model(rho), p)

    def test_interval_of_fixed_points_is_refused(self):
        with pytest.raises(ValueError, match="^iterate has an interval of fixed points; count undefined$"):
            count_fixed_points_of_iterate(pl_model((0, 1)), 1)

    def test_full_tent_counts_double(self):
        model = pl_model((0, 2, 0))
        for n in range(1, 9):
            assert count_fixed_points_of_iterate(model, n) == 2**n


class TestBuildVU:
    def test_single_point_gives_nu_two(self):
        assert build_vu_from_periodic_points([Q(5, 3)]).entries == (7, 3, 4, 5, 6, 3, 2, 0)

    def test_two_points_give_nu_three(self):
        assert build_vu_from_periodic_points([Q(8, 3), Q(5, 3)]).entries == (0, 6, 4, 5, 6, 7, 4, 3, 0)

    def test_empty_reproduces_base(self):
        assert build_vu_from_periodic_points([]).entries == BASE_UNIMODAL.entries

    def test_rejects_non_periodic(self):
        with pytest.raises(ValueError):
            build_vu_from_periodic_points([Q(3, 2)])

    def test_rejects_alternation_violation(self):
        # three points on strictly monotone positions cannot alternate
        model_points = [Q(8, 3), Q(2), Q(5, 3)]
        with pytest.raises(ValueError):
            build_vu_from_periodic_points(model_points)

    def test_rejects_last_point_right_of_turning(self):
        with pytest.raises(ValueError):
            build_vu_from_periodic_points([Q(8, 3)])

    # each of these once returned a vector with equal adjacent entries
    @pytest.mark.parametrize("points", [[Q(5, 3), Q(5, 3)], [Q(8, 3), Q(8, 3), Q(5, 3)]])
    def test_rejects_equal_adjacent_points(self, points):
        with pytest.raises(ValueError, match="adjacent points must differ"):
            build_vu_from_periodic_points(points)

    def test_rejects_last_point_at_turning(self):
        with pytest.raises(ValueError, match="last point must be < 2"):
            build_vu_from_periodic_points([Q(2)])
