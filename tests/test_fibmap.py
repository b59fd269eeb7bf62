import hashlib
from fractions import Fraction as Q
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta import fibmap
from intervalzeta.fibmap import (
    BracketError,
    TentOrbit,
    cut_times,
    diameter_ratios,
    find_fib_lambda,
    interval_families,
    orbit_order_holds,
    target_kneading,
    tent_map,
    verify_structure,
)
from tests_support import PAPER_M_LABELS

# find_fib_lambda(d) at the default tol as (str(lam), str(lo), str(hi)) of its
# exact bisection.  Through depth 7 the tol decides where it stops.
PINNED_LAMBDAS = {
    1: ("17179869185/17179869184", "1", "17179869185/17179869184"),
    2: ("13898806131/8589934592", "27797612261/17179869184", "13898806131/8589934592"),
    3: ("29585174507/17179869184", "14792587253/8589934592", "29585174507/17179869184"),
    4: ("29706033471/17179869184", "14853016735/8589934592", "29706033471/17179869184"),
    5: ("29707633467/17179869184", "14853816733/8589934592", "29707633467/17179869184"),
    6: ("29707634779/17179869184", "14853817389/8589934592", "29707634779/17179869184"),
    7: ("29707634779/17179869184", "14853817389/8589934592", "29707634779/17179869184"),
}
# SHA-256 of the same three strings joined by newlines, for the deeper slopes
PINNED_LAMBDA_DIGESTS = {
    8: "66a804db79dc299e97eae1fa9ab8cc0a4f6174d66b61b1f91a9735676fbac020",
    9: "408242bbf1ee0e4f49af54da1e3b72aeac65efe16318006b91a7d6f1fd915175",
    10: "c0cd67187ee77ebf698ff2c47baac7de74e15704a08840ccc14910b0e0214a66",
    11: "0b5dd3c502abccb99e7639b28c602518d9b6e26d003105eda4fe4e2d6493081b",
    12: "c9c4ed20a1f132216942d38f16e9e24814044c4d5c15e61606618207dcedeca4",
}


def exact_kneading_cmp(lam, target):
    """Reference for fibmap._kneading_cmp on the exact orbit."""
    orb = TentOrbit(lam, len(target))
    return fibmap._parity_lex_cmp(orb.addresses(1, len(target)), target)


def exact_orbit_order_holds(lam, k_max):
    """Reference for orbit_order_holds on the exact orbit."""
    s = [0, 1] + cut_times(k_max)  # S(k) is s[k + 2]
    orb = TentOrbit(lam, s[k_max + 2])
    return all(
        orb.dist_to_c_cmp(i, s[k + 1]) > 0
        for k in range(1, k_max + 1)
        for i in range(1, s[k + 2])
        if i != s[k + 1]
    )


@pytest.fixture
def exact_builds(monkeypatch):
    """Count the exact TentOrbit builds made inside fibmap."""
    builds = []

    class CountingOrbit(TentOrbit):
        def __init__(self, lam, length):
            builds.append(length)
            super().__init__(lam, length)

    monkeypatch.setattr(fibmap, "TentOrbit", CountingOrbit)
    return builds


# slopes in (1, 2]: bisection-like dyadic mids, general rationals, and the
# pinned slopes, whose closest returns hold through their depth
slopes = st.one_of(
    st.sampled_from([Q(row[0]) for row in PINNED_LAMBDAS.values()]),
    st.integers(1, 64).flatmap(lambda j: st.integers(1, 2**j).map(lambda n: Q(2**j + n, 2**j))),
    st.fractions(min_value=1, max_value=2, max_denominator=10**6).filter(lambda lam: lam > 1),
)


class TestCutTimes:
    def test_seed_values(self):
        assert cut_times(5) == [1, 2, 3, 5, 8, 13]

    def test_recursion(self):
        s = cut_times(12)
        assert all(s[k] == s[k - 1] + s[k - 2] for k in range(2, 13))

    def test_rejects_below_minus_two(self):
        with pytest.raises(ValueError):
            cut_times(-3)


class TestTargetKneading:
    def test_first_thirteen_signs(self):
        # sides R L L R R R L R R L L R L as lap signs (L -> +1, R -> -1)
        assert target_kneading(5) == [-1, 1, 1, -1, -1, -1, 1, -1, -1, 1, 1, -1, 1]

    def test_side_pattern_of_cut_times(self):
        signs = target_kneading(10)
        s = cut_times(10)
        for k in range(0, 11):
            expected = -1 if k % 4 in (0, 3) else 1
            assert signs[s[k] - 1] == expected

    def test_segment_lengths(self):
        assert len(target_kneading(8)) == cut_times(8)[-1]


class TestTentOrbit:
    def test_exact_points(self):
        orb = TentOrbit(Q(3, 2), 4)
        assert orb.point(0) == Q(1, 2)
        assert orb.point(1) == Q(3, 4)
        assert orb.point(2) == Q(3, 8)

    def test_rejects_out_of_range_slope(self):
        with pytest.raises(ValueError):
            TentOrbit(Q(1, 2), 4)

    def test_distance_comparison(self):
        orb = TentOrbit(Q(3, 2), 4)
        # |c_1 - c| = 1/4 > |c_2 - c| = 1/8
        assert orb.dist_to_c_cmp(1, 2) == 1

    def test_points_satisfy_tent_recurrence(self):
        lam = Q(7, 4)
        orb = TentOrbit(lam, 12)
        for n in range(12):
            assert orb.point(n + 1) == tent_map(lam, orb.point(n))

    def test_tent_map_domain(self):
        with pytest.raises(ValueError):
            tent_map(Q(3, 2), Q(2))


class TestFindLambda:
    def test_shallow_depth_is_fast_and_consistent(self):
        res = find_fib_lambda(8, Q(1, 10**8))
        assert res.bracket[0] <= res.lam <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= Q(1, 10**8)
        assert abs(res.value - 1.7292119317) < 1e-6

    def test_regression_constant(self, fib_lambda_12):
        assert abs(float(fib_lambda_12) - 1.7292119317087213) < 2e-12

    def test_kneading_prefix_matches_target(self, fib_lambda_12):
        signs = target_kneading(12)
        orb = TentOrbit(fib_lambda_12, len(signs))
        for n, expected in enumerate(signs, start=1):
            assert orb.address(n) == (0 if expected == 1 else 2)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            find_fib_lambda(0)

    def test_exhausted_iteration_budget_errors(self):
        # three halvings of [1, 2] cannot reach the depth-12 window
        with pytest.raises(BracketError):
            find_fib_lambda(12, Q(1, 10), max_iter=3)

    def test_exact_output_is_pinned(self):
        for depth in range(1, 13):
            res = find_fib_lambda(depth)
            row = (str(res.lam), str(res.bracket[0]), str(res.bracket[1]))
            if depth in PINNED_LAMBDAS:
                assert row == PINNED_LAMBDAS[depth], depth
            else:
                assert hashlib.sha256("\n".join(row).encode()).hexdigest() == PINNED_LAMBDA_DIGESTS[depth], depth

    def test_tol_below_float_decimal_range_is_honoured(self):
        for tol in (1e-20, 7e-16):
            res = find_fib_lambda(3, tol)
            assert res.bracket[1] - res.bracket[0] <= Q(tol)
            # the same halvings as at the default tol, continued
            assert Q(PINNED_LAMBDAS[3][1]) <= res.bracket[0] < res.bracket[1] <= Q(PINNED_LAMBDAS[3][2])

    def test_bisection_needs_no_exact_orbit(self, exact_builds):
        for depth in range(2, 11):
            find_fib_lambda(depth)
        assert exact_builds == []


class TestCertifiedOrbit:
    @given(slopes, st.integers(1, 130))
    @settings(max_examples=150)
    def test_enclosures_contain_exact_orbit(self, lam, frac_bits):
        orb = TentOrbit(lam, 60)
        enclosures = islice(fibmap._dyadic_orbit(lam, frac_bits), orb.length + 1)
        for n, (lo, hi) in enumerate(enclosures):
            assert Q(lo, 2**frac_bits) <= orb.point(n) <= Q(hi, 2**frac_bits), n

    @given(slopes, st.integers(1, 60), st.integers(0, 60), st.integers(1, 7), st.integers(1, 130))
    @settings(max_examples=150)
    def test_kneading_cmp_matches_exact(self, lam, m, flip_at, depth, frac_bits):
        # the own addresses of lam, changed at flip_at, make the comparison run deep
        target = TentOrbit(lam, m).addresses(1, m)
        if flip_at < m:
            target[flip_at] = fibmap._L if target[flip_at] == fibmap._R else fibmap._R
        assert fibmap._kneading_cmp(lam, target, frac_bits) == exact_kneading_cmp(lam, target)
        fib_target = fibmap._target_addresses(depth)
        assert fibmap._kneading_cmp(lam, fib_target, frac_bits) == exact_kneading_cmp(lam, fib_target)

    @given(slopes, st.integers(0, 7), st.integers(1, 100))
    @settings(max_examples=150)
    def test_orbit_order_matches_exact(self, lam, k_max, frac_bits):
        want = exact_orbit_order_holds(lam, k_max)
        assert fibmap._orbit_order_holds(lam, k_max, frac_bits) == want
        assert orbit_order_holds(lam, k_max) == want

    def test_full_tent(self):
        lam = Q(2)
        for depth in range(1, 8):
            target = fibmap._target_addresses(depth)
            for frac_bits in (1, 2, len(target) + 64):
                assert fibmap._kneading_cmp(lam, target, frac_bits) == exact_kneading_cmp(lam, target)
        for k_max in range(0, 8):
            assert orbit_order_holds(lam, k_max) == exact_orbit_order_holds(lam, k_max)

    def test_too_few_bits_fall_back_to_exact(self, exact_builds):
        fib8 = find_fib_lambda(8).lam
        target = fibmap._target_addresses(8)
        assert fibmap._kneading_cmp(fib8, target, 4) == exact_kneading_cmp(fib8, target) == 0
        assert exact_builds == [len(target)]
        assert fibmap._orbit_order_holds(fib8, 8, 4) is exact_orbit_order_holds(fib8, 8) is True
        assert exact_builds == [len(target), cut_times(8)[-1] - 1]
        assert fibmap._orbit_order_holds(Q(19, 10), 6, 2) is exact_orbit_order_holds(Q(19, 10), 6) is False
        assert len(exact_builds) == 3


class TestOrbitOrder:
    def test_holds_at_fibonacci_slope(self, fib_lambda_12):
        assert orbit_order_holds(fib_lambda_12, 10)

    def test_fails_at_generic_slope(self):
        assert not orbit_order_holds(Q(19, 10), 6)


class TestIntervalFamilies:
    def test_paper_level_labels(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 4)
        for k, expected in PAPER_M_LABELS.items():
            got = [piece.label_set for piece in family.M[k]]
            assert got == [frozenset(pair) for pair in expected]

    def test_level_piece_counts_are_cut_times(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 8)
        s = cut_times(8)
        for k in range(1, 9):
            assert len(family.M[k]) == s[k]

    def test_d_intervals(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 4)
        s = cut_times(4)
        for k in range(0, 5):
            assert family.D[k].label_set == {0, s[k]}

    def test_structure_report_all_true(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 8)
        report = verify_structure(family, 8)
        assert report.ok, report.checks

    def test_specific_containments(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 4)
        assert family.D[1].contains(family.J[2])
        assert family.I[1].contains(family.D[1])
        assert family.J[1].disjoint(family.J[2])

    def test_structure_fails_at_generic_slope(self):
        family = interval_families(Q(111, 64), 6)
        assert not verify_structure(family, 6).ok


class TestDiameterRatios:
    def test_exact_recurrence(self, fib_family_10):
        report = diameter_ratios(fib_family_10, 8)
        assert all(r == 0 for r in report.residuals)

    def test_ratios_and_normalization(self, fib_family_10):
        report = diameter_ratios(fib_family_10, 8)
        assert all(v > 1 for v in report.nu)
        assert all(0 < c < 1 for c in report.C)
        assert all(a < b for a, b in zip(report.C, report.C[1:]))
        assert report.product_ok

    def test_requires_deep_family(self, fib_lambda_12):
        family = interval_families(fib_lambda_12, 4)
        with pytest.raises(ValueError):
            diameter_ratios(family, 4)
