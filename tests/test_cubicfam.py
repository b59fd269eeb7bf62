import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta import cubicfam
from intervalzeta.cubicfam import (
    BranchSystem,
    Interval,
    RepellerPiece,
    _float_horner,
    _float_map,
    build_branch_system,
    count_periodic,
    critical_value,
    critical_value_direct,
    critical_value_factored,
    cubic_family,
    filled_julia_endpoints,
    pairwise_disjoint,
    periodic_counts,
    repeller_pieces,
    repelling_three_cycle,
    s_star,
    s_star_polynomial,
    two_cycle_polynomial,
    verify_critical_orbit,
)
from intervalzeta.series import poly_compose, poly_eval, poly_mul, poly_sub
from intervalzeta.subshift import fib_language, vee_map
from intervalzeta.zeta import counts_from_zeta, zeta_vu_closed_form
from tests_support import pairwise_check

S_STAR_BRACKET = s_star(1e-9).bracket
BRANCH_PARAMETERS = [Q(1), Q(6, 5), S_STAR_BRACKET[0]]


def apply_word(bs, word, interval):
    """Oracle: the image of an interval under the branch composition for a
    word over {1, 2}, outermost symbol first, one word at a time."""
    lo, hi = interval.lo, interval.hi
    for sym in reversed(word):
        phi = bs.phi1 if sym == "1" else bs.phi2
        a, b = phi(lo), phi(hi)
        lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi)


def random_parameters(count, seed=7):
    rng = random.Random(seed)
    return [1 + Q(rng.randrange(0, 371), 1000) for _ in range(count)]


class TestExactIdentities:
    def test_coefficients_at_one(self):
        poly, par = cubic_family(1)
        assert poly == (1, 0, Q(-3, 2), Q(-1, 2))
        assert (par.a, par.b) == (Q(-1, 2), Q(-3, 2))

    def test_constant_term(self):
        for s in (Q(1), Q(6, 5), Q(2)):
            poly, _ = cubic_family(s)
            assert poly_eval(poly, Q(0)) == 1

    def test_critical_orbit(self):
        assert verify_critical_orbit(1)
        assert verify_critical_orbit(Q(5, 4))
        assert verify_critical_orbit(2)

    def test_signs_and_shape_data(self):
        for s in random_parameters(20):
            _, par = cubic_family(s)
            assert par.a < 0 and par.b < 0 and par.c_s < 0

    def test_rejects_s_below_one(self):
        with pytest.raises(ValueError):
            cubic_family(Q(1, 2))

    def test_parameter_bits_capped_before_any_composition(self, monkeypatch):
        # s near 6/5 with a numerator of MAX_PARAM_BITS bits is admitted, one
        # bit more is refused by every entry point before F_s is composed
        d = 2**1021 + 1
        at_cap, over = Q(6 * d + 1, 5 * d), Q(12 * d + 1, 10 * d)
        assert max(at_cap.numerator, at_cap.denominator).bit_length() == cubicfam.MAX_PARAM_BITS == 1024
        _, par = cubic_family(at_cap)
        assert par.s == at_cap
        monkeypatch.setattr(cubicfam, "poly_compose", lambda p, q: pytest.fail("F_s was composed"))
        reason = "a 1025-bit parameter s, capped at 1024 bits"
        for call in (lambda: cubic_family(over), lambda: filled_julia_endpoints(over),
                     lambda: count_periodic(over, 2), lambda: periodic_counts(over, 2),
                     lambda: repeller_pieces(over, 2)):
            with pytest.raises(ValueError, match=reason):
                call()

    def test_critical_value_at_one(self):
        assert critical_value(1) == -1

    def test_direct_equals_factored(self):
        for s in (Q(6, 5), Q(11, 8), Q(999, 700)):
            assert critical_value_direct(s) == critical_value_factored(s)

    def test_critical_value_monotone_in_s(self):
        lo, hi = S_STAR_BRACKET
        grid = [1 + (lo - 1) * Q(k, 12) for k in range(13)]
        values = [critical_value(s) for s in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_c_s_left_of_minus_s(self):
        lo, _ = S_STAR_BRACKET
        for k in range(12):
            s = 1 + (lo - 1) * Q(k, 12)
            _, par = cubic_family(s)
            assert par.c_s < -s

    def test_c_s_equals_minus_s_only_at_s_star(self):
        lo, hi = s_star(1e-12).bracket
        _, par = cubic_family(lo)
        assert abs(float(par.c_s + lo)) < 1e-9


class TestSStar:
    def test_value(self):
        root = s_star(1e-3)
        assert abs(root.value - 1.371) <= 1e-3

    def test_bracket_signs(self):
        root = s_star(1e-6)
        p = s_star_polynomial()
        lo, hi = root.bracket
        assert poly_eval(p, lo) < 0 < poly_eval(p, hi)

    def test_q_positive_on_interval(self):
        q = (Q(1), Q(-3), Q(0), Q(4), Q(4))
        for k in range(50):
            assert poly_eval(q, 1 + Q(k, 49)) > 0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            s_star(0)


class TestEndpoints:
    def test_frame_at_one(self):
        alpha, beta = filled_julia_endpoints(1)
        assert abs(alpha - (-3.08)) < 0.01
        assert abs(beta - 1.37) < 0.01

    def test_frame_at_s_star(self):
        alpha, beta = filled_julia_endpoints(S_STAR_BRACKET[0])
        assert abs(alpha - (-2.09)) < 0.01
        assert abs(beta - 1.12) < 0.01

    def test_invariance(self):
        poly, par = cubic_family(Q(6, 5))
        f = _float_horner(poly)
        alpha, beta = filled_julia_endpoints(Q(6, 5))
        images = [f(alpha), f(beta), f(0.0), f(float(par.c_s))]
        pad = 1e-8
        assert all(alpha - pad <= y <= beta + pad for y in images)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_float_map_is_the_exact_polynomial_in_floats(self, data):
        s = data.draw(st.fractions(min_value=1, max_value=Q(137, 100), max_denominator=10**6))
        poly, par = cubic_family(s)
        alpha, beta = filled_julia_endpoints(s)
        x = data.draw(st.floats(min_value=alpha, max_value=beta))
        assert _float_map(par)(x) == _float_horner(poly)(x)
        assert poly_eval(poly, x).hex() == _float_horner(poly)(x).hex()

    def test_two_cycle_polynomial_is_exact_quotient(self):
        poly, _ = cubic_family(Q(6, 5))
        sextic = two_cycle_polynomial(Q(6, 5))
        assert len(sextic) == 7
        recomposed = poly_mul(sextic, poly_sub(poly, (0, 1)))
        assert recomposed == poly_sub(poly_compose(poly, poly), (0, 1))
        with pytest.raises(ValueError, match="division is not exact"):
            cubicfam._exact_quotient(sextic, poly)


class TestCounting:
    def test_counts_at_one(self):
        assert [count_periodic(1, n).count for n in range(1, 4)] == [1, 5, 7]

    def test_counts_off_the_postcritical_parameters(self):
        assert [count_periodic(Q(6, 5), n).count for n in range(1, 5)] == [1, 5, 7, 9]

    def test_counts_across_the_parameter_window(self):
        lo, _ = S_STAR_BRACKET
        expected = [1, 5, 7, 9, 11, 23]
        for s in (Q(1), (1 + lo) / 2, lo - Q(1, 100)):
            assert [count_periodic(s, n).count for n in range(1, 7)] == expected

    def test_counts_equal_the_closed_form_on_a_grid(self):
        # N_1..N_8 of 1/((1-t^2)(1-t^3)(1-t-t^2)) at s = 1, 1.03, ..., 1.36,
        # one preimage tree per s
        expected = counts_from_zeta(zeta_vu_closed_form(2), 8)
        for k in range(13):
            s = 1 + Q(3 * k, 100)
            _, _, counts = periodic_counts(s, 8)
            assert [c.count for c in counts] == expected, s

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            count_periodic(1, 0)
        with pytest.raises(ValueError):
            periodic_counts(1, 0)

    def test_period_above_cap_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(cubicfam, "_params", None)
        with pytest.raises(ValueError, match="n capped at 16"):
            count_periodic(Q(6, 5), 17)
        with pytest.raises(ValueError, match="nmax capped at 16"):
            periodic_counts(Q(6, 5), 60)

    @pytest.mark.parametrize("s", [Q(1), Q(6, 5), Q(137, 100)])
    def test_one_tree_equals_one_count_per_n(self, s):
        # on the invariant interval of s, counts and flagged samples alike
        assert periodic_counts(s, 8) == (*filled_julia_endpoints(s), [count_periodic(s, n) for n in range(1, 9)])

    def test_scan_is_streamed(self):
        # the grid of F^12 has about 43k samples; a list of them and of their
        # values peaks near 3 MB, the streamed scan near 0.25 MB
        count_periodic(Q(521, 500), 3)
        tracemalloc.start()
        try:
            result = count_periodic(Q(521, 500), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.count == 327
        assert peak < 1_000_000


class TestBranchSystem:
    @pytest.mark.parametrize("s", [Q(1), Q(6, 5), S_STAR_BRACKET[0]])
    def test_invariants(self, s):
        bs = build_branch_system(s)
        assert bs.base.contains(bs.j1) and bs.base.contains(bs.j2)
        assert bs.j1.disjoint(bs.j2)
        assert not (bs.j1.lo <= 0 <= bs.j1.hi)
        assert not (bs.j2.lo <= 0 <= bs.j2.hi)
        assert bs.k1.disjoint(bs.k2)
        assert bs.base.contains(bs.k1) and bs.base.contains(bs.k2)

    def test_three_cycle_maps_cyclically(self):
        poly, _ = cubic_family(Q(6, 5))
        f = _float_horner(poly)
        p0, p1, p2 = repelling_three_cycle(Q(6, 5))
        assert abs(f(p0) - p1) < 1e-9
        assert abs(f(p1) - p2) < 1e-9
        assert abs(f(p2) - p0) < 1e-9

    def test_branches_invert_the_map(self):
        poly, _ = cubic_family(Q(6, 5))
        f = _float_horner(poly)
        bs = build_branch_system(Q(6, 5))
        y = 0.5 * (bs.base.lo + bs.base.hi)
        assert abs(f(bs.phi2(y)) - y) < 1e-9
        assert abs(f(f(bs.phi1(y))) - y) < 1e-9


class TestRepellerPieces:
    def test_depth_one(self):
        assert len(repeller_pieces(Q(6, 5), 1)) == 2

    def test_depth_five(self):
        assert len(repeller_pieces(Q(6, 5), 5)) == 13

    @pytest.mark.parametrize("s", BRANCH_PARAMETERS)
    def test_pieces_equal_the_per_word_oracle(self, s):
        bs = build_branch_system(s)
        for depth in range(1, 11):
            expected = [RepellerPiece(w, vee_map(w), apply_word(bs, w, bs.base)) for w in fib_language(depth)]
            assert repeller_pieces(s, depth) == expected

    def test_two_inversions_per_piece_of_every_depth(self, monkeypatch):
        calls = []
        for name in ("phi1", "phi2"):
            method = getattr(BranchSystem, name)
            monkeypatch.setattr(BranchSystem, name, lambda self, y, m=method: calls.append(y) or m(self, y))
        repeller_pieces(Q(6, 5), 12)
        assert len(calls) == 2 * sum(len(fib_language(k)) for k in range(1, 13)) == 1968

    @pytest.mark.parametrize("s", BRANCH_PARAMETERS)
    def test_sorted_disjointness_equals_pairwise(self, s):
        for depth in range(1, 11):
            pieces = [p.interval for p in repeller_pieces(s, depth)]
            assert pairwise_disjoint(pieces) == pairwise_check(pieces) is True
            # widen one piece over its right neighbour, then make two touch
            ordered = sorted(pieces, key=lambda iv: iv.lo)
            if len(ordered) > 1:
                grown = [Interval(ordered[0].lo, ordered[1].lo + 1e-9 * ordered[1].diameter), *ordered[1:]]
                touching = [Interval(ordered[0].lo, ordered[1].lo), *ordered[1:]]
                for case in (grown, touching, grown[::-1], touching[::-1]):
                    assert pairwise_disjoint(case) == pairwise_check(case) is False

    def test_pieces_disjoint(self):
        pieces = [p.interval for p in repeller_pieces(Q(6, 5), 6)]
        assert all(
            pieces[i].disjoint(pieces[j]) for i in range(len(pieces)) for j in range(i + 1, len(pieces))
        )

    def test_contraction_on_common_prefixes(self):
        shallow = {p.word: p.interval for p in repeller_pieces(Q(6, 5), 4)}
        deep = repeller_pieces(Q(6, 5), 8)
        for piece in deep:
            parent = shallow[piece.word[:4]]
            assert parent.lo - 1e-9 <= piece.interval.lo and piece.interval.hi <= parent.hi + 1e-9
            assert piece.interval.diameter < parent.diameter

    def test_counts_match_language(self):
        for depth in range(1, 7):
            assert len(repeller_pieces(Q(6, 5), depth)) == len(fib_language(depth))

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            repeller_pieces(Q(6, 5), 13)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_contains_and_disjoint(self):
        big, small, right = Interval(0, 10), Interval(1, 2), Interval(3, 4)
        assert big.contains(small)
        assert small.disjoint(right)
