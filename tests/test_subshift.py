import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalzeta.subshift import (
    AdjMatrix,
    fib_adjacency,
    fib_language,
    fib_numbers,
    sft_periodic_counts,
    vee_map,
)


class TestFibLanguage:
    def test_length_one(self):
        assert fib_language(1) == ["1", "2"]

    def test_length_two(self):
        assert fib_language(2) == ["12", "21", "22"]

    def test_length_three_count(self):
        assert len(fib_language(3)) == 5

    def test_empty_word(self):
        assert fib_language(0) == [""]

    def test_counts_follow_fibonacci(self):
        ell = fib_numbers(22)
        for n in range(0, 21):
            assert len(fib_language(n)) == ell[n + 2]


class TestFibNumbers:
    def test_seed(self):
        assert fib_numbers(1) == [0, 1]

    def test_small_values(self):
        assert fib_numbers(5) == [0, 1, 1, 2, 3, 5]

    def test_l2(self):
        assert fib_numbers(2)[2] == 1


class TestAdjacency:
    def test_fib_matrix(self):
        assert fib_adjacency().rows == ((0, 1), (1, 1))

    def test_trace_of_first_power(self):
        assert fib_adjacency().trace() == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AdjMatrix([[0, 1]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AdjMatrix([[0, -1], [1, 1]])


class TestPeriodicCounts:
    def test_fibonacci_traces(self):
        assert sft_periodic_counts(fib_adjacency(), 4) == [1, 3, 4, 7]

    def test_traces_equal_lucas_form(self):
        ell = fib_numbers(22)
        counts = sft_periodic_counts(fib_adjacency(), 20)
        for n in range(1, 21):
            assert counts[n - 1] == ell[n - 1] + ell[n + 1]

    def test_identity_counts(self):
        ident = AdjMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert sft_periodic_counts(ident, 5) == [3] * 5

    def test_full_shift(self):
        assert sft_periodic_counts(AdjMatrix([[2]]), 5) == [2, 4, 8, 16, 32]

    def test_work_over_budget_is_refused_before_any_product(self, monkeypatch):
        # n^2 b^2 (k^3 + n) at k = 1, n = 100: 3146 bits is the most admitted
        assert sft_periodic_counts(AdjMatrix([[2**3145]]), 100) == [2 ** (3145 * j) for j in range(1, 101)]
        monkeypatch.setattr(AdjMatrix, "__matmul__", lambda a, b: pytest.fail("a product ran"))
        with pytest.raises(ValueError, match=r"a 1 x 1 matrix of 3147-bit entries at n = 100: "
                                             r"n\^2 b\^2 \(k\^3 \+ n\) = 10002645090000, capped at 10000000000000"):
            sft_periodic_counts(AdjMatrix([[2**3146]]), 100)
        with pytest.raises(ValueError, match="a 30 x 30 matrix of 333-bit entries at n = 120"):
            sft_periodic_counts(AdjMatrix([[10**100 - 1] * 30] * 30), 120)

    def test_last_power_is_not_multiplied(self, monkeypatch):
        # A^n is the last power read, so n counts take n - 1 products
        calls = []
        matmul = AdjMatrix.__matmul__
        monkeypatch.setattr(AdjMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        assert sft_periodic_counts(fib_adjacency(), 5) == [1, 3, 4, 7, 11] and len(calls) == 4
        monkeypatch.setattr(AdjMatrix, "__matmul__", lambda a, b: pytest.fail("a product ran"))
        assert sft_periodic_counts(AdjMatrix([[10**4299] * 30] * 30), 1) == [30 * 10**4299]
        assert sft_periodic_counts(fib_adjacency(), 0) == []


class TestVeeMap:
    @pytest.mark.parametrize(
        "word,expected",
        [("2", "2"), ("1", "1"), ("12", "1"), ("2122", "212"), ("21", "21"), ("121", "11")],
    )
    def test_examples(self, word, expected):
        assert vee_map(word) == expected

    def test_rejects_forbidden_word(self):
        with pytest.raises(ValueError):
            vee_map("211")

    def test_rejects_foreign_alphabet(self):
        with pytest.raises(ValueError):
            vee_map("102")

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=80)
    def test_branch_cost_accounting(self, n, data):
        # a 1 in the image pins two steps, a 2 one step; a trailing kept 1
        # covers only the final step of the input word
        words = fib_language(n)
        w = data.draw(st.sampled_from(words))
        v = vee_map(w)
        cost = 2 * v.count("1") + v.count("2")
        assert cost == len(w) + (1 if w.endswith("1") else 0)
