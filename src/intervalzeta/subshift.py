"""Finite-word combinatorics of shift spaces.

Words of the Fibonacci shift (binary words over {1,2} with no "11"),
edge-shift adjacency matrices and their periodic-point counts, and the
branch-collapse map on admissible words.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from operator import matmul
from typing import Sequence

Word = str

FIB_ALPHABET = "12"


def fib_language(n: int) -> list[Word]:
    """All length-n words over {1,2} with no two consecutive 1s, in lex order."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    out = []
    for letters in product(FIB_ALPHABET, repeat=n):
        w = "".join(letters)
        if "11" not in w:
            out.append(w)
    return out


def fib_numbers(n: int) -> list[int]:
    """Fibonacci numbers l_0..l_n with l_0 = 0, l_1 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


class AdjMatrix:
    """Square nonnegative-integer adjacency matrix of an edge shift."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("adjacency matrix must be square")
        if any(int(e) < 0 or int(e) != e for r in rows for e in r):
            raise ValueError("entries must be nonnegative integers")
        self.k = k
        self.rows = tuple(tuple(int(e) for e in r) for r in rows)

    def __matmul__(self, other: "AdjMatrix") -> "AdjMatrix":
        k = self.k
        return AdjMatrix(
            [[sum(self.rows[i][l] * other.rows[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
        )

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.k))

    def __repr__(self):
        return "AdjMatrix(%r)" % (list(list(r) for r in self.rows),)


def fib_adjacency() -> AdjMatrix:
    """Adjacency matrix of the two-vertex graph presenting the Fibonacci shift."""
    return AdjMatrix([[0, 1], [1, 1]])


# the most work, n^2 b^2 (k^3 + n), that sft_periodic_counts admits for a
# k x k matrix whose largest entry has b bits (at least 1): its n - 1
# products (counted as n, an over-count) make k^3 multiplications each of an
# entry of up to about n b bits by one of b bits, and printing the n counts,
# of up to about n b bits, costs about n^3 b^2 in CPython's quadratic
# int-to-str.  Fresh `zeta sft` processes took 4.7-7.3 s at this bound,
# making n products: k = 1, 2, 5, 10 and 30 at --n 120 with entries of
# 2395, 2330, 1683, 787 and 162 bits, and k = 30 at --n 57 with 333 bits.
# A 30 x 30 matrix of 100-digit entries at --n 120 (4.3e13) ran 31 s.
MAX_SFT_WORK = 10**13


def sft_periodic_counts(a: AdjMatrix, n: int) -> list[int]:
    """Periodic-point counts N_1..N_n of the edge shift: traces of powers.
    Refuses, before the first product, more work than MAX_SFT_WORK."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bits = max(1, max((e for r in a.rows for e in r), default=0).bit_length())
    work = n**2 * bits**2 * (a.k**3 + n)
    if work > MAX_SFT_WORK:
        raise ValueError("a %d x %d matrix of %d-bit entries at n = %d: n^2 b^2 (k^3 + n) = %d, capped at %d"
                         % (a.k, a.k, bits, n, work, MAX_SFT_WORK))
    # A, A^2, ..., A^n: n - 1 products
    return [power.trace() for power in accumulate(repeat(a, n), matmul)]


def vee_map(w: Word) -> Word:
    """Left-to-right collapse of "12" blocks to "1" on admissible words.

    A leading 1 with a symbol after it must be followed by 2 (no "11" in the
    language); the pair is replaced by a single 1 and scanning resumes after
    it.  A trailing 1 is kept as is.  The image word records one inverse
    branch application per symbol: a 1 costs a double-step branch, a 2 a
    single-step branch, so 2*(#1s) + (#2s) of the output equals len(w).
    """
    if "11" in w:
        raise ValueError("word contains '11' and is not in the Fibonacci language")
    if any(ch not in FIB_ALPHABET for ch in w):
        raise ValueError("word must be over the alphabet {1,2}")
    out = []
    i = 0
    n = len(w)
    while i < n:
        if w[i] == "1" and i < n - 1:
            out.append("1")
            i += 2
        else:
            out.append(w[i])
            i += 1
    return "".join(out)
