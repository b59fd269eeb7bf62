"""Fibonacci tent-map combinatorics: cut times, parameter bisection, and
the labeled interval families around the turning-point orbit.

The tent map T(x) = lam * min(x, 1 - x) on [0, 1] with rational slope
lam = P/Q has an exactly computable turning-point orbit: writing
c_n = a_n / (2 Q^n) gives the integer recurrence
a_{n+1} = P * min(a_n, 2 Q^n - a_n), so addresses, closest returns, and
interval endpoints are all decided in exact integer arithmetic.  The
parameter with Fibonacci combinatorics is isolated by bisection against a
target kneading prefix.

The exact numerators grow by log2(P) bits per step, so the bisection and
the closest-return check first run the orbit as outward-rounded dyadic
integer intervals [lo, hi] * 2^-F, with F = S(depth) + 64 fraction bits
(the bisection takes the bits of its tolerance when those are more).
A step multiplies by P and shifts right by the power-of-two part of Q,
dividing by Q's odd part only when that is not 1; every bisection slope is
dyadic, so its steps never divide.  A symbol or a distance comparison is
accepted only when its enclosure decides it; otherwise it is decided on the
exact orbit, so every answer is the exact one.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, islice
from typing import Iterator, NamedTuple, Sequence

from ._value import pairwise_disjoint
from .subshift import fib_numbers

Q = Fraction

# address encoding for the parity-lexicographic order: left lap < turning < right lap
_L, _C, _R = 0, 1, 2


def cut_times(k: int) -> list[int]:
    """Cut times S(0)..S(k): the Fibonacci recursion seeded S(-2)=0, S(-1)=1,
    so S(k) is the Fibonacci number l_(k+2)."""
    if k < -2:
        raise ValueError("k must be >= -2")
    return fib_numbers(k + 2)[2:]


@cache
def _s(k: int) -> int:
    """Single cut time S(k), k >= -2, computed once for each k."""
    return fib_numbers(k + 2)[-1]


def _target_addresses(depth: int) -> list[int]:
    """Addresses of c_1..c_S(depth) for the Fibonacci combinatorics.

    Segment rule: the block at positions S(k-1)+1..S(k) repeats the block
    at positions 1..S(k-2) with its final symbol flipped.  The resulting
    side pattern of c_S(k) (right of c for k = 0,3 mod 4, left for
    k = 1,2 mod 4) is validated and any mismatch is a hard error.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = _s(depth)
    a = [None] * (total + 1)  # 1-based
    a[1] = _R
    for k in range(1, depth + 1):
        start, end = _s(k - 1) + 1, _s(k)
        block = [a[j] for j in range(1, _s(k - 2) + 1)]
        block[-1] = _L if block[-1] == _R else _R
        if end - start + 1 != len(block):
            raise AssertionError("segment rule length mismatch")
        a[start : end + 1] = block
    for k in range(0, depth + 1):
        want = _R if k % 4 in (0, 3) else _L
        if a[_s(k)] != want:
            raise AssertionError("side pattern violated at cut time S(%d)" % k)
    return a[1:]


def target_kneading(depth: int) -> list[int]:
    """Fibonacci kneading signs at positions 1..S(depth): +1 on the
    increasing lap (left of c), -1 on the decreasing lap."""
    return [1 if sym == _L else -1 for sym in _target_addresses(depth)]


def _check_slope(lam: Fraction | int) -> Fraction:
    lam = lam if isinstance(lam, Fraction) else Q(lam)
    if not (1 < lam <= 2):
        raise ValueError("slope must be in (1, 2]")
    return lam


class TentOrbit:
    """Exact turning-point orbit of the tent map with rational slope."""

    def __init__(self, lam: Fraction, length: int):
        lam = _check_slope(lam)
        if length < 0:
            raise ValueError("length must be >= 0")
        self.lam = lam
        p, q = lam.numerator, lam.denominator
        a = [1]  # c_0 = 1/2 = a_0 / (2 q^0)
        qpow = [1]
        for n in range(length):
            a.append(p * min(a[n], 2 * qpow[n] - a[n]))
            qpow.append(qpow[n] * q)
        self._a = a
        self._qpow = qpow
        self.length = length

    def address(self, n: int) -> int:
        d = self._a[n] - self._qpow[n]
        return _L if d < 0 else (_C if d == 0 else _R)

    def point(self, n: int) -> Fraction:
        return Q(self._a[n], 2 * self._qpow[n])

    def dist_to_c_cmp(self, i: int, j: int) -> int:
        """Sign of |c_i - c| - |c_j - c|, exactly."""
        left = abs(self._a[i] - self._qpow[i]) * self._qpow[j]
        right = abs(self._a[j] - self._qpow[j]) * self._qpow[i]
        return (left > right) - (left < right)


def _dyadic_orbit(lam: Fraction, frac_bits: int) -> Iterator[tuple[int, int]]:
    """Enclosures [lo, hi] * 2^-frac_bits of c_0, c_1, ... (frac_bits >= 1).

    Each step rounds lo down and hi up, so every enclosure contains the exact
    point; its width grows by about a factor lam per step.  With the slope's
    denominator q = 2^k * odd, a step multiplies by p, shifts right by k and
    divides by odd only when odd != 1: floor(floor(y / 2^k) / odd) is
    floor(y / q), and likewise for ceilings, so the integers are those of
    dividing by q.
    """
    p, q = lam.numerator, lam.denominator
    k = (q & -q).bit_length() - 1
    odd = q >> k
    one = 1 << frac_bits
    half = one >> 1
    lo = hi = half
    while True:
        yield lo, hi
        if lo >= half:
            lo, hi = one - hi, one - lo
        elif hi > half:  # the enclosure contains c, where min(x, 1 - x) peaks
            lo, hi = min(lo, one - hi), half
        lo, hi = lo * p >> k, -(-hi * p >> k)
        if odd != 1:
            lo, hi = lo // odd, -(-hi // odd)


def _kneading_cmp(lam: Fraction, target: Sequence[int], frac_bits: int) -> int:
    """Sign of the parity-lexicographic comparison of the addresses of
    c_1..c_m against target (m = len(target), no turning symbol in target).

    At the first differing symbol the order is that of the addresses,
    reversed when an odd number of R symbols precede it.  The symbols are
    read from the dyadic enclosures, up to the first that differs from the
    target; a symbol whose enclosure touches c is read from the exact orbit,
    built once.
    """
    half = 1 << (frac_bits - 1)
    flip = 1
    exact = None
    orbit = _dyadic_orbit(lam, frac_bits)
    next(orbit)  # c_0 = c
    for n, want, (lo, hi) in zip(count(1), target, orbit):
        if lo > half:
            sym = _R
        elif hi < half:
            sym = _L
        else:
            if exact is None:
                exact = TentOrbit(lam, len(target))
            sym = exact.address(n)
        if sym != want:
            return flip * ((sym > want) - (sym < want))
        if sym == _R:
            flip = -flip
    return 0


MAX_BISECTIONS = 2000  # find_fib_lambda reaches any tol >= 2^-2000


def _bits_below(tol: Fraction) -> int:
    """The least k >= 0 with 2^-k <= tol: the halvings of a unit bracket
    that reach tol."""
    p, q = tol.numerator, tol.denominator
    k = max(0, q.bit_length() - p.bit_length())
    return k if p << k >= q else k + 1


class BracketError(RuntimeError):
    """The kneading target could not be bracketed in the slope interval."""


class LambdaResult(NamedTuple):
    lam: Fraction
    bracket: tuple[Fraction, Fraction]
    depth: int

    @property
    def value(self) -> float:
        return float(self.lam)


def find_fib_lambda(depth: int, tol: Fraction | float = Q(1, 10**10)) -> LambdaResult:
    """Bisect the tent slope whose kneading prefix is the Fibonacci target.

    Tent kneading is monotone in the slope (a standard fact for the tent
    family, recorded here as a design assumption), so the comparison of the
    length-S(depth) prefix against the target is monotone and bisection
    closes in on the matching parameter window.  The returned slope
    reproduces the target exactly through S(depth) and satisfies the
    closest-return property through depth.

    The bracket after K halvings is [a, a + 1] / 2^K, carried as the
    integers (a, K), so every slope it compares is dyadic.  Each bisection
    step compares the prefix on dyadic enclosures of the orbit with
    max(S(depth), log2(1/tol)) + 64 fraction bits, and only a
    symbol whose enclosure touches c is decided on the exact orbit, so the
    result is the one exact bisection gives.  A slope within the bracket
    width w of the window's edge has a symbol about w lam^n from c, so
    without tol's bits the enclosures of a narrow bracket would touch c at
    every step.

    A float tol is read as its exact binary value: no power of two, which
    the bracket width is, lies strictly between a decimal and its float.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise ValueError("depth capped at %d" % MAX_DEPTH)
    tol = Q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    tol_bits = _bits_below(tol)
    if tol_bits > MAX_BISECTIONS:
        raise ValueError("tol must be >= 2^-%d, the narrowest bracket the bisection reaches" % MAX_BISECTIONS)
    target = _target_addresses(depth)
    frac_bits = max(len(target), tol_bits) + 64

    a, halvings = 1, 0  # the bracket [a, a + 1] / 2^halvings
    c_hi = _kneading_cmp(Q(2), target, frac_bits)
    if c_hi < 0:
        raise BracketError("target exceeds the full tent kneading")
    while not (c_hi == 0 and halvings >= tol_bits):
        if halvings == MAX_BISECTIONS:
            raise BracketError("bisection did not locate the target within tol in %d halvings at depth %d"
                               % (MAX_BISECTIONS, depth))
        halvings += 1
        c = _kneading_cmp(Q(2 * a + 1, 1 << halvings), target, frac_bits)
        if c < 0:
            a = 2 * a + 1
        else:
            a, c_hi = 2 * a, c
    lo, hi = Q(a, 1 << halvings), Q(a + 1, 1 << halvings)
    if not orbit_order_holds(hi, depth):
        raise BracketError("closest-return property failed at the bisected slope")
    return LambdaResult(hi, (lo, hi), depth)


def orbit_order_holds(lam: Fraction, k_max: int) -> bool:
    """Closest returns: |c_i - c| > |c_S(k-1) - c| for 0 < i < S(k),
    i != S(k-1), for every k <= k_max.

    The distances are compared on dyadic enclosures of c_1..c_{S(k_max)-1}
    with S(k_max) + 64 fraction bits; a pair whose distance enclosures
    overlap is compared on the exact orbit.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _orbit_order_holds(_check_slope(lam), k_max, _s(k_max) + 64)


def _orbit_order_holds(lam: Fraction, k_max: int, frac_bits: int) -> bool:
    half = 1 << (frac_bits - 1)
    dist = []  # enclosures of |c_n - c| * 2^frac_bits
    for lo, hi in islice(_dyadic_orbit(lam, frac_bits), _s(k_max)):
        if lo >= half:
            dist.append((lo - half, hi - half))
        elif hi <= half:
            dist.append((half - hi, half - lo))
        else:
            dist.append((0, max(hi - half, half - lo)))
    exact = None
    for k in range(1, k_max + 1):
        ref = _s(k - 1)
        ref_lo, ref_hi = dist[ref]
        for i in range(1, _s(k)):
            if i == ref:
                continue
            lo, hi = dist[i]
            if lo > ref_hi:
                continue
            if hi <= ref_lo:
                return False
            if exact is None:
                exact = TentOrbit(lam, _s(k_max) - 1)
            if exact.dist_to_c_cmp(i, ref) <= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# interval families
# ---------------------------------------------------------------------------


class LabeledInterval(NamedTuple):
    name: str
    labels: tuple[int, int]  # orbit indices of (lo, hi); c itself is index 0
    lo: Fraction
    hi: Fraction

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "LabeledInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def disjoint(self, other: "LabeledInterval") -> bool:
        return self.hi < other.lo or other.hi < self.lo


class IntervalFamily(NamedTuple):
    lam: Fraction
    k_max: int
    I: dict[int, LabeledInterval]
    J: dict[int, LabeledInterval]
    D: dict[int, LabeledInterval]
    M: dict[int, list[LabeledInterval]]


# the deepest Fibonacci target find_fib_lambda bisects for: at the smallest
# tol it reaches, 2^-2000, depths 12, 13, 14 took 4.1 s, 6.5 s and 8.7 s, and
# at the default tol 13, 14, 15 took 0.17 s, 0.76 s and 3.9 s (each in a
# fresh process, Python 3.11 on a 2-core container)
MAX_DEPTH = 13

# the deepest structure `fib check` verifies: its family is built to k_max + 2,
# and at the depth-12 slope (366-bit p/q) k_max = 8, 9, 10 took 4.5 s, 21 s,
# and 79 s with 129 MB
MAX_KMAX = 9


# the most bits, max(p, q).bit_length() * S(k_max + 4), that `fib check`
# admits for a slope p/q: the family it builds to k_max + 2 runs an orbit of
# S(k_max + 4) points, whose integers grow by about log2(p) bits per point.
# MAX_KMAX was sized at 366 * S(13): the depth-12 slope at k_max 9, which
# took 17 s.  Just inside the bound, a 589-bit slope at k_max 8 took 7.7 s
# and a 954-bit one at k_max 7 6.3 s.  The 1995-bit slope at k_max 6, just
# outside it, took 6.2 s, and the time grows about fourfold per k_max
MAX_CHECK_BITS = 366 * 610


def check_budget(lam: Fraction, k_max: int) -> None:
    """Refuse what `fib check` cannot finish in seconds, before any orbit is
    built: a depth outside 0..MAX_KMAX, a slope outside (1, 2], or more
    than MAX_CHECK_BITS."""
    if k_max < 0:
        raise ValueError("kmax must be >= 0")
    if k_max > MAX_KMAX:
        raise ValueError("kmax capped at %d" % MAX_KMAX)
    lam = _check_slope(lam)
    bits = max(lam.numerator, lam.denominator).bit_length()
    if bits * _s(k_max + 4) > MAX_CHECK_BITS:
        raise ValueError("a %d-bit slope at kmax %d: %d x S(%d) = %d bits, capped at %d"
                         % (bits, k_max, bits, k_max + 4, bits * _s(k_max + 4), MAX_CHECK_BITS))


def interval_families(lam: Fraction, k_max: int) -> IntervalFamily:
    """Build I_k, J_k, D_k and the S(k)-fold unions M_k with endpoint labels.

    I_k spans the cut-time returns [c_S(k), c_S(k+1)] (even k) or
    [c_S(k), c_S(k+2)] (odd k); J_k = image of I_{k+1} after S(k-1) steps;
    D_k = [c, c_S(k)]; M_k collects the first S(k-1) images of I_k and the
    first S(k-2) images of J_k.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    # no label read at level k exceeds S(k+2) = S(k+1) + S(k): S is
    # nondecreasing, so S(k+1) + S(k-1) and S(k) + S(k-1) are at most it
    orb = TentOrbit(lam, _s(k_max + 2))

    def mk(name: str, la: int, lb: int) -> LabeledInterval:
        xa, xb = orb.point(la), orb.point(lb)
        if xa <= xb:
            return LabeledInterval(name, (la, lb), xa, xb)
        return LabeledInterval(name, (lb, la), xb, xa)

    fam_i: dict[int, LabeledInterval] = {}
    fam_j: dict[int, LabeledInterval] = {}
    fam_d: dict[int, LabeledInterval] = {}
    fam_m: dict[int, list[LabeledInterval]] = {}
    for k in range(0, k_max + 1):
        if k % 2 == 0:
            fam_i[k] = mk("I%d" % k, _s(k), _s(k + 1))
        else:
            fam_i[k] = mk("I%d" % k, _s(k), _s(k + 2))
        fam_d[k] = mk("D%d" % k, 0, _s(k))
        if k >= 1:
            fam_j[k] = mk("J%d" % k, _s(k - 1), _s(k + 1) + _s(k - 1))
        pieces = [fam_i[k]]
        for n in range(1, _s(k - 1)):
            pieces.append(mk("I%d^%d" % (k, n), n, _s(k) + n))
        for n in range(0, _s(k - 2)):
            base = "J%d" % k if n == 0 else "J%d^%d" % (k, n)
            pieces.append(mk(base, _s(k - 1) + n, _s(k + 1) + _s(k - 1) + n))
        fam_m[k] = pieces
    return IntervalFamily(lam, k_max, fam_i, fam_j, fam_d, fam_m)


class StructureReport(NamedTuple):
    ok: bool
    checks: dict[str, bool]


def verify_structure(family: IntervalFamily, k_max: int) -> StructureReport:
    """Exact checks of the nesting and disjointness structure.

    Verifies J_{k'} in D_{k'-1} in I_k with J_k, J_{k'} disjoint; nesting
    M_{k+1} in M_k; pairwise disjointness within each level; injectivity of
    the iterates on [c_1, c_S(k)+1]; and that the pieces of M_{k+1} meeting
    I_k are exactly I_{k+1} and J_{k+1}.  Failures are reported, not thrown.
    The disjointness and nesting checks are sweeps over pieces sorted by lo,
    O(S(k) log S(k)) comparisons per level.
    """
    if k_max > family.k_max:
        raise ValueError("family was not built this deep")
    checks: dict[str, bool] = {}

    ok = True
    for kp in range(2, k_max + 1):
        for k in range(1, kp):
            ok = ok and family.D[kp - 1].contains(family.J[kp]) and family.I[k].contains(family.D[kp - 1])
    checks["J_in_D_in_I"] = ok

    checks["J_pairwise_disjoint"] = pairwise_disjoint([family.J[k] for k in range(1, k_max + 1)])
    # each level sorted once: pairwise_disjoint re-sorts a sorted list in one pass
    levels = [sorted(family.M[k], key=lambda iv: iv.lo) for k in range(0, k_max + 1)]
    checks["M_level_disjoint"] = all(map(pairwise_disjoint, levels))
    checks["M_nested"] = all(_nested(family.M[k + 1], levels[k]) for k in range(0, k_max))

    # T^j injective on [c_1, c_{S(k)+1}] iff no intermediate image straddles
    # c: the images are the pieces I_k^1..I_k^(S(k-1)-1) of M_k
    c = Q(1, 2)
    checks["T_injective_ranges"] = all(
        not (p.lo < c < p.hi) for k in range(1, k_max + 1) for p in family.M[k][1 : _s(k - 1)]
    )

    ok = True
    for k in range(1, k_max):
        hits = [p for p in family.M[k + 1] if not p.disjoint(family.I[k])]
        names = {p.name for p in hits}
        ok = ok and names == {"I%d" % (k + 1), "J%d" % (k + 1)}
        ok = ok and all(family.I[k].contains(p) for p in hits)
    checks["Mk1_meets_Ik_exactly_I_J"] = ok

    return StructureReport(all(checks.values()), checks)


def _nested(pieces: Sequence[LabeledInterval], parents: Sequence[LabeledInterval]) -> bool:
    """Whether each piece lies inside some parent (parents sorted by lo): it
    does exactly when the furthest hi among the parents with lo <= piece.lo
    reaches piece.hi, also where parents overlap."""
    los = [p.lo for p in parents]
    reach = list(accumulate((p.hi for p in parents), max))
    return all((i := bisect_right(los, p.lo)) > 0 and reach[i - 1] >= p.hi for p in pieces)


class DiameterReport(NamedTuple):
    k_max: int
    nu: list[Fraction]  # nu_k = |D_k| / |D_{k+1}|, k = 0..k_max
    C: list[Fraction]  # C_k = nu_k * lam^-S(k)
    residuals: list[Fraction]  # |lam^S(k-1) - nu_{k-1} - 1/nu_k|, k = 1..k_max
    product_ok: bool


def diameter_ratios(family: IntervalFamily, k_max: int) -> DiameterReport:
    """Contraction data of the nested returns.

    nu_k are the diameter ratios of successive D_k, C_k their normalization
    by lam^S(k), the residuals measure the closest-return recurrence
    lam^S(k-1) = nu_{k-1} + 1/nu_k, and the product identity
    |D_{k+1}| lam^(S(k+2)-S(1)) = |D_0| / prod C_i is checked exactly.
    """
    if family.k_max < k_max + 1:
        raise ValueError("family must be built to k_max + 1")
    lam = family.lam
    diam = [family.D[k].diameter for k in range(0, k_max + 2)]
    if any(d == 0 for d in diam):
        raise ArithmeticError("degenerate D_k: turning point is periodic at this slope")
    nu = [diam[k] / diam[k + 1] for k in range(0, k_max + 1)]
    c_vals = [nu[k] / lam ** _s(k) for k in range(0, k_max + 1)]
    residuals = [abs(lam ** _s(k - 1) - nu[k - 1] - 1 / nu[k]) for k in range(1, k_max + 1)]
    product_ok = True
    prod = Q(1)
    for k in range(0, k_max + 1):
        prod *= c_vals[k]
        lhs = diam[k + 1] * lam ** (_s(k + 2) - _s(1))
        product_ok = product_ok and lhs * prod == diam[0]
    return DiameterReport(k_max, nu, c_vals, residuals, product_ok)
