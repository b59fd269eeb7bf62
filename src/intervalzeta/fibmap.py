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
integer intervals [lo, hi] * 2^-F, with F = S(depth) + 64 fraction bits.
A symbol or a distance comparison is accepted only when its enclosure
decides it; otherwise it is decided on the exact orbit, so every answer is
the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

Q = Fraction

# address encoding for the parity-lexicographic order: left lap < turning < right lap
_L, _C, _R = 0, 1, 2


def cut_times(k: int) -> list[int]:
    """Cut times S(0)..S(k): the Fibonacci recursion seeded S(-2)=0, S(-1)=1."""
    if k < -2:
        raise ValueError("k must be >= -2")
    vals = [0, 1]  # S(-2), S(-1)
    for _ in range(k + 1):
        vals.append(vals[-1] + vals[-2])
    return vals[2:]


def _s(k: int) -> int:
    """Single cut time S(k), k >= -2."""
    if k == -2:
        return 0
    if k == -1:
        return 1
    return cut_times(k)[-1]


def tent_map(lam: Fraction, x: Fraction) -> Fraction:
    """T(x) = lam * min(x, 1 - x) on [0, 1], exact for rational data."""
    if not (0 <= x <= 1):
        raise ValueError("point outside [0, 1]")
    return lam * min(x, 1 - x)


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

    def addresses(self, n_from: int, n_to: int) -> list[int]:
        return [self.address(n) for n in range(n_from, n_to + 1)]


def _parity_lex_cmp(a: Sequence[int], b: Sequence[int]) -> int:
    """Compare address sequences in the parity-lexicographic order."""
    flip = 1
    for x, y in zip(a, b):
        if x != y:
            return flip * ((x > y) - (x < y))
        if x == _R:
            flip = -flip
        elif x == _C:
            break
    return 0


def _dyadic_orbit(lam: Fraction, frac_bits: int) -> Iterator[tuple[int, int]]:
    """Enclosures [lo, hi] * 2^-frac_bits of c_0, c_1, ... (frac_bits >= 1).

    Each step rounds lo down and hi up, so every enclosure contains the exact
    point; its width grows by about a factor lam per step.
    """
    p, q = lam.numerator, lam.denominator
    one = 1 << frac_bits
    half = one >> 1
    lo = hi = half
    while True:
        yield lo, hi
        if lo >= half:
            lo, hi = one - hi, one - lo
        elif hi > half:  # the enclosure contains c, where min(x, 1 - x) peaks
            lo, hi = min(lo, one - hi), half
        lo, hi = lo * p // q, -(-hi * p // q)


def _kneading_cmp(lam: Fraction, target: Sequence[int], frac_bits: int) -> int:
    """_parity_lex_cmp of the addresses of c_1..c_m against target
    (m = len(target), no turning symbol in target).

    Runs on the dyadic enclosures and stops at the first symbol that differs
    from the target.  If an enclosure touches c before that, the comparison
    is made on the exact orbit.
    """
    half = 1 << (frac_bits - 1)
    flip = 1
    orbit = _dyadic_orbit(lam, frac_bits)
    next(orbit)  # c_0 = c
    for want, (lo, hi) in zip(target, orbit):
        if lo > half:
            sym = _R
        elif hi < half:
            sym = _L
        else:
            return _parity_lex_cmp(TentOrbit(lam, len(target)).addresses(1, len(target)), target)
        if sym != want:
            return flip * ((sym > want) - (sym < want))
        if sym == _R:
            flip = -flip
    return 0


def _exact_tol(tol: Fraction | float) -> Fraction:
    """A float tol read as the decimal it was most likely written as
    (1e-10 -> 1/10**10).  Below 1e-15 that reading can round to 0 or up to
    1e-15, so there the float's exact binary value is used."""
    if isinstance(tol, Fraction):
        return tol
    return Q(tol).limit_denominator(10**15) if tol >= 1e-15 else Q(tol)


class BracketError(RuntimeError):
    """The kneading target could not be bracketed in the slope interval."""


@dataclass(frozen=True)
class LambdaResult:
    lam: Fraction
    bracket: tuple[Fraction, Fraction]
    depth: int

    @property
    def value(self) -> float:
        return float(self.lam)


def find_fib_lambda(depth: int, tol: Fraction | float = Q(1, 10**10), max_iter: int = 2000) -> LambdaResult:
    """Bisect the tent slope whose kneading prefix is the Fibonacci target.

    Tent kneading is monotone in the slope (a standard fact for the tent
    family, recorded here as a design assumption), so the comparison of the
    length-S(depth) prefix against the target is monotone and bisection
    closes in on the matching parameter window.  The returned slope
    reproduces the target exactly through S(depth) and satisfies the
    closest-return property through depth.

    Each bisection step compares the prefix on dyadic enclosures of the
    orbit with S(depth) + 64 fraction bits, and only a symbol whose
    enclosure touches c is decided on the exact orbit, so the result is the
    one exact bisection gives.
    """
    if depth < 1 or depth > 20:
        raise ValueError("depth must be in 1..20")
    tol = _exact_tol(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = _target_addresses(depth)
    frac_bits = len(target) + 64

    lo, hi = Q(1), Q(2)
    c_hi = _kneading_cmp(hi, target, frac_bits)
    if c_hi < 0:
        raise BracketError("target exceeds the full tent kneading")
    for _ in range(max_iter):
        if c_hi == 0 and hi - lo <= tol:
            lam = hi
            if not orbit_order_holds(lam, depth):
                raise BracketError("closest-return property failed at the bisected slope")
            return LambdaResult(lam, (lo, hi), depth)
        mid = (lo + hi) / 2
        c = _kneading_cmp(mid, target, frac_bits)
        if c < 0:
            lo = mid
        else:
            hi, c_hi = mid, c
    raise BracketError("bisection did not locate the target at depth %d" % depth)


def orbit_order_holds(lam: Fraction, k_max: int) -> bool:
    """Closest returns: |c_i - c| > |c_S(k-1) - c| for 0 < i < S(k),
    i != S(k-1), for every k <= k_max.

    The distances are compared on dyadic enclosures of c_1..c_{S(k_max)-1}
    with S(k_max) + 64 fraction bits; a pair whose distance enclosures
    overlap is compared on the exact orbit.
    """
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


@dataclass(frozen=True)
class LabeledInterval:
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


@dataclass
class IntervalFamily:
    lam: Fraction
    k_max: int
    orbit: TentOrbit
    I: dict[int, LabeledInterval]
    J: dict[int, LabeledInterval]
    D: dict[int, LabeledInterval]
    M: dict[int, list[LabeledInterval]]


def interval_families(lam: Fraction, k_max: int) -> IntervalFamily:
    """Build I_k, J_k, D_k and the S(k)-fold unions M_k with endpoint labels.

    I_k spans the cut-time returns [c_S(k), c_S(k+1)] (even k) or
    [c_S(k), c_S(k+2)] (odd k); J_k = image of I_{k+1} after S(k-1) steps;
    D_k = [c, c_S(k)]; M_k collects the first S(k-1) images of I_k and the
    first S(k-2) images of J_k.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    need = max(_s(k_max + 2), _s(k_max + 1) + _s(k_max - 1), _s(k_max) + _s(k_max - 1))
    orb = TentOrbit(lam, need)

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
    return IntervalFamily(lam, k_max, orb, fam_i, fam_j, fam_d, fam_m)


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    checks: dict[str, bool]


def verify_structure(family: IntervalFamily, k_max: int | None = None) -> StructureReport:
    """Exact checks of the nesting and disjointness structure.

    Verifies J_{k'} in D_{k'-1} in I_k with J_k, J_{k'} disjoint; nesting
    M_{k+1} in M_k; pairwise disjointness within each level; injectivity of
    the iterates on [c_1, c_S(k)+1]; and that the pieces of M_{k+1} meeting
    I_k are exactly I_{k+1} and J_{k+1}.  Failures are reported, not thrown.
    """
    k_max = family.k_max if k_max is None else k_max
    if k_max > family.k_max:
        raise ValueError("family was not built this deep")
    orb = family.orbit
    c = orb.point(0)
    checks: dict[str, bool] = {}

    ok = True
    for kp in range(2, k_max + 1):
        for k in range(1, kp):
            ok = ok and family.D[kp - 1].contains(family.J[kp]) and family.I[k].contains(family.D[kp - 1])
    checks["J_in_D_in_I"] = ok

    ok = True
    for kp in range(1, k_max + 1):
        for k in range(1, kp):
            ok = ok and family.J[k].disjoint(family.J[kp])
    checks["J_pairwise_disjoint"] = ok

    ok = True
    for k in range(0, k_max + 1):
        pieces = family.M[k]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                ok = ok and pieces[i].disjoint(pieces[j])
    checks["M_level_disjoint"] = ok

    ok = True
    for k in range(0, k_max):
        for piece in family.M[k + 1]:
            ok = ok and any(parent.contains(piece) for parent in family.M[k])
    checks["M_nested"] = ok

    ok = True
    for k in range(1, k_max + 1):
        # T^j injective on [c_1, c_{S(k)+1}] iff no intermediate image straddles c
        for i in range(0, _s(k - 1) - 1):
            a, b = orb.point(1 + i), orb.point(_s(k) + 1 + i)
            lo, hi = min(a, b), max(a, b)
            ok = ok and not (lo < c < hi)
    checks["T_injective_ranges"] = ok

    ok = True
    for k in range(1, k_max):
        hits = [p for p in family.M[k + 1] if not p.disjoint(family.I[k])]
        names = {p.name for p in hits}
        ok = ok and names == {"I%d" % (k + 1), "J%d" % (k + 1)}
        ok = ok and all(family.I[k].contains(p) for p in hits)
    checks["Mk1_meets_Ik_exactly_I_J"] = ok

    return StructureReport(all(checks.values()), checks)


@dataclass(frozen=True)
class DiameterReport:
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
    if family.k_max < k_max + 2:
        raise ValueError("family must be built to k_max + 2")
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
