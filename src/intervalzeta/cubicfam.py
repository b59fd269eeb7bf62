"""The one-parameter cubic family F_s(x) = a(s) x^3 + b(s) x^2 + 1.

Exact rational identities (critical orbit, critical value in direct and
factored form), the distinguished parameter s_* as a bisected root, and the
numerical layer: filled-Julia endpoints, periodic-point counting on laps of
iterates, and the Fibonacci repeller tracked through monotone inverse
branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .series import Q, poly_compose, poly_divmod, poly_mul, poly_sub, poly_trim
from .subshift import fib_language, vee_map


class TangencyError(RuntimeError):
    """A near-tangency could not be resolved at the working tolerance."""


class BranchError(RuntimeError):
    """Inverse-branch construction or inversion failed."""


@dataclass(frozen=True)
class RealPoly:
    """Dense real polynomial with exact rational coefficients, lowest first."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", poly_trim(self.coeffs))
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (Q(0),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        exact = isinstance(x, (int, Fraction))
        acc = Q(0) if exact else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else float(c))
        return acc

    def compose(self, other: "RealPoly") -> "RealPoly":
        return RealPoly(poly_compose(self.coeffs, other.coeffs))

    def __sub__(self, other: "RealPoly") -> "RealPoly":
        return RealPoly(poly_sub(self.coeffs, other.coeffs))

    def __mul__(self, other: "RealPoly") -> "RealPoly":
        return RealPoly(poly_mul(self.coeffs, other.coeffs))

    def divide_exactly(self, other: "RealPoly") -> "RealPoly":
        quot, rem = poly_divmod(self.coeffs, other.coeffs)
        if rem:
            raise ValueError("division is not exact")
        return RealPoly(quot)

    def float_fn(self) -> Callable[[float], float]:
        cs = [float(c) for c in reversed(self.coeffs)]

        def f(x: float) -> float:
            acc = 0.0
            for c in cs:
                acc = acc * x + c
            return acc

        return f


IDENTITY = RealPoly((Q(0), Q(1)))


@dataclass(frozen=True)
class CubicParam:
    """Parameter s with the derived coefficients and free critical point."""

    s: Fraction
    a: Fraction
    b: Fraction
    c_s: Fraction


def _params(s) -> CubicParam:
    s = s if isinstance(s, Fraction) else Q(s)
    if s < 1:
        raise ValueError("parameter s must be >= 1")
    w = 1 / (s * s * (s + 1))
    a = -1 + w
    b = -s - w
    return CubicParam(s, a, b, -Q(2, 3) * b / a)


def cubic_family(s) -> tuple[RealPoly, CubicParam]:
    """F_s as an exact polynomial together with its derived parameters."""
    par = _params(s)
    return RealPoly((Q(1), Q(0), par.b, par.a)), par


def verify_critical_orbit(s) -> bool:
    """Exact check of the three-cycle 0 -> 1 -> -s -> 0."""
    poly, par = cubic_family(s)
    return poly(Q(0)) == 1 and poly(Q(1)) == -par.s and poly(-par.s) == 0


def critical_value_direct(s) -> Fraction:
    poly, par = cubic_family(s)
    return poly(par.c_s)


def critical_value_factored(s) -> Fraction:
    s = s if isinstance(s, Fraction) else Q(s)
    p = s**4 + s**3 - 3 * s - 2
    q = 4 * s**4 + 4 * s**3 - 3 * s + 1
    return -(p * p * q) / (27 * s * s * (s + 1) * (s**3 + s * s - 1) ** 2)


def critical_value(s) -> Fraction:
    """F_s at the free critical point; direct and factored forms must agree."""
    direct = critical_value_direct(s)
    factored = critical_value_factored(s)
    if direct != factored:
        raise ArithmeticError("direct and factored critical values disagree at s=%s" % s)
    return direct


def s_star_polynomial() -> RealPoly:
    """p(s) = s^4 + s^3 - 3s - 2, whose root in (1, 2) is s_*."""
    return RealPoly((Q(-2), Q(-3), Q(0), Q(1), Q(1)))


@dataclass(frozen=True)
class SStar:
    value: float
    bracket: tuple[Fraction, Fraction]


def s_star(tol: float = 1e-9) -> SStar:
    """Bisected root of p(s) on [1, 2] with a sign-verified exact bracket."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = s_star_polynomial()
    lo, hi = Q(1), Q(2)
    if not (p(lo) < 0 < p(hi)):
        raise ArithmeticError("bracket [1, 2] does not straddle the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            lo = hi = mid
            break
        if v < 0:
            lo = mid
        else:
            hi = mid
    return SStar(float((lo + hi) / 2), (lo, hi))


# ---------------------------------------------------------------------------
# numerical layer
# ---------------------------------------------------------------------------


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-13) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BranchError("no sign change on [%r, %r]" % (lo, hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _real_roots_in(poly: RealPoly, lo: float, hi: float, samples: int = 600, tol: float = 1e-13) -> list[float]:
    """Simple roots of an exact polynomial in [lo, hi] by sign scan + bisection."""
    f = poly.float_fn()
    xs = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    vals = [f(x) for x in xs]
    roots = []
    for k in range(samples):
        if vals[k] == 0.0:
            roots.append(xs[k])
        elif (vals[k] > 0) != (vals[k + 1] > 0):
            roots.append(_bisect(f, xs[k], xs[k + 1], tol))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 10 * tol:
            out.append(r)
    return out


def two_cycle_polynomial(s) -> RealPoly:
    """(F(F(x)) - x) / (F(x) - x): its real roots are genuine two-cycles."""
    poly, _ = cubic_family(s)
    g2 = poly.compose(poly) - IDENTITY
    return g2.divide_exactly(poly - IDENTITY)


def filled_julia_endpoints(s, tol: float = 1e-12) -> tuple[float, float]:
    """Outermost real boundary pair [alpha, beta], swapped by F_s.

    Solves F^2(x) = x with the fixed points removed, takes the extremal
    two-cycle, and verifies forward invariance of [alpha, beta].
    """
    poly, par = cubic_family(s)
    f = poly.float_fn()
    sextic = two_cycle_polynomial(s)
    bound = 1.0 + max(abs(float(c)) for c in sextic.coeffs[:-1]) / abs(float(sextic.coeffs[-1]))
    roots = _real_roots_in(sextic, -bound, bound, tol=tol)
    if len(roots) < 2:
        raise BranchError("no bounded invariant interval found at s=%s" % s)
    alpha, beta = min(roots), max(roots)
    if abs(f(alpha) - beta) > 1e-6 or abs(f(beta) - alpha) > 1e-6:
        raise BranchError("extremal roots do not form a two-cycle at s=%s" % s)
    crit_vals = [f(float(par.c_s)), f(0.0)]
    lo_img = min(alpha, beta, *crit_vals)
    hi_img = max(alpha, beta, *crit_vals)
    pad = 1e-9 * (beta - alpha)
    if lo_img < alpha - pad or hi_img > beta + pad:
        raise BranchError("interval [alpha, beta] is not forward invariant at s=%s" % s)
    return alpha, beta


def _preimages(f, lap_bounds: Sequence[float], y: float, tol: float) -> list[float]:
    """Solutions of f(x) = y, one bisection per monotone lap."""
    out = []
    for lo, hi in zip(lap_bounds, lap_bounds[1:]):
        flo, fhi = f(lo) - y, f(hi) - y
        if flo == 0.0:
            out.append(lo)
            continue
        if fhi == 0.0:
            out.append(hi)
            continue
        if (flo > 0) != (fhi > 0):
            out.append(_bisect(lambda x: f(x) - y, lo, hi, tol))
    return out


@dataclass(frozen=True)
class PeriodicCount:
    n: int
    count: int
    flagged: tuple[float, ...] = ()


def count_periodic(s, n: int, tol: float = 1e-12) -> PeriodicCount:
    """Number of solutions of F_s^n(x) = x on the invariant interval.

    Lap endpoints of F^n are the iterated preimages of the critical points;
    on each lap the iterate is monotone and sign changes of F^n(x) - x are
    bisected.  Root clusters are deduplicated at 1e-9 times the interval
    length, so a superattracting cycle contributes each point once.
    A sample with |g| below the flag threshold is counted as a root and,
    unless it is an endpoint of the interval, listed in `flagged`; no
    further check certifies it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    poly, par = cubic_family(s)
    f = poly.float_fn()
    alpha, beta = filled_julia_endpoints(s, tol)
    span = beta - alpha
    c = float(par.c_s)
    lap_bounds = [alpha, c, 0.0, beta]

    level = [x for x in (c, 0.0) if alpha <= x <= beta]
    endpoints = set(level) | {alpha, beta}
    for _ in range(n - 1):
        nxt: list[float] = []
        for y in level:
            nxt.extend(x for x in _preimages(f, lap_bounds, y, tol) if alpha - tol <= x <= beta + tol)
        level = nxt
        endpoints.update(level)

    eps = sorted(endpoints)
    merged = []
    for x in eps:
        if not merged or x - merged[-1] > 1e-11 * span:
            merged.append(x)

    def g(x: float) -> float:
        for _ in range(n):
            x = f(x)
        return x

    dedupe = 1e-9 * span
    flag_eps = 1e-10 * span
    roots: list[float] = []
    flagged: list[float] = []

    def add_root(x: float):
        for r in roots:
            if abs(x - r) <= dedupe:
                return
        roots.append(x)

    # the boundary pair is a two-cycle by construction; iterate counting
    # through it would amplify float error, so it is counted directly
    if n % 2 == 0:
        add_root(alpha)
        add_root(beta)

    # one global scan: lap endpoints plus interior samples, so roots sitting
    # exactly on a lap endpoint are caught by the sign change across it
    grid: list[float] = []
    per_lap = 33
    for lo, hi in zip(merged, merged[1:]):
        grid.append(lo)
        if hi - lo > 2 * dedupe:
            grid.extend(lo + (hi - lo) * (k + 1) / (per_lap + 1) for k in range(per_lap))
    grid.append(merged[-1])
    vals = [g(x) - x for x in grid]

    for x, v in zip(grid, vals):
        if abs(v) <= flag_eps:
            # reliable only where the iterate is not expanding the error
            # away from an actual zero; record interior hits for review
            add_root(x)
            if x not in (alpha, beta):
                flagged.append(x)
    for k in range(len(grid) - 1):
        va, vb = vals[k], vals[k + 1]
        if abs(va) <= flag_eps or abs(vb) <= flag_eps:
            continue
        if (va > 0) != (vb > 0):
            add_root(_bisect(lambda x: g(x) - x, grid[k], grid[k + 1], tol))

    return PeriodicCount(n, len(roots), tuple(flagged))


# ---------------------------------------------------------------------------
# inverse-branch system for the Fibonacci repeller
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("empty interval")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval", margin: float = 0.0) -> bool:
        return self.lo + margin <= other.lo and other.hi <= self.hi - margin

    def disjoint(self, other: "Interval", margin: float = 0.0) -> bool:
        return self.hi + margin < other.lo or other.hi + margin < self.lo


@dataclass
class BranchSystem:
    """Base interval J with sub-intervals J1, J2 and the inverse branches
    phi1 = (F^2 | J1-region)^-1 and phi2 = (F | J2-region)^-1, realized by
    monotone bisection inversion."""

    s: Fraction
    base: Interval
    j1: Interval
    j2: Interval
    k1: Interval
    k2: Interval
    cycle: tuple[float, float, float]  # repelling orbit p0 -> p1 -> p2
    ell0: float
    ell1: float
    tol: float
    _f: Callable[[float], float] = field(repr=False, default=None)

    def phi2(self, y: float) -> float:
        """Inverse of F on the J2 side (F decreasing there)."""
        return _bisect(lambda x: self._f(x) - y, self.j2.lo - 4 * self.tol, self.j2.hi + 4 * self.tol, self.tol)

    def phi1(self, y: float) -> float:
        """Inverse of F^2 on the J1 side (F^2 decreasing there)."""
        return _bisect(lambda x: self._f(self._f(x)) - y, self.j1.lo - 4 * self.tol, self.j1.hi + 4 * self.tol, self.tol)

    def apply_word(self, word: str, interval: Interval) -> Interval:
        """Image of an interval under the branch composition for a word
        over {1, 2}, outermost symbol first."""
        lo, hi = interval.lo, interval.hi
        for sym in reversed(word):
            phi = self.phi1 if sym == "1" else self.phi2
            a, b = phi(lo), phi(hi)
            lo, hi = min(a, b), max(a, b)
        return Interval(lo, hi)


def repelling_three_cycle(s, tol: float = 1e-12) -> tuple[float, float, float]:
    """The repelling period-three orbit p0 -> p1 -> p2.

    F^3(x) - x is deflated exactly by the fixed-point factor F(x) - x and by
    x(x-1)(x+s) for the superattracting critical cycle; the residual's real
    roots in (-s, 1) are the orbit, avoiding every spurious root.
    """
    poly, par = cubic_family(s)
    g3 = poly.compose(poly).compose(poly) - IDENTITY
    residual = g3.divide_exactly(poly - IDENTITY)
    crit_factor = RealPoly(poly_mul(poly_mul((Q(0), Q(1)), (Q(-1), Q(1))), (par.s, Q(1))))
    residual = residual.divide_exactly(crit_factor)
    roots = _real_roots_in(residual, float(-par.s), 1.0, samples=800, tol=tol)
    roots = [r for r in roots if float(-par.s) < r < 1.0]
    if len(roots) != 3:
        raise BranchError("expected 3 repelling period-3 points in (-s, 1), got %d" % len(roots))
    p2, p0, p1 = roots
    f = poly.float_fn()
    for x, y in ((p0, p1), (p1, p2), (p2, p0)):
        if abs(f(x) - y) > 1e-7:
            raise BranchError("period-3 points do not map cyclically")
    return p0, p1, p2


def build_branch_system(s, tol: float = 1e-13) -> BranchSystem:
    """Construct J, J1, J2 and the inverse branches around the repeller.

    ell0 and ell1 sit at the midpoints of their admissible intervals; the
    containment and disjointness invariants are verified at tolerance and
    violation is an error (degenerate parameter).
    """
    poly, par = cubic_family(s)
    f = poly.float_fn()
    p0, p1, p2 = repelling_three_cycle(s, tol)
    ms = float(-par.s)

    ell0 = 0.5 * (ms + p2)
    f1, f2, f3 = f(ell0), f(f(ell0)), f(f(f(ell0)))
    if not (ms < f3 < ell0):
        raise BranchError("ell0 midpoint violates the basin invariant at s=%s" % s)
    ell1 = 0.5 * (f3 + ell0)
    base = Interval(f3, f(f(ell1)))
    # symmetric point of F(ell0): same image, on the other side of 0
    perp = _bisect(lambda x: f(x) - f2, float(par.c_s), 0.0, tol)
    j1 = Interval(ell1, perp)
    j2 = Interval(f(ell1), f2)
    if not (base.contains(j1, margin=4 * tol) and base.contains(j2, margin=4 * tol)):
        raise BranchError("sub-intervals escape the base interval at s=%s" % s)
    if not j1.disjoint(j2, margin=4 * tol):
        raise BranchError("sub-intervals overlap at s=%s" % s)
    if j1.lo <= 0.0 <= j1.hi or j2.lo <= 0.0 <= j2.hi:
        raise BranchError("free critical point inside a sub-interval at s=%s" % s)

    gap = min(j2.lo - j1.hi, j1.lo - base.lo, base.hi - j2.hi, -j1.hi, j2.lo) / 4
    k1 = Interval(j1.lo - gap, j1.hi + gap)
    k2 = Interval(j2.lo - gap, j2.hi + gap)
    if not (base.contains(k1) and base.contains(k2) and k1.disjoint(k2)):
        raise BranchError("enlargements violate containment at s=%s" % s)
    if k1.lo <= 0.0 <= k1.hi or k2.lo <= 0.0 <= k2.hi:
        raise BranchError("free critical point inside an enlargement at s=%s" % s)

    return BranchSystem(
        s=par.s, base=base, j1=j1, j2=j2, k1=k1, k2=k2,
        cycle=(p0, p1, p2), ell0=ell0, ell1=ell1, tol=tol, _f=f,
    )


@dataclass(frozen=True)
class RepellerPiece:
    word: str
    collapsed: str
    interval: Interval


def repeller_pieces(s, depth: int, tol: float = 1e-13) -> list[RepellerPiece]:
    """One interval per admissible word of the given length.

    The piece for w applies one inverse branch per symbol (phi1 for 1, phi2
    for 2), which is the branch image of the step expansion of w under the
    collapse map: a 1 pins two itinerary steps, a 2 pins one.  Collapsing a
    word with a trailing 1 would instead reuse the parent's interval
    verbatim (the two cylinders coincide as sets), so the per-symbol form is
    used to make every depth a strict refinement; pieces are pairwise
    disjoint and their maximal diameter strictly decreases with depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > 12:
        raise ValueError("depth capped at 12")
    bs = build_branch_system(s, tol)
    pieces = []
    for w in fib_language(depth):
        pieces.append(RepellerPiece(w, vee_map(w), bs.apply_word(w, bs.base)))
    return pieces
