"""The one-parameter cubic family F_s(x) = a(s) x^3 + b(s) x^2 + 1.

Exact rational identities (critical orbit, critical value in direct and
factored form), the distinguished parameter s_* as a bisected root, and the
numerical layer: filled-Julia endpoints, periodic-point counting on laps of
iterates, and the Fibonacci repeller tracked through monotone inverse
branches.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Sequence

# re-exported: `cubic report` tests its repeller pieces with cubicfam.pairwise_disjoint
from ._value import Value, pairwise_disjoint
from .series import Q, poly_compose, poly_divmod, poly_eval, poly_mul, poly_sub
from .subshift import fib_language, vee_map


class BranchError(RuntimeError):
    """Inverse-branch construction or inversion failed."""


class CubicParam(NamedTuple):
    """Parameter s with the derived coefficients and free critical point."""

    s: Fraction
    a: Fraction
    b: Fraction
    c_s: Fraction


# the most bits, max(p, q).bit_length(), of a parameter s = p/q: every cubic
# command composes F_s exactly, at a cost that grows about as the square of
# the bits.  At 1024 bits, fresh processes took 1.5-1.8 s for `cubic repeller
# --depth 12`, 3.4-4.1 s for `cubic report --nmax 16 --depth 12`, 0.9-1.1 s
# for `cubic count --n 16`, and 3.0-4.1 s for an 80-step `cubic sweep` with
# 1020-1022-bit inner parameters; at 2000 bits `cubic repeller --depth 2`
# took 3.9 s and such a sweep 8.0 s
MAX_PARAM_BITS = 1024


def _params(s) -> CubicParam:
    s = s if isinstance(s, Fraction) else Q(s)
    if s < 1:
        raise ValueError("parameter s must be >= 1")
    bits = max(s.numerator, s.denominator).bit_length()
    if bits > MAX_PARAM_BITS:
        raise ValueError("a %d-bit parameter s, capped at %d bits" % (bits, MAX_PARAM_BITS))
    w = 1 / (s * s * (s + 1))
    a = -1 + w
    b = -s - w
    return CubicParam(s, a, b, -Q(2, 3) * b / a)


def cubic_family(s) -> tuple[tuple[Fraction, ...], CubicParam]:
    """F_s as exact coefficients, lowest first, together with its derived
    parameters."""
    par = _params(s)
    return (Q(1), Q(0), par.b, par.a), par


def verify_critical_orbit(s) -> bool:
    """Exact check of the three-cycle 0 -> 1 -> -s -> 0."""
    poly, par = cubic_family(s)
    return poly_eval(poly, Q(0)) == 1 and poly_eval(poly, Q(1)) == -par.s and poly_eval(poly, -par.s) == 0


def critical_value_direct(s) -> Fraction:
    poly, par = cubic_family(s)
    return poly_eval(poly, par.c_s)


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


def s_star_polynomial() -> tuple[Fraction, ...]:
    """p(s) = s^4 + s^3 - 3s - 2, whose root in (1, 2) is s_*."""
    return (Q(-2), Q(-3), Q(0), Q(1), Q(1))


class SStar(NamedTuple):
    value: float
    bracket: tuple[Fraction, Fraction]


def s_star(tol: float = 1e-9) -> SStar:
    """Bisected root of p(s) on [1, 2] with a sign-verified exact bracket."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = s_star_polynomial()
    lo, hi = Q(1), Q(2)
    if not (poly_eval(p, lo) < 0 < poly_eval(p, hi)):
        raise ArithmeticError("bracket [1, 2] does not straddle the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
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

# The layer's two fixed tolerances: the root bisections of the invariant
# interval, the preimage tree and counting stop at _COUNT_TOL; those of the
# inverse-branch system stop at _BRANCH_TOL, and its containment margins are
# 4 * _BRANCH_TOL.  Other values change counts or flagged samples, or refuse
# valid parameters.
_COUNT_TOL = 1e-12
_BRANCH_TOL = 1e-13


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
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


def _sign_change_roots(g: Callable[[float], float], xs: Sequence[float], tol: float) -> list[float]:
    """Roots of g located from its values at the nodes xs: each node where g
    is zero, and a bisection to tol between adjacent nonzero nodes where g
    changes sign."""
    vals = [g(x) for x in xs]
    roots = []
    for k, v in enumerate(vals):
        if v == 0.0:
            roots.append(xs[k])
        elif k + 1 < len(vals) and vals[k + 1] != 0.0 and (v > 0) != (vals[k + 1] > 0):
            roots.append(_bisect(g, xs[k], xs[k + 1], tol))
    return roots


def _float_horner(p) -> Callable[[float], float]:
    """p on floats: Horner's rule on its coefficients rounded to floats,
    the IEEE steps of `poly_eval(p, x)` at a float x."""
    cs = [float(c) for c in reversed(p)]

    def f(x: float) -> float:
        acc = 0.0
        for c in cs:
            acc = acc * x + c
        return acc

    return f


def _real_roots_in(p, lo: float, hi: float, tol: float, samples: int = 600) -> list[float]:
    """Simple roots of an exact polynomial in [lo, hi] by sign scan + bisection."""
    xs = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    out: list[float] = []
    for r in _sign_change_roots(_float_horner(p), xs, tol):
        if not out or abs(r - out[-1]) > 10 * tol:
            out.append(r)
    return out


def _exact_quotient(p, q) -> tuple[Fraction, ...]:
    """p / q, which must leave no remainder."""
    quot, rem = poly_divmod(p, q)
    if rem:
        raise ValueError("division is not exact")
    return quot


def two_cycle_polynomial(s) -> tuple[Fraction, ...]:
    """(F(F(x)) - x) / (F(x) - x): its real roots are genuine two-cycles."""
    poly, _ = cubic_family(s)
    return _exact_quotient(poly_sub(poly_compose(poly, poly), (0, 1)), poly_sub(poly, (0, 1)))


def _float_map(par: CubicParam) -> Callable[[float], float]:
    """F_s on floats.  For finite x it is bit-identical to `_float_horner`
    of the exact polynomial (1, 0, b, a): the Horner steps 0*x + a and + 0
    are exact."""
    a, b = float(par.a), float(par.b)

    def f(x: float) -> float:
        return (a * x + b) * x * x + 1.0

    return f


def filled_julia_endpoints(s) -> tuple[float, float]:
    """Outermost real boundary pair [alpha, beta], swapped by F_s.

    Solves F^2(x) = x with the fixed points removed, takes the extremal
    two-cycle, and verifies forward invariance of [alpha, beta].
    """
    par = _params(s)
    f = _float_map(par)
    sextic = two_cycle_polynomial(s)
    bound = 1.0 + max(abs(float(c)) for c in sextic[:-1]) / abs(float(sextic[-1]))
    roots = _real_roots_in(sextic, -bound, bound, _COUNT_TOL)
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


class PeriodicCount(NamedTuple):
    n: int
    count: int
    flagged: tuple[float, ...] = ()


def _lap_endpoints(par: CubicParam, alpha: float, beta: float) -> Iterator[set[float]]:
    """The lap endpoints of F, F^2, F^3, ... in turn: the n-th set holds
    alpha, beta and the critical points with their preimages of order < n.
    One preimage tree, extended by a level per step; the same set is
    yielded each time, so read it before advancing."""
    f = _float_map(par)
    c = float(par.c_s)
    lap_bounds = [alpha, c, 0.0, beta]
    level = [x for x in (c, 0.0) if alpha <= x <= beta]
    endpoints = set(level) | {alpha, beta}
    while True:
        yield endpoints
        nxt: list[float] = []
        for y in level:
            # the solutions of F(x) = y on the monotone laps of F
            roots = _sign_change_roots(lambda x: f(x) - y, lap_bounds, _COUNT_TOL)
            nxt.extend(x for x in roots if alpha - _COUNT_TOL <= x <= beta + _COUNT_TOL)
        level = nxt
        endpoints.update(level)


def _count_on_laps(par: CubicParam, n: int, alpha: float, beta: float, endpoints: set[float]) -> PeriodicCount:
    """Solutions of F^n(x) = x, from one streamed scan of the laps of F^n."""
    span = beta - alpha
    merged = []
    for x in sorted(endpoints):
        if not merged or x - merged[-1] > 1e-11 * span:
            merged.append(x)

    # F_s of _float_map inlined: the scan evaluates it about 500k times at n = 12
    a, b = float(par.a), float(par.b)

    def g(x: float) -> float:
        for _ in range(n):
            x = (a * x + b) * x * x + 1.0
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
    def grid() -> Iterator[float]:
        per_lap = 33
        for lo, hi in zip(merged, merged[1:]):
            yield lo
            if hi - lo > 2 * dedupe:
                for k in range(per_lap):
                    yield lo + (hi - lo) * (k + 1) / (per_lap + 1)
        yield merged[-1]

    # only the near-zero samples and the sign changes between two samples
    # that are not near zero are kept
    hits: list[float] = []
    brackets: list[tuple[float, float]] = []
    prev = prev_v = None
    for x in grid():
        v = g(x) - x
        if abs(v) <= flag_eps:
            hits.append(x)
        elif prev_v is not None and abs(prev_v) > flag_eps and (prev_v > 0) != (v > 0):
            brackets.append((prev, x))
        prev, prev_v = x, v

    for x in hits:
        # reliable only where the iterate is not expanding the error
        # away from an actual zero; record interior hits for review
        add_root(x)
        if x not in (alpha, beta):
            flagged.append(x)
    for lo, hi in brackets:
        add_root(_bisect(lambda x: g(x) - x, lo, hi, _COUNT_TOL))

    return PeriodicCount(n, len(roots), tuple(flagged))


# the largest repeller depth and counted period (n, or nmax for a run of
# them): the laps of F^n grow like 1.618^n, and at s = 6/5 counting took
# 0.12, 0.32, 0.98, 3.41 s for n = 12, 14, 16, 18
CAPS = {"depth": 12, "n": 16, "nmax": 16}


def check_size(name: str, value: int) -> None:
    """Refuse a depth or period outside 1..CAPS[name], before any work."""
    if value < 1:
        raise ValueError("%s must be >= 1" % name)
    if value > CAPS[name]:
        raise ValueError("%s capped at %d" % (name, CAPS[name]))


def count_periodic(s, n: int) -> PeriodicCount:
    """Number of solutions of F_s^n(x) = x on the invariant interval.

    Lap endpoints of F^n are the iterated preimages of the critical points;
    on each lap the iterate is monotone and sign changes of F^n(x) - x are
    bisected.  Root clusters are deduplicated at 1e-9 times the interval
    length, so a superattracting cycle contributes each point once.
    A sample with |g| below the flag threshold is counted as a root and,
    unless it is an endpoint of the interval, listed in `flagged`; no
    further check certifies it.
    """
    check_size("n", n)
    par = _params(s)
    alpha, beta = filled_julia_endpoints(s)
    endpoints = next(islice(_lap_endpoints(par, alpha, beta), n - 1, None))
    return _count_on_laps(par, n, alpha, beta, endpoints)


def periodic_counts(s, nmax: int) -> tuple[float, float, list[PeriodicCount]]:
    """The invariant interval [alpha, beta] = `filled_julia_endpoints(s)` and
    `count_periodic(s, n)` for n = 1..nmax, from one preimage tree on it."""
    check_size("nmax", nmax)
    par = _params(s)
    alpha, beta = filled_julia_endpoints(s)
    laps = _lap_endpoints(par, alpha, beta)
    return alpha, beta, [_count_on_laps(par, n, alpha, beta, next(laps)) for n in range(1, nmax + 1)]


# ---------------------------------------------------------------------------
# inverse-branch system for the Fibonacci repeller
# ---------------------------------------------------------------------------


class Interval(Value):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError("empty interval")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval", margin: float = 0.0) -> bool:
        return self.lo + margin <= other.lo and other.hi <= self.hi - margin

    def disjoint(self, other: "Interval", margin: float = 0.0) -> bool:
        return self.hi + margin < other.lo or other.hi + margin < self.lo


class BranchSystem(NamedTuple):
    """Base interval J with sub-intervals J1, J2 and the inverse branches
    phi1 = (F^2 | J1-region)^-1 and phi2 = (F | J2-region)^-1, realized by
    monotone bisection inversion with the float map f.

    ``cycle`` is the repelling orbit p0 -> p1 -> p2."""

    s: Fraction
    base: Interval
    j1: Interval
    j2: Interval
    k1: Interval
    k2: Interval
    cycle: tuple[float, float, float]
    ell0: float
    ell1: float
    f: Callable[[float], float]

    def phi2(self, y: float) -> float:
        """Inverse of F on the J2 side (F decreasing there)."""
        m = 4 * _BRANCH_TOL
        return _bisect(lambda x: self.f(x) - y, self.j2.lo - m, self.j2.hi + m, _BRANCH_TOL)

    def phi1(self, y: float) -> float:
        """Inverse of F^2 on the J1 side (F^2 decreasing there)."""
        m = 4 * _BRANCH_TOL
        return _bisect(lambda x: self.f(self.f(x)) - y, self.j1.lo - m, self.j1.hi + m, _BRANCH_TOL)


def repelling_three_cycle(s) -> tuple[float, float, float]:
    """The repelling period-three orbit p0 -> p1 -> p2.

    F^3(x) - x is deflated exactly by the fixed-point factor F(x) - x and by
    x(x-1)(x+s) for the superattracting critical cycle; the residual's real
    roots in (-s, 1) are the orbit, avoiding every spurious root.
    """
    poly, par = cubic_family(s)
    g3 = poly_sub(poly_compose(poly_compose(poly, poly), poly), (0, 1))
    residual = _exact_quotient(g3, poly_sub(poly, (0, 1)))
    crit_factor = poly_mul(poly_mul((Q(0), Q(1)), (Q(-1), Q(1))), (par.s, Q(1)))
    residual = _exact_quotient(residual, crit_factor)
    roots = _real_roots_in(residual, float(-par.s), 1.0, _BRANCH_TOL, samples=800)
    roots = [r for r in roots if float(-par.s) < r < 1.0]
    if len(roots) != 3:
        raise BranchError("expected 3 repelling period-3 points in (-s, 1), got %d" % len(roots))
    p2, p0, p1 = roots
    f = _float_map(par)
    for x, y in ((p0, p1), (p1, p2), (p2, p0)):
        if abs(f(x) - y) > 1e-7:
            raise BranchError("period-3 points do not map cyclically")
    return p0, p1, p2


def build_branch_system(s) -> BranchSystem:
    """Construct J, J1, J2 and the inverse branches around the repeller.

    ell0 and ell1 sit at the midpoints of their admissible intervals; the
    containment and disjointness invariants are verified at tolerance and
    violation is an error (degenerate parameter).
    """
    par = _params(s)
    f = _float_map(par)
    p0, p1, p2 = repelling_three_cycle(s)
    ms = float(-par.s)

    ell0 = 0.5 * (ms + p2)
    f1, f2, f3 = f(ell0), f(f(ell0)), f(f(f(ell0)))
    if not (ms < f3 < ell0):
        raise BranchError("ell0 midpoint violates the basin invariant at s=%s" % s)
    ell1 = 0.5 * (f3 + ell0)
    base = Interval(f3, f(f(ell1)))
    # symmetric point of F(ell0): same image, on the other side of 0
    perp = _bisect(lambda x: f(x) - f2, float(par.c_s), 0.0, _BRANCH_TOL)
    j1 = Interval(ell1, perp)
    j2 = Interval(f(ell1), f2)
    margin = 4 * _BRANCH_TOL
    if not (base.contains(j1, margin) and base.contains(j2, margin)):
        raise BranchError("sub-intervals escape the base interval at s=%s" % s)
    if not j1.disjoint(j2, margin):
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
        cycle=(p0, p1, p2), ell0=ell0, ell1=ell1, f=f,
    )


class RepellerPiece(NamedTuple):
    word: str
    collapsed: str
    interval: Interval


def repeller_pieces(s, depth: int) -> list[RepellerPiece]:
    """One interval per admissible word of the given length.

    The piece for w applies one inverse branch per symbol (phi1 for 1, phi2
    for 2), which is the branch image of the step expansion of w under the
    collapse map: a 1 pins two itinerary steps, a 2 pins one.  Collapsing a
    word with a trailing 1 would instead reuse the parent's interval
    verbatim (the two cylinders coincide as sets), so the per-symbol form is
    used to make every depth a strict refinement; pieces are pairwise
    disjoint and their maximal diameter strictly decreases with depth.

    The last symbol acts first, so piece(w) = phi_{w[0]}(piece(w[1:])).
    Admissible words are closed under suffixes, and each depth is built
    from the one below: two branch inversions per piece of every depth.
    """
    check_size("depth", depth)
    bs = build_branch_system(s)
    phi = {"1": bs.phi1, "2": bs.phi2}

    def image(w: str, lo: float, hi: float) -> tuple[float, float]:
        a, b = phi[w[0]](lo), phi[w[0]](hi)
        return min(a, b), max(a, b)

    level = {"": (bs.base.lo, bs.base.hi)}
    for k in range(1, depth + 1):
        level = {w: image(w, *level[w[1:]]) for w in fib_language(k)}
    return [RepellerPiece(w, vee_map(w), Interval(lo, hi)) for w, (lo, hi) in level.items()]
