"""Exact calculus on marked-orbit combinatorics vectors and their PL models.

A combinatorics is an integer vector rho in {0..n}^(n+1) recording where a
map sends each of n+1 marked points; its piecewise-linear model connects
the dots over [0, n].  This module provides the validity predicates, orbit
and classification machinery, the virtually-unimodal test, exact
periodic-orbit enumeration on PL models, and the marked-orbit construction
of virtually unimodal combinatorics with the family it generates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from ._value import Value

Q = Fraction


class Combinatorics(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        n = len(entries) - 1
        if n < 1:
            raise ValueError("need at least two entries")
        for i, e in enumerate(entries):
            if type(e) is not int or not (0 <= e <= n):
                raise ValueError("entry %r at position %d is out of {0..%d}" % (e, i, n))
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _as_comb(rho) -> Combinatorics:
    if isinstance(rho, Combinatorics):
        return rho
    return Combinatorics(tuple(rho))


class PLModel(Value):
    """Connect-the-dots model of a combinatorics vector on [0, n].

    Affine with integer slope rho[j+1] - rho[j] on each [j, j+1]; exact on
    rational inputs, and maps [0, n] into itself.
    """

    __slots__ = ("rho",)

    def __init__(self, rho: Combinatorics):
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.rho.n

    def slope(self, lap: int) -> int:
        return self.rho[lap + 1] - self.rho[lap]

    def __call__(self, x):
        """F(x), exact: an int for an int x, a Fraction otherwise."""
        if not isinstance(x, (int, Fraction)):
            x = Q(x)
        if not (0 <= x <= self.n):
            raise ValueError("evaluation point %s outside [0, %d]" % (x, self.n))
        if isinstance(x, int):
            return self.rho[x]
        if x.denominator == 1:  # the model takes the value rho[k] at k
            return Q(self.rho[x.numerator])
        j = int(x)
        return (self.rho[j + 1] - self.rho[j]) * (x - j) + self.rho[j]


def pl_model(rho) -> PLModel:
    return PLModel(_as_comb(rho))


class PMCheck(NamedTuple):
    ok: bool
    witness: int | None = None  # first index with rho[i] == rho[i+1]

    def __bool__(self):
        return self.ok


def is_pm(rho) -> PMCheck:
    """Adjacent entries must differ for the PL model to be piecewise monotone."""
    rho = _as_comb(rho)
    for i in range(rho.n):
        if rho[i] == rho[i + 1]:
            return PMCheck(False, i)
    return PMCheck(True)


def turning_points(rho) -> list[int]:
    """Interior indices where the slope sign of the PL model flips."""
    rho = _as_comb(rho)
    if not is_pm(rho):
        raise ValueError("combinatorics has equal adjacent entries")
    out = []
    for i in range(1, rho.n):
        left = rho[i] - rho[i - 1]
        right = rho[i + 1] - rho[i]
        if (left > 0) != (right > 0):
            out.append(i)
    return out


class OrbitInfo(NamedTuple):
    preperiod: int
    cycle: tuple


def eventual_path(step, x) -> tuple[list, int]:
    """The points x, step(x), ... up to the first repeat, and the index at
    which the cycle starts: the path is the preperiod followed by one cycle.

    Terminates whenever the orbit of x is finite.
    """
    seen: dict = {}
    path = []
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = step(x)
    return path, seen[x]


def _index_path(rho, i: int) -> tuple[list[int], int]:
    """The eventual path of index i under i -> rho[i]."""
    rho = _as_comb(rho)
    if not (0 <= i <= rho.n):
        raise ValueError("index out of range")
    return eventual_path(rho.entries.__getitem__, i)


def orbit(rho, i: int) -> OrbitInfo:
    """Forward orbit of index i under i -> rho[i]: preperiod plus cycle."""
    path, start = _index_path(rho, i)
    return OrbitInfo(preperiod=start, cycle=tuple(path[start:]))


def orbit_set(rho, i: int) -> frozenset[int]:
    return frozenset(_index_path(rho, i)[0])


class OwnCombinatoricsCheck(NamedTuple):
    """Outcome of the own-combinatorics test.

    On failure, ``induced`` is the re-marked combinatorics (marked set =
    boundary plus turning orbits, positions renumbered), and
    ``induced_labels`` presents the same induced map in the original index
    labels: boundary images at the ends, interior images sorted between.
    """

    ok: bool
    induced: Combinatorics | None = None
    induced_labels: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


def _marked_set(rho: Combinatorics) -> list[int]:
    # boundary orbits are included so the marked set is forward invariant
    # even for unframed vectors; for framed ones they add nothing
    marked = orbit_set(rho, 0) | orbit_set(rho, rho.n)
    for c in turning_points(rho):
        marked |= orbit_set(rho, c)
    return sorted(marked)


def induced_combinatorics(rho) -> Combinatorics:
    """Re-mark boundary plus turning orbits and renumber by position."""
    rho = _as_comb(rho)
    marked = _marked_set(rho)
    pos = {y: k for k, y in enumerate(marked)}
    return Combinatorics(tuple(pos[rho[y]] for y in marked))


def is_own_combinatorics(rho) -> OwnCombinatoricsCheck:
    """Every interior marked point must lie on a turning-point orbit."""
    rho = _as_comb(rho)
    covered = set()
    for c in turning_points(rho):
        covered |= orbit_set(rho, c)
    if set(range(1, rho.n)) <= covered:
        return OwnCombinatoricsCheck(True)
    marked = _marked_set(rho)
    interior = marked[1:-1]
    labels = (rho[marked[0]],) + tuple(sorted(rho[y] for y in interior)) + (rho[marked[-1]],)
    return OwnCombinatoricsCheck(False, induced_combinatorics(rho), labels)


def is_framed(rho) -> bool:
    """Boundary indices map into the boundary {0, n}."""
    rho = _as_comb(rho)
    return rho[0] in (0, rho.n) and rho[rho.n] in (0, rho.n)


def is_virtually_unimodal(rho) -> int | None:
    """Dominant turning point, if one exists.

    A turning point c is dominant when, for H = <F^2(c), F(c)>: the only
    turning point interior to H is c; F(H) = H, tested exactly on the marked
    points of H; and every turning orbit eventually enters H.  As F(H) = H,
    an orbit that meets H stays in it, so eventual entry is the orbit
    meeting H, which is what is checked; and the orbit of c, which starts
    inside H, stays in H.
    """
    rho = _as_comb(rho)
    if not is_own_combinatorics(rho):
        raise ValueError("combinatorics is not its own combinatorics")
    trn = turning_points(rho)
    for c in trn:
        fc = rho[c]
        lo, hi = sorted((rho[fc], fc))
        # for lo = hi no turning point lies strictly between them
        if [t for t in trn if lo < t < hi] != [c]:
            continue
        image = rho.entries[lo : hi + 1]
        if (min(image), max(image)) != (lo, hi):
            continue
        if all(any(lo <= p <= hi for p in orbit_set(rho, t)) for t in trn):
            return c
    return None


class PointClass(NamedTuple):
    """Fatou/Julia split of the marked points: Fatou means the orbit meets a
    turning point (every turning point is Fatou through its own orbit)."""

    fatou: frozenset[int]
    julia: frozenset[int]


def classify_points(rho) -> PointClass:
    rho = _as_comb(rho)
    trn = set(turning_points(rho))
    fatou = set()
    for i in range(rho.n + 1):
        if orbit_set(rho, i) & trn:
            fatou.add(i)
    return PointClass(frozenset(fatou), frozenset(range(rho.n + 1)) - frozenset(fatou))


class ExpandingCheck(NamedTuple):
    ok: bool
    witnesses: dict[int, int]  # Julia edge j -> first m with gap > 1
    cycling_edge: int | None = None

    def __bool__(self):
        return self.ok


def is_expanding(rho) -> ExpandingCheck:
    """Adjacent Julia points must separate to distance > 1 under iteration.

    Each Julia edge (j, j+1) is iterated as a pair on {0..n}^2; the finite
    state space means the pair either reaches gap > 1 (witness recorded) or
    revisits a state and can never separate.
    """
    rho = _as_comb(rho)
    cls = classify_points(rho)
    witnesses: dict[int, int] = {}
    for j in range(rho.n):
        if j not in cls.julia or (j + 1) not in cls.julia:
            continue
        a, b = j, j + 1
        seen = {(a, b)}
        m = 0
        witness = None
        while True:
            a, b = rho[a], rho[b]
            m += 1
            if abs(a - b) > 1:
                witness = m
                break
            if (a, b) in seen:
                break
            seen.add((a, b))
        if witness is None:
            return ExpandingCheck(False, witnesses, cycling_edge=j)
        witnesses[j] = witness
    return ExpandingCheck(True, witnesses)


def generate_vu(nu: int) -> Combinatorics:
    """The virtually unimodal combinatorics with nu turning points.

    `build_vu_from_periodic_points` applied to nu - 1 points of the base
    model's period-two orbit {5/3, 8/3}, alternating along the list and
    ending at 5/3: its marks are the turning orbit {1, 2, 3} and this orbit,
    and its dominant turning point is nu + 2.
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    two_cycle = (Q(5, 3), Q(8, 3))
    return build_vu_from_periodic_points([two_cycle[(nu - 1 - i) % 2] for i in range(1, nu)])


# ---------------------------------------------------------------------------
# exact periodic orbits of PL models
# ---------------------------------------------------------------------------


class DegenerateFamily(NamedTuple):
    """A lap word along which the p-th iterate is the identity: a whole
    interval of fixed points rather than isolated ones."""

    word: tuple[int, ...]
    interval: tuple[Fraction, Fraction]


class PeriodicOrbits(NamedTuple):
    period: int
    orbits: tuple[OrbitInfo, ...]
    degenerate: tuple[DegenerateFamily, ...]


def _itinerary_solutions(model: PLModel, p: int):
    """Solve F^p(x) = x lap word by lap word, exactly.

    Composes the affine branches along each word of laps, solves the fixed
    point equation, and keeps solutions whose forward orbit is consistent
    with the word.  Words whose composition is the identity are returned
    separately with their feasibility interval.  A flat lap would divide by
    a zero slope product, so the model must be piecewise monotone.
    """
    if not is_pm(model.rho):
        raise ValueError("model is not piecewise monotone")
    n = model.n
    slopes = [model.slope(j) for j in range(n)]
    intercepts = [Q(model.rho[j] - slopes[j] * j) for j in range(n)]
    solutions: set[Fraction] = set()
    degenerate: list[DegenerateFamily] = []

    def walk(word, s, b, lo, hi):
        # invariant: {x in [lo, hi]} follow `word` through closed laps, and
        # the composed branch along `word` is x -> s*x + b
        if len(word) == p:
            if s == 1:
                if b == 0:
                    if lo < hi:
                        degenerate.append(DegenerateFamily(word, (lo, hi)))
                    solutions.update((lo, hi))
                return
            x = b / (1 - s)
            if lo <= x <= hi:
                solutions.add(x)
            return
        for j in range(n):
            # next constraint: s*x + b in [j, j+1]
            if s > 0:
                nlo, nhi = max(lo, (j - b) / s), min(hi, (j + 1 - b) / s)
            else:
                nlo, nhi = max(lo, (j + 1 - b) / s), min(hi, (j - b) / s)
            if nlo <= nhi:
                walk(word + (j,), slopes[j] * s, slopes[j] * b + intercepts[j], nlo, nhi)

    walk((), Q(1), Q(0), Q(0), Q(n))
    return solutions, degenerate


def count_fixed_points_of_iterate(model: PLModel, p: int) -> int:
    """Number of isolated solutions of F^p(x) = x, exact."""
    if p < 1:
        raise ValueError("iterate must be >= 1")
    solutions, degenerate = _itinerary_solutions(model, p)
    if degenerate:
        raise ValueError("iterate has an interval of fixed points; count undefined")
    return len(solutions)


def periodic_orbits_of_pl(model: PLModel, p: int) -> PeriodicOrbits:
    """All orbits of minimal period p of the PL model, with exact points.

    Degenerate slope-product-1 lap words (intervals of fixed points) are
    reported, never silently dropped; their endpoints join the isolated
    solutions.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    solutions, degenerate = _itinerary_solutions(model, p)
    orbits = []
    seen: set[Fraction] = set()
    for x in sorted(solutions):
        if x in seen:
            continue
        cycle = eventual_path(model, x)[0]  # x is periodic: the path is its cycle
        seen.update(cycle)
        if len(cycle) == p:
            first = min(range(len(cycle)), key=lambda k: cycle[k])
            orbits.append(OrbitInfo(0, tuple(cycle[first:] + cycle[:first])))
    return PeriodicOrbits(p, tuple(orbits), tuple(degenerate))


# ---------------------------------------------------------------------------
# construction of virtually unimodal combinatorics from periodic points
# ---------------------------------------------------------------------------

BASE_UNIMODAL = Combinatorics((0, 2, 3, 1, 0))


def build_vu_from_periodic_points(points: Sequence[Fraction]) -> Combinatorics:
    """Marked-orbit construction over the base period-three unimodal model.

    Given periodic points k_1..k_{nu-1} of the base model in [1, 3] (with
    k_{nu-1} < 2, no two adjacent points equal, and strictly alternating
    sides along the list), marks their orbits together with the turning
    orbit {1, 2, 3}, records the induced map as positions, and frames the
    result with nu-1 new turning points whose images oscillate through the
    chosen points.  A result that is not piecewise monotone is refused.
    """
    pts = [x if isinstance(x, Fraction) else Q(x) for x in points]
    nu = len(pts) + 1
    model = pl_model(BASE_UNIMODAL)
    # integer slopes never grow a denominator, so every orbit is finite
    orbits = []
    for x in dict.fromkeys(pts):  # each distinct point is walked once
        if not (1 <= x <= 3):
            raise ValueError("point %s outside [1, 3]" % x)
        path, start = eventual_path(model, x)
        if start != 0:
            raise ValueError("point %s is not periodic for the base model" % x)
        orbits.append(path)
    if pts and pts[-1] >= 2:
        raise ValueError("last point must be < 2")
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("adjacent points must differ")
    sgn = [1 if a > b else -1 for a, b in zip(pts, pts[1:])]
    if any(a == b for a, b in zip(sgn, sgn[1:])):
        raise ValueError("points must alternate sides along the list")

    ys = sorted({Q(1), Q(2), Q(3)}.union(*orbits))
    n_prime = len(ys)
    pos = {y: k + 1 for k, y in enumerate(ys)}  # 1-based marks
    xi = [pos[model(y)] for y in ys]

    n = nu + n_prime
    entries = [0] * (n + 1)
    entries[0] = 0 if (nu - 1) % 2 == 0 else n
    for i in range(1, nu):
        entries[i] = nu + pos[pts[i - 1]] - 1
    for j in range(1, n_prime + 1):
        entries[nu + j - 1] = nu + xi[j - 1] - 1
    entries[n] = 0
    rho = Combinatorics(tuple(entries))
    pm = is_pm(rho)
    if not pm:
        raise ValueError("construction is not piecewise monotone: adjacent equal entries at %d" % pm.witness)
    return rho
