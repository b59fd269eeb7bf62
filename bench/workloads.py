"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of jobs.  The seed picks the parameters inside
each job while the number of jobs of each kind and cost class stays fixed,
so two seeds exercise the same layers with the same weight and their timings
are comparable.  The generators never call into ``intervalzeta``: the program
only ever sees the argv (or library arguments) built here.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

WORKLOADS = ("exact-kneading", "fib-tent", "cubic-numeric")

# placeholder in a `fib check` argv, filled with the slope printed by the
# `fib find-lambda` job named in `Job.after`
LAMBDA = "{lambda}"
# `Job.after` value inside a generator's unit: the job just before this one
PREVIOUS = -1


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``kind`` is ``<group>.<cmd>`` for a CLI job and ``lib.<name>`` for a
    direct library call.  ``expect`` holds the oracle parameters (see
    ``oracles.check``).  ``after`` is the index of an earlier job in the same
    list whose output this job consumes or is compared against.
    """

    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    expect: dict = field(default_factory=dict)
    after: int | None = None


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# combinatorics vectors, built here from their definitions
# ---------------------------------------------------------------------------

FULL_TENT = (0, 2, 0)
BASE_UNIMODAL = (0, 2, 3, 1, 0)
# own-combinatorics failure from the paper's worked examples
NOT_OWN = (0, 3, 4, 7, 6, 5, 2, 1, 0)


def vu_vector(nu: int) -> tuple[int, ...]:
    """The closed-form virtually unimodal vector with nu turning points:
    length nu+6; entry 0 is nu+5 for even nu, 0 for odd; entries 1..nu-1
    alternate between nu+3 and nu+1, ending at nu+1; entries nu..nu+4 are
    nu+2, nu+3, nu+4, nu+1, nu; the last entry is 0."""
    head = [nu + 5 if nu % 2 == 0 else 0]
    head += [nu + 1 if (nu - 1 - i) % 2 == 0 else nu + 3 for i in range(1, nu)]
    return tuple(head + [nu + 2, nu + 3, nu + 4, nu + 1, nu, 0])


def random_unimodal(rng: random.Random) -> tuple[int, ...]:
    """Increasing then decreasing vector with no equal neighbours."""
    n = rng.randint(3, 7)
    c = rng.randint(1, n - 1)
    top = rng.randint(max(c, n - c), n)
    up = sorted(rng.sample(range(0, top), c)) + [top]
    down = sorted(rng.sample(range(0, top), n - c), reverse=True)
    return tuple(up + down)


def _zeta_den(rho) -> list[int]:
    """Denominator of the Artin-Mazur zeta of a model used in mt-check jobs
    (numerator 1): Phi(t)(1-t^3)(1-t-t^2) for the generated VU vectors,
    (1-t)(1-t-t^2) for the base unimodal map, 1-2t for the full tent."""
    if rho == FULL_TENT:
        return [1, -2]
    if rho == BASE_UNIMODAL:
        return poly_mul([1, -1], [1, -1, -1])
    nu = len(rho) - 6
    phi = [1, 0, -1] if nu % 2 == 0 else [1, -1]
    return poly_mul(poly_mul(phi, [1, 0, 0, -1]), [1, -1, -1])


def poly_mul(p, q) -> list[int]:
    """Product of two integer polynomials, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _phi_factors(rho) -> list[int]:
    """Exponents p of the (1 - t^p) factors of 1/(zeta * D)."""
    if rho == FULL_TENT:
        return [1]
    if rho == BASE_UNIMODAL:
        return [1, 3]
    nu = len(rho) - 6
    return [2 if nu % 2 == 0 else 1, 3, 3]


# ---------------------------------------------------------------------------
# exact-kneading
# ---------------------------------------------------------------------------


def _det(rho, order: int) -> Job:
    return Job("knead.det", ("knead", "det", "--rho", _csv(rho), "--order", str(order)),
               expect={"rho": rho, "order": order})


def _mt(rho, order: int) -> Job:
    return Job(
        "zeta.mt-check",
        ("zeta", "mt-check", "--rho", _csv(rho), "--zeta-num", "1",
         "--zeta-den", _csv(_zeta_den(rho)), "--order", str(order)),
        expect={"rho": rho, "factors": _phi_factors(rho)},
    )


def exact_kneading(seed: int) -> list[list[Job]]:
    rng = random.Random("exact-kneading:%d" % seed)
    jobs: list[Job] = []
    # the determinants that set the tail: fixed models and orders, so every
    # seed carries the same heavy work
    for nu, order in ((5, 32), (4, 48), (3, 64), (2, 96)):
        jobs.append(_det(vu_vector(nu), order))
    for rho in (BASE_UNIMODAL, FULL_TENT):
        jobs.append(_det(rho, 192))
    for nu, order in ((4, 32), (3, 48), (2, 64)):
        jobs.append(_mt(vu_vector(nu), order))
    for rho in (BASE_UNIMODAL, FULL_TENT):
        jobs.append(_mt(rho, 128))
    # millisecond jobs, seeded
    for _ in range(12):
        jobs.append(_det(random_unimodal(rng), rng.randint(32, 48)))
    for _ in range(8):
        rho = rng.choice([FULL_TENT, BASE_UNIMODAL, vu_vector(2), vu_vector(3), random_unimodal(rng)])
        order = rng.randint(16, 40)
        jobs.append(Job("knead.matrix", ("knead", "matrix", "--rho", _csv(rho), "--order", str(order)),
                        expect={"rho": rho, "order": order}))
    for _ in range(16):
        prefix = [rng.choice((1, -1)) for _ in range(rng.randint(0, 4))]
        cycle = [rng.choice((1, -1)) for _ in range(rng.randint(1, 5))]
        order = rng.randint(16, 64)
        argv = ["knead", "unimodal", "--cycle=" + _csv(cycle), "--order", str(order)]
        if prefix:
            argv[2:2] = ["--prefix=" + _csv(prefix)]
        jobs.append(Job("knead.unimodal", tuple(argv),
                        expect={"prefix": prefix, "cycle": cycle, "order": order}))
    for _ in range(6):
        rho = rng.choice([vu_vector(rng.randint(2, 7)), BASE_UNIMODAL, FULL_TENT, (5, 2, 3, 4, 2, 0)])
        jobs.append(Job("comb.validate", ("comb", "validate", "--rho", _csv(rho)), expect={"rho": rho}))
    for _ in range(8):
        # a seeded vector with a forced pair of equal neighbours must be refused
        n = rng.randint(3, 9)
        rho = [rng.randint(0, n) for _ in range(n + 1)]
        i = rng.randrange(n)
        rho[i + 1] = rho[i]
        first = next(k for k in range(n) if rho[k] == rho[k + 1])
        jobs.append(Job("comb.validate", ("comb", "validate", "--rho", _csv(rho)),
                        expect={"code": 1, "reason": "adjacent equal entries at %d" % first, "rho": tuple(rho)}))
    jobs.append(Job("comb.validate", ("comb", "validate", "--rho", _csv(NOT_OWN)),
                    expect={"code": 1, "reason": "cycles outside turning orbits", "rho": NOT_OWN}))
    for _ in range(6):
        nu = rng.randint(2, 9)
        jobs.append(Job("comb.generate", ("comb", "generate", "--nu", str(nu)), expect={"nu": nu}))
    for _ in range(8):
        n = rng.randint(2, 12)
        rho = tuple(rng.randint(0, n) for _ in range(n + 1))
        index = rng.randint(0, n)
        jobs.append(Job("comb.orbit", ("comb", "orbit", "--rho", _csv(rho), "--index", str(index)),
                        expect={"rho": rho, "index": index}))
    for _ in range(8):
        k = rng.randint(2, 3)
        rows = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
        n = rng.randint(4, 12)
        text = ";".join(_csv(r) for r in rows)
        jobs.append(Job("zeta.sft", ("zeta", "sft", "--matrix", text, "--n", str(n)),
                        expect={"rows": rows, "n": n}))
    for _ in range(6):
        nu = rng.randint(2, 9)
        jobs.append(Job("zeta.closed-form", ("zeta", "closed-form", "--nu", str(nu)), expect={"nu": nu}))
    for _ in range(6):
        counts = [rng.randint(0, 9) for _ in range(rng.randint(6, 16))]
        jobs.append(Job("zeta.from-counts", ("zeta", "from-counts", "--counts", _csv(counts)),
                        expect={"counts": counts}))
    for _ in range(8):
        # primitive cycle, and a prefix that cannot be shortened
        period = rng.randint(1, 5)
        while True:
            cycle = [rng.randint(-2, 2) for _ in range(period)]
            if all(cycle != cycle[d:] + cycle[:d] for d in range(1, period)):
                break
        pre = rng.randint(0, 4)
        prefix = [rng.randint(-2, 2) for _ in range(pre)]
        if prefix and prefix[-1] == cycle[-1]:
            prefix[-1] = cycle[-1] + 3
        depth = 3 * (pre + 2 * period) + rng.randint(0, 6)
        coeffs = prefix + [cycle[i % period] for i in range(depth - pre)]
        jobs.append(Job("series.detect-period", ("series", "detect-period", "--coeffs=" + _csv(coeffs)),
                        expect={"preperiod": pre, "period": period, "depth": depth}))
    # direct library calls the CLI does not expose
    for rho, p in ((FULL_TENT, 8), (BASE_UNIMODAL, 8), (vu_vector(2), 6), (vu_vector(3), 6),
                   (vu_vector(4), 5), (vu_vector(5), 5)):
        jobs.append(Job("lib.fixed_points", call=(rho, p), expect={"rho": rho, "p": p}))
    for _ in range(2):
        rho = rng.choice([FULL_TENT, BASE_UNIMODAL, vu_vector(2), vu_vector(3)])
        p = rng.randint(1, 4)
        jobs.append(Job("lib.fixed_points", call=(rho, p), expect={"rho": rho, "p": p}))
    # expected failures: a zeta that does not match the model, a usage error
    for rho in (BASE_UNIMODAL, vu_vector(rng.randint(2, 3))):
        argv = ("zeta", "mt-check", "--rho", _csv(rho), "--zeta-num", "1", "--zeta-den", "1,-2",
                "--order", str(rng.randint(32, 48)))
        jobs.append(Job("zeta.mt-check", argv,
                        expect={"code": 1, "reason": "no cyclotomic factorization found", "rho": rho}))
    jobs.append(Job("knead.det", ("knead", "det", "--rho", _csv(FULL_TENT), "--order", str(rng.randint(1, 7))),
                    expect={"code": 2, "reason": "--order must be >= 8"}))
    return [[job] for job in jobs]


# ---------------------------------------------------------------------------
# fib-tent
# ---------------------------------------------------------------------------

# --kmax of each chain per pass, by depth.  find-lambda cost rises about
# tenfold per depth, so one depth-12 chain outweighs the rest of the pass.
# The largest --kmax per depth is the largest whose JSON output stays under
# Python's default limit on int-to-str digits (4300); see README.md.  A
# chain's inputs are just (depth, kmax), so the seed sets the chain order.
FIB_CHAINS = {12: (5,), 11: (5, 6), 10: (4, 5, 6, 7), 9: (3, 4, 5, 6) * 5}


def fib_tent(seed: int) -> list[list[Job]]:
    return [
        [
            Job("fib.find-lambda", ("fib", "find-lambda", "--depth", str(depth)), expect={"depth": depth}),
            Job("fib.check", ("fib", "check", "--lambda", LAMBDA, "--kmax", str(kmax)),
                expect={"kmax": kmax}, after=PREVIOUS),
        ]
        for depth, kmaxes in FIB_CHAINS.items()
        for kmax in kmaxes
    ]


# ---------------------------------------------------------------------------
# cubic-numeric
# ---------------------------------------------------------------------------


def _s(rng: random.Random, lo: int = 1000, hi: int = 1370) -> Fraction:
    return Fraction(rng.randint(lo, hi), 1000)


def cubic_numeric(seed: int) -> list[list[Job]]:
    rng = random.Random("cubic-numeric:%d" % seed)
    units: list[list[Job]] = []
    # counting is up to twice as slow for s below about 1.15 as above it, so
    # each n gets one s from each third of [1, 137/100]
    for n in range(1, 13):
        for lo, hi in ((1000, 1123), (1124, 1246), (1247, 1370)):
            s = _s(rng, lo, hi)
            units.append([Job("cubic.count", ("cubic", "count", "--s", str(s), "--n", str(n)),
                              expect={"s": s, "n": n})])
    for _ in range(4):
        a, b = sorted((_s(rng), _s(rng)))
        argv = ("cubic", "sweep", "--from", str(a), "--to", str(b), "--steps", "2")
        units.append([Job("cubic.sweep", argv, expect={"start": a, "stop": b, "steps": 2})])
    for nmax, depth in ((4, 8), (5, 7), (6, 6), (5, 8)):
        s = _s(rng)
        argv = ("cubic", "report", "--s", str(s), "--nmax", str(nmax), "--depth", str(depth))
        units.append([Job("cubic.report", argv, expect={"s": s, "nmax": nmax, "depth": depth})])
    # depth pairs on one parameter, so the oracle can check that the maximal
    # piece diameter shrinks with depth
    for depth in (6, 8, 10, 11):
        s = _s(rng)
        units.append([
            Job("cubic.repeller", ("cubic", "repeller", "--s", str(s), "--depth", str(d)),
                expect={"s": s, "depth": d}, after=None if d == depth else PREVIOUS)
            for d in (depth, depth + 1)
        ])
    return units


GENERATORS = {"exact-kneading": exact_kneading, "fib-tent": fib_tent, "cubic-numeric": cubic_numeric}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed, in run order.

    Generators return units (a job, or a chain whose later jobs depend on
    the job before them); the units are shuffled by the seed and each
    `after=PREVIOUS` becomes the absolute index of the preceding job.
    """
    units = GENERATORS[workload](seed)
    random.Random("%s:%d:order" % (workload, seed)).shuffle(units)
    jobs: list[Job] = []
    for unit in units:
        for job in unit:
            if job.after == PREVIOUS:
                job = replace(job, after=len(jobs) - 1)
            jobs.append(job)
    return jobs


def digest(jobs: list[Job]) -> str:
    """sha256 over the job list as the program sees it."""
    text = json.dumps([[j.kind, j.argv, j.call, j.after] for j in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mix(jobs: list[Job]) -> dict[str, int]:
    return dict(sorted(Counter(j.kind for j in jobs).items()))
