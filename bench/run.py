"""intervalzeta benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-kneading --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``intervalzeta`` from its
``src`` directory.  One client runs the workload's job list as a closed loop
in this process, pass after pass, until ``--seconds`` of passes have been
timed.  Each job calls ``intervalzeta.cli.main(argv)`` (or one library
function) and its captured output is checked: the first pass against the
oracles in ``oracles.py``, later passes byte for byte against the first.

``--trace 0`` prints the end-to-end metrics.  Their job latencies are in
reference units: each job's wall time divided by the time of a fixed piece
of pure-Python work (``reference_work``) measured just before and just
after it, because the shared host's speed swings by tens of percent from
minute to minute and the ratio much less.  ``--trace 1`` alternates
untraced passes with passes under the outside-in tracer of ``tracing.py``
and prints the per-layer metrics; its spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; details (tail percentile, sample counts, failures) go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 3  # per-job medians need a few repeats
# sizes of the parts of reference_work, about 0.1 ms each on the reference
# host when it is quiet; one reference unit (ref) is one reference_work
REF_LOOPS = 1500
REF_TERMS = 9
REF_ORBIT = 100
REF_ROOTS = 12
REF_SAMPLES = 5
REF_SLOPE = Fraction(1.7292119317087213)  # the orbit's 53-bit slope
SETUP_RUNS = 15  # fewest fresh processes timed for setup_s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import intervalzeta, intervalzeta.cli
intervalzeta.cli.build_parser()
t1 = time.perf_counter()
if not intervalzeta.__file__.startswith(sys.argv[1]):
    sys.exit("imported intervalzeta from %s" % intervalzeta.__file__)
print(t1 - t0)
"""


def load_package():
    """Import intervalzeta from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "intervalzeta", "cli.py")):
        raise SystemExit("bench: no intervalzeta sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import intervalzeta.cli
    import intervalzeta.combinatorics

    if not os.path.abspath(intervalzeta.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported intervalzeta from %s" % intervalzeta.__file__)
    return intervalzeta.cli, intervalzeta.combinatorics


def time_setup() -> float:
    """Seconds, in a fresh interpreter, to import the package and its CLI
    and build the argument parser."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC], capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit("bench: set-up process failed: %s" % proc.stderr.strip())
    return float(proc.stdout)


def reference_work() -> float:
    """A fixed mix of the interpreter work the workloads do: a small-int
    loop, a truncated product of Fraction series, a tent orbit in growing
    big integers and float bisection.  Other tenants slow these by
    different amounts (the big-integer and Fraction parts the most), so a
    mix tracks the jobs better than any one of them."""
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    a = [Fraction(i % 5 - 2, i % 7 + 1) for i in range(REF_TERMS)]
    c = [Fraction(0)] * REF_TERMS
    for i in range(REF_TERMS):
        for j in range(REF_TERMS - i):
            c[i + j] += a[i] * a[j]
    p, q = REF_SLOPE.numerator, REF_SLOPE.denominator
    x, qn = 1, 1
    for _ in range(REF_ORBIT):
        x, qn = p * min(x, 2 * qn - x), qn * q
    root = 0.0
    for k in range(REF_ROOTS):
        lo, hi = 1.0, 2.0
        for _ in range(50):
            mid = (lo + hi) / 2
            if mid * mid * mid - mid - 1 - k / 1000 > 0:
                hi = mid
            else:
                lo = mid
        root += lo
    return s + float(c[-1]) + (x & 1) + root


def reference_unit() -> float:
    """Seconds that one reference_work takes right now: the median of
    REF_SAMPLES timings."""
    samples = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_job(job: workloads.Job, cli, comb, results: list) -> tuple[int, str, str, float]:
    """Run one job in-process; returns (exit code, stdout, stderr, seconds).
    An exception escaping the program gives exit code -1."""
    argv = list(job.argv)
    if workloads.LAMBDA in argv:
        code, out = results[job.after][:2]
        lam = json.loads(out)["lambda"] if code == 0 else "0"
        argv[argv.index(workloads.LAMBDA)] = lam
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if job.kind == "lib.fixed_points":
                rho, p = job.call
                print(comb.count_fixed_points_of_iterate(comb.pl_model(rho), p))
                code = 0
            else:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failure, not a crash of the benchmark
            code = -1
            err.write("%s: %s" % (type(exc).__name__, exc))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def run_pass(jobs, cli, comb, tracer=None, units=None) -> tuple[list, float]:
    """Run every job once; returns the results and the pass time (the sum
    of the job latencies).  Given a list ``units``, a reference unit is
    timed before each job and after the last one and appended to it."""
    results: list = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        if units is not None:
            units.append(reference_unit())
        results.append(run_job(job, cli, comb, results))
    if units is not None:
        units.append(reference_unit())
    return results, sum(r[3] for r in results)


def verify(jobs, results, reference) -> list[str]:
    """Failures of one pass.  Without a reference the oracles decide;
    otherwise every exit code and stdout must equal the reference pass."""
    failures = []
    for i, (job, (code, out, err, _)) in enumerate(zip(jobs, results)):
        if reference is None:
            problem = oracles.check(job, code, out, err, results)
        elif (code, out) != reference[i][:2]:
            problem = "%s: output differs from the first pass" % job.kind
        else:
            problem = None
        if problem:
            failures.append("job %d %s: %s" % (i, " ".join(job.argv) or job.kind, problem))
    return failures


def tail_percentile(values) -> tuple[float, float, int]:
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it (nearest rank).  Returns (percentile, value, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n
    raise ValueError("a tail needs at least 20 samples, got %d" % n)


class Run:
    """One benchmark run: the passes made so far and their verdicts."""

    def __init__(self, jobs, cli, comb):
        self.jobs, self.cli, self.comb = jobs, cli, comb
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None, units=None) -> tuple[list, float]:
        results, wall = run_pass(self.jobs, self.cli, self.comb, tracer, units)
        self.failures += verify(self.jobs, results, self.reference)
        if self.reference is None:
            self.reference = [r[:2] for r in results]
        self.attempted += len(results)
        return results, wall


def local_unit(units, i: int) -> float:
    """The reference unit around job ``i``: the median of the three timed
    before it and the three after it (fewer at the ends of a pass).  A
    median of six follows the host's slow and fast stretches and ignores a
    single sample taken in a momentary stall."""
    return statistics.median(units[max(0, i - 2):i + 4])


def job_latencies(passes) -> list[float]:
    """Each job's latency in reference units, its median over the passes.
    ``passes`` holds (results, units) pairs, where ``units[i]`` is the
    reference unit timed before job ``i`` and ``units[-1]`` the one after
    the last job."""
    return [statistics.median(results[i][3] / local_unit(units, i) for results, units in passes)
            for i in range(len(passes[0][0]))]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Job latencies in reference units: a job's wall time over the
    reference units timed around it (``local_unit``).  On a shared
    host other tenants slow pure-Python code by up to half for seconds to
    minutes at a time; the job and the reference loop around it slow down
    alike, so the ratio stays put where wall time does not.  Each job's
    latency is its median over the passes; jobs_per_kref is the job count
    per thousand reference units of summed latency.  The raw wall-time
    figures go to the detail line.  setup_s is sampled between passes,
    outside their timing, so its median covers the whole run rather than
    one moment of it."""
    time_setup()  # the first fresh process may compile bytecode
    passes, setups = [], []
    timed = 0.0
    while timed < seconds or len(passes) < MIN_PASSES:
        units: list[float] = []
        results, wall = run.one_pass(units=units)
        passes.append((results, units))
        timed += wall
        setups.append(time_setup())
    setups += [time_setup() for _ in range(SETUP_RUNS - len(setups))]
    n = len(run.jobs)
    per_job = job_latencies(passes)
    per_job_s = [statistics.median(results[i][3] for results, _ in passes) for i in range(n)]
    pct, tail, samples = tail_percentile(per_job)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_kref": (1000 * n / sum(per_job), "1/kref"),
        "job_p50_ref": (statistics.median(per_job), "ref"),
        "job_tail_ref": (tail, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": len(passes), "jobs_per_pass": n, "timed_s": round(timed, 3),
              "tail_percentile": pct, "tail_samples": samples, "setup_samples": len(setups),
              "reference_unit_ms": 1000 * statistics.median(u for _, units in passes for u in units),
              "wall_jobs_per_s": n / sum(per_job_s), "wall_job_p50_ms": 1000 * statistics.median(per_job_s),
              "wall_job_tail_ms": 1000 * tail_percentile(per_job_s)[1]}
    return metrics, detail


def per_layer(run: Run, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    untraced, untraced_walls, traced_walls, self_passes = [], [], [], []
    counts = None
    timed = 0.0
    while timed < seconds or len(traced_walls) < 2:
        results, wall = run.one_pass()
        untraced.append(results)
        untraced_walls.append(wall)
        tracer.reset()
        with tracer:
            results, traced_wall = run.one_pass(tracer)
        pass_counts, selfs = tracing.pass_metrics(tracer, run.jobs, results)
        if counts is not None and pass_counts != counts:
            changed = sorted(k for k in counts if counts[k] != pass_counts[k])
            raise SystemExit("bench: per-layer counts changed between passes: %s" % ", ".join(changed))
        counts = pass_counts
        self_passes.append(selfs)
        traced_walls.append(traced_wall)
        timed += wall + traced_wall
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
    metrics = tracing.layer_metrics(counts, self_passes, untraced, run.jobs, overhead)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    tracing.write_spans(spans_path, tracer.spans)
    detail = {"untraced_passes": len(untraced_walls), "traced_passes": len(traced_walls),
              "spans_per_pass": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return {name: (value, units[name]) for name, value in metrics.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, comb = load_package()
    jobs = workloads.build(args.workload, args.seed)
    run = Run(jobs, cli, comb)
    if args.trace:
        metrics, detail = per_layer(run, args.seconds, args.workload, args.seed)
    else:
        metrics, detail = end_to_end(run, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, job_digest=workloads.digest(jobs),
                  fail_ratio=len(run.failures) / run.attempted, failures=run.failures[:20])
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
