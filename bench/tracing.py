"""Outside-in tracer for ``intervalzeta``.

The tracer changes nothing in the package's source.  It replaces each
traced function or method, at every binding that refers to it, with a
wrapper that records a span (name, start, end, parent span, job id) or
bumps a counter, and restores every binding on exit.  A function imported
with ``from .series import series_matrix_det`` is bound in ``kneading`` as
well as in ``series``, and both bindings are wrapped; a method is wrapped
under every class attribute that holds it (``__mul__`` and ``__rmul__`` of
``TruncSeries`` are one function).

Spans stay in memory.  ``pass_metrics`` turns the spans and counters of
one pass into counts and self times, and ``layer_metrics`` combines passes
into the per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "intervalzeta"


def _series_bits(tracer: "Tracer", args, result) -> None:
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
    tracer.maximum("series.max_coeff_bits", bits)


def _theta(tracer, args, result) -> None:
    tracer.add("kneading.theta.terms", args[3] + 1)


def _fixed_points(tracer, args, result) -> None:
    tracer.add("combinatorics.fixed_points.solutions", result)


def _mt_check(tracer, args, result) -> None:
    tracer.add("zeta.mt_check.peeled", result is not None)


def _fib_language(tracer, args, result) -> None:
    tracer.add("subshift.fib_language.words", len(result))
    tracer.add("subshift.fib_language.candidates", 2 ** args[0])


def _endpoints(tracer, args, result) -> None:
    tracer.distinct("cubicfam.endpoints.s", args[0])


def _count(tracer, args, result) -> None:
    tracer.add("cubicfam.count.roots", result.count)
    tracer.add("cubicfam.count.flagged", len(result.flagged))


def _repeller(tracer, args, result) -> None:
    tracer.add("cubicfam.repeller.pieces", len(result))


def _find_lambda(tracer, args, result) -> None:
    lam = result.lam
    tracer.maximum("fibmap.lambda.bits", max(lam.numerator.bit_length(), lam.denominator.bit_length()))


def _tent_orbit(tracer, args, result) -> None:
    orbit = args[0]  # the TentOrbit being initialised
    tracer.add("fibmap.tent_orbit.steps", orbit.length)
    tracer.maximum("fibmap.tent_orbit.max_bits",
                   max(orbit._a[-1].bit_length(), orbit._qpow[-1].bit_length()))


def _families(tracer, args, result) -> None:
    tracer.add("fibmap.families.pieces", sum(len(pieces) for pieces in result.M.values()))


@dataclass(frozen=True)
class Target:
    """A traced callable: ``module.attr`` or ``module.Class.method``.

    With ``span`` false only the call count is kept, for functions called
    too often to afford a span each.  ``observe(tracer, args, result)`` runs
    after a successful call."""

    module: str
    attr: str
    name: str
    span: bool = True
    observe: Callable | None = None


TARGETS = (
    Target("series", "TruncSeries.__mul__", "series.mul"),
    Target("series", "TruncSeries.recip", "series.recip", observe=_series_bits),
    Target("series", "TruncSeries.exp", "series.exp", observe=_series_bits),
    Target("series", "series_matrix_det", "series.matrix_det", observe=_series_bits),
    Target("series", "RationalFn.__post_init__", "series.rf"),
    Target("series", "rf_to_series", "series.rf_to_series"),
    Target("series", "poly_compose", "series.poly_compose"),
    Target("series", "poly_divmod", "series.poly_divmod", span=False),
    Target("series", "detect_eventual_periodicity", "series.detect_period"),
    Target("kneading", "theta_series", "kneading.theta", observe=_theta),
    Target("kneading", "kneading_matrix", "kneading.matrix"),
    Target("kneading", "kneading_determinant", "kneading.determinant"),
    Target("kneading", "unimodal_rational_form", "kneading.unimodal_rf"),
    Target("combinatorics", "count_fixed_points_of_iterate", "combinatorics.fixed_points", observe=_fixed_points),
    Target("combinatorics", "classify_points", "combinatorics.classify"),
    Target("combinatorics", "PLModel.__call__", "combinatorics.pl_eval", span=False),
    Target("zeta", "mt_relation_check", "zeta.mt_check", observe=_mt_check),
    Target("zeta", "counts_from_zeta", "zeta.counts_from_zeta"),
    Target("zeta", "zeta_from_counts", "zeta.from_counts"),
    Target("subshift", "fib_language", "subshift.fib_language", observe=_fib_language),
    Target("subshift", "sft_periodic_counts", "subshift.sft_counts"),
    Target("subshift", "vee_map", "subshift.vee_map", span=False),
    Target("cubicfam", "filled_julia_endpoints", "cubicfam.endpoints", observe=_endpoints),
    Target("cubicfam", "count_periodic", "cubicfam.count", observe=_count),
    Target("cubicfam", "repelling_three_cycle", "cubicfam.three_cycle"),
    Target("cubicfam", "build_branch_system", "cubicfam.branch_system"),
    Target("cubicfam", "BranchSystem.phi1", "cubicfam.phi", span=False),
    Target("cubicfam", "BranchSystem.phi2", "cubicfam.phi", span=False),
    Target("cubicfam", "repeller_pieces", "cubicfam.repeller", observe=_repeller),
    Target("fibmap", "find_fib_lambda", "fibmap.find_lambda", observe=_find_lambda),
    Target("fibmap", "TentOrbit.__init__", "fibmap.tent_orbit", observe=_tent_orbit),
    Target("fibmap", "interval_families", "fibmap.families", observe=_families),
    Target("fibmap", "verify_structure", "fibmap.structure"),
    Target("fibmap", "diameter_ratios", "fibmap.diameters"),
    Target("fibmap", "orbit_order_holds", "fibmap.orbit_order"),
    Target("cli", "main", "cli.main"),
)

# the eleven CLI commands whose untraced median latency is reported
CLI_COMMANDS = (
    "knead.det", "knead.matrix", "knead.unimodal", "zeta.mt-check", "comb.validate",
    "fib.find-lambda", "fib.check", "cubic.count", "cubic.sweep", "cubic.report", "cubic.repeller",
)

# (name, unit, better); a span's `.self_s` is its duration minus its child spans
LAYER_METRICS = (
    ("cli.jobs", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit1", "count", "lower"),
    ("cli.exit2", "count", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    *(("cli.%s.p50_ms" % cmd, "ms", "lower") for cmd in CLI_COMMANDS),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.recip.calls", "count", "lower"),
    ("series.recip.self_s", "s", "lower"),
    ("series.exp.calls", "count", "lower"),
    ("series.exp.self_s", "s", "lower"),
    ("series.matrix_det.calls", "count", "lower"),
    ("series.matrix_det.self_s", "s", "lower"),
    ("series.max_coeff_bits", "bits", "lower"),
    ("series.rf.builds", "count", "lower"),
    ("series.rf.self_s", "s", "lower"),
    ("series.rf_to_series.self_s", "s", "lower"),
    ("series.poly_compose.calls", "count", "lower"),
    ("series.poly_compose.self_s", "s", "lower"),
    ("series.poly_divmod.calls", "count", "lower"),
    ("series.detect_period.self_s", "s", "lower"),
    ("kneading.theta.calls", "count", "lower"),
    ("kneading.theta.terms", "count", "lower"),
    ("kneading.theta.self_s", "s", "lower"),
    ("kneading.matrix.calls", "count", "lower"),
    ("kneading.matrix.self_s", "s", "lower"),
    ("kneading.determinant.calls", "count", "lower"),
    ("kneading.determinant.self_s", "s", "lower"),
    ("kneading.matrix_builds_per_det", "ratio", "lower"),
    ("kneading.unimodal_rf.self_s", "s", "lower"),
    ("combinatorics.fixed_points.calls", "count", "lower"),
    ("combinatorics.fixed_points.solutions", "count", "higher"),
    ("combinatorics.fixed_points.self_s", "s", "lower"),
    ("combinatorics.classify.self_s", "s", "lower"),
    ("combinatorics.pl_eval.calls", "count", "lower"),
    ("zeta.mt_check.calls", "count", "lower"),
    ("zeta.mt_check.self_s", "s", "lower"),
    ("zeta.mt_check.peeled_ratio", "ratio", "higher"),
    ("zeta.counts_from_zeta.self_s", "s", "lower"),
    ("zeta.from_counts.self_s", "s", "lower"),
    ("subshift.fib_language.words", "count", "higher"),
    ("subshift.fib_language.yield_ratio", "ratio", "higher"),
    ("subshift.fib_language.self_s", "s", "lower"),
    ("subshift.sft_counts.self_s", "s", "lower"),
    ("subshift.vee_map.calls", "count", "lower"),
    ("cubicfam.endpoints.calls", "count", "lower"),
    ("cubicfam.endpoints.reuse_ratio", "ratio", "higher"),
    ("cubicfam.endpoints.self_s", "s", "lower"),
    ("cubicfam.count.calls", "count", "lower"),
    ("cubicfam.count.roots", "count", "higher"),
    ("cubicfam.count.flagged", "count", "lower"),
    ("cubicfam.count.self_s", "s", "lower"),
    ("cubicfam.three_cycle.self_s", "s", "lower"),
    ("cubicfam.branch_system.self_s", "s", "lower"),
    ("cubicfam.phi.calls", "count", "lower"),
    ("cubicfam.repeller.pieces", "count", "higher"),
    ("cubicfam.repeller.self_s", "s", "lower"),
    ("fibmap.find_lambda.calls", "count", "lower"),
    ("fibmap.find_lambda.self_s", "s", "lower"),
    ("fibmap.tent_orbit.builds", "count", "lower"),
    ("fibmap.tent_orbit.steps", "count", "lower"),
    ("fibmap.tent_orbit.max_bits", "bits", "lower"),
    ("fibmap.tent_orbit.self_s", "s", "lower"),
    ("fibmap.bisect.builds_per_call", "ratio", "lower"),
    ("fibmap.lambda.bits", "bits", "lower"),
    ("fibmap.families.pieces", "count", "higher"),
    ("fibmap.families.self_s", "s", "lower"),
    ("fibmap.structure.self_s", "s", "lower"),
    ("fibmap.diameters.self_s", "s", "lower"),
    ("fibmap.orbit_order.self_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Context manager that installs the wrappers and collects one pass.

    Not thread-safe: the benchmark runs its jobs on one thread."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job id]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.sets: dict[str, set] = {}
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def add(self, key: str, n) -> None:
        self.counts[key] += n

    def maximum(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def distinct(self, key: str, value) -> None:
        self.sets.setdefault(key, set()).add(value)

    def reset(self) -> None:
        """Forget everything recorded so far (one pass at a time)."""
        self.spans, self.counts, self.maxima, self.sets = [], Counter(), {}, {}
        self._stack = []

    def _wrap(self, original, target: Target):
        tracer, name, observe = self, target.name, target.observe
        clock = time.perf_counter
        if target.span:
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
                stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(tracer, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, result)
                return result
        return functools.update_wrapper(wrapper, original)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        try:
            for target in self.targets:
                module = sys.modules["%s.%s" % (PACKAGE, target.module)]
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    owners = [cls]
                else:
                    original = getattr(module, target.attr)
                    owners = modules
                wrapper = self._wrap(original, target)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._saved.append((owner, attr, value))
                            setattr(owner, attr, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: one thread, nested calls)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(tracer: Tracer, jobs, results) -> tuple[dict, dict]:
    """Counts and self times of one traced pass.

    ``results`` holds ``(code, out, err, seconds)`` per job.  Returns
    ``(counts, self_seconds)``: counts must repeat exactly from pass to
    pass, self times are summed per span name."""
    spans = tracer.spans
    calls = Counter(name for name, *_ in spans)
    selfs: Counter = Counter()
    for (name, *_), t in zip(spans, self_times(spans)):
        selfs[name] += t
    c = tracer.counts
    cli_jobs = [r for j, r in zip(jobs, results) if not j.kind.startswith("lib.")]
    det_jobs = {i for i, j in enumerate(jobs) if j.kind == "knead.det" and j.expect.get("code", 0) == 0}
    det_builds = sum(1 for name, _, _, _, job in spans if name == "kneading.matrix" and job in det_jobs)
    bisect_builds = sum(1 for i, s in enumerate(spans)
                        if s[0] == "fibmap.tent_orbit" and _has_ancestor(spans, i, "fibmap.find_lambda"))

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {
        "cli.jobs": calls["cli.main"],
        "cli.exit1": sum(1 for r in cli_jobs if r[0] == 1),
        "cli.exit2": sum(1 for r in cli_jobs if r[0] == 2),
        "cli.out_bytes": sum(len(r[1].encode()) for r in cli_jobs),
        "series.mul.calls": calls["series.mul"],
        "series.recip.calls": calls["series.recip"],
        "series.exp.calls": calls["series.exp"],
        "series.matrix_det.calls": calls["series.matrix_det"],
        "series.max_coeff_bits": tracer.maxima.get("series.max_coeff_bits", 0),
        "series.rf.builds": calls["series.rf"],
        "series.poly_compose.calls": calls["series.poly_compose"],
        "series.poly_divmod.calls": c["series.poly_divmod"],
        "kneading.theta.calls": calls["kneading.theta"],
        "kneading.theta.terms": c["kneading.theta.terms"],
        "kneading.matrix.calls": calls["kneading.matrix"],
        "kneading.determinant.calls": calls["kneading.determinant"],
        "kneading.matrix_builds_per_det": ratio(det_builds, len(det_jobs)),
        "combinatorics.fixed_points.calls": calls["combinatorics.fixed_points"],
        "combinatorics.fixed_points.solutions": c["combinatorics.fixed_points.solutions"],
        "combinatorics.pl_eval.calls": c["combinatorics.pl_eval"],
        "zeta.mt_check.calls": calls["zeta.mt_check"],
        "zeta.mt_check.peeled_ratio": ratio(c["zeta.mt_check.peeled"], calls["zeta.mt_check"]),
        "subshift.fib_language.words": c["subshift.fib_language.words"],
        "subshift.fib_language.yield_ratio": ratio(c["subshift.fib_language.words"],
                                                   c["subshift.fib_language.candidates"]),
        "subshift.vee_map.calls": c["subshift.vee_map"],
        "cubicfam.endpoints.calls": calls["cubicfam.endpoints"],
        "cubicfam.endpoints.reuse_ratio": ratio(len(tracer.sets.get("cubicfam.endpoints.s", ())),
                                                calls["cubicfam.endpoints"]),
        "cubicfam.count.calls": calls["cubicfam.count"],
        "cubicfam.count.roots": c["cubicfam.count.roots"],
        "cubicfam.count.flagged": c["cubicfam.count.flagged"],
        "cubicfam.phi.calls": c["cubicfam.phi"],
        "cubicfam.repeller.pieces": c["cubicfam.repeller.pieces"],
        "fibmap.find_lambda.calls": calls["fibmap.find_lambda"],
        "fibmap.tent_orbit.builds": calls["fibmap.tent_orbit"],
        "fibmap.tent_orbit.steps": c["fibmap.tent_orbit.steps"],
        "fibmap.tent_orbit.max_bits": tracer.maxima.get("fibmap.tent_orbit.max_bits", 0),
        "fibmap.bisect.builds_per_call": ratio(bisect_builds, calls["fibmap.find_lambda"]),
        "fibmap.lambda.bits": tracer.maxima.get("fibmap.lambda.bits", 0),
        "fibmap.families.pieces": c["fibmap.families.pieces"],
    }
    return counts, dict(selfs)


SELF_METRICS = {name: name[: -len(".self_s")] for name, _, _ in LAYER_METRICS if name.endswith(".self_s")}
SELF_METRICS["cli.self_s"] = "cli.main"


def layer_metrics(counts: dict, self_passes: list[dict], untraced: list[list], jobs,
                  overhead_ratio: float) -> dict:
    """All of LAYER_METRICS: counts of one pass, self times as the median
    over traced passes, CLI command latencies as the median over every
    untraced run of that command."""
    out = dict(counts)
    for metric, span in SELF_METRICS.items():
        out[metric] = statistics.median(p.get(span, 0.0) for p in self_passes)
    for cmd in CLI_COMMANDS:
        samples = [r[3] for results in untraced for j, r in zip(jobs, results) if j.kind == cmd]
        out["cli.%s.p50_ms" % cmd] = 1000 * statistics.median(samples) if samples else 0.0
    out["bench.trace_overhead_ratio"] = overhead_ratio
    missing = [name for name, _, _ in LAYER_METRICS if name not in out]
    if missing:
        raise KeyError("per-layer metrics not derived: %s" % ", ".join(missing))
    return out


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w") as fh:
        for i, (name, start, end, parent, job) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}, separators=(",", ":")) + "\n")
