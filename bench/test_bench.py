"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

import oracles
import run
import tracing
import workloads

CLI, COMB = run.load_package()

from intervalzeta import cubicfam, kneading, series  # noqa: E402  (after load_package sets the path)


@pytest.fixture
def small_fib(monkeypatch):
    """fib-tent chains of depth 9 and 10 only, to keep the tests short."""
    monkeypatch.setattr(workloads, "FIB_CHAINS", {10: (4,), 9: (3, 5, 6)})
    return workloads.build("fib-tent", 1)


def test_tracer_sees_from_import_bindings():
    tent = COMB.pl_model(workloads.FULL_TENT)
    with tracing.Tracer() as tracer:
        # kneading calls series_matrix_det through its own from-import binding,
        # cubicfam calls poly_compose through its own
        kneading.kneading_determinant(tent, 16)
        cubicfam.two_cycle_polynomial(1)
    names = {span[0] for span in tracer.spans}
    assert {"kneading.determinant", "kneading.matrix", "series.matrix_det", "series.mul",
            "series.recip", "series.poly_compose"} <= names
    assert tracer.counts["combinatorics.pl_eval"] > 0
    # every binding is restored
    assert kneading.series_matrix_det is series.series_matrix_det
    assert not hasattr(kneading.series_matrix_det, "__wrapped__")
    assert not hasattr(cubicfam.poly_compose, "__wrapped__")
    assert not hasattr(series.TruncSeries.__mul__, "__wrapped__")
    assert series.TruncSeries.__dict__["__rmul__"] is series.TruncSeries.__dict__["__mul__"]
    assert not hasattr(CLI.main, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("workload", ["exact-kneading", "cubic-numeric", "fib-tent"])
def test_traced_and_untraced_outputs_identical(workload, small_fib):
    jobs = small_fib if workload == "fib-tent" else workloads.build(workload, 1)
    plain, _ = run.run_pass(jobs, CLI, COMB)
    assert run.verify(jobs, plain, None) == []
    with tracing.Tracer() as tracer:
        traced, _ = run.run_pass(jobs, CLI, COMB, tracer)
    assert [(r[0], r[1]) for r in traced] == [(r[0], r[1]) for r in plain]
    assert len({span[4] for span in tracer.spans}) > len(jobs) // 2


def test_traced_counts_repeat_exactly(small_fib):
    for jobs in (small_fib, workloads.build("cubic-numeric", 2)):
        counts = []
        for _ in range(2):
            with tracing.Tracer() as tracer:
                results, _ = run.run_pass(jobs, CLI, COMB, tracer)
            counts.append(tracing.pass_metrics(tracer, jobs, results)[0])
        assert counts[0] == counts[1]
        assert counts[0]["cli.jobs"] == len(jobs)


def test_tail_percentile_rule():
    assert run.tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert run.tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert run.tail_percentile(range(1, 10001)) == (99.9, 9990, 10000)
    assert run.tail_percentile(range(1, 41)) == (75.0, 30, 40)
    assert run.tail_percentile(list(range(20, 0, -1))) == (50.0, 10, 20)
    with pytest.raises(ValueError):
        run.tail_percentile(range(19))


def test_latency_is_in_reference_units():
    # five 1 ms jobs; the host turns slow (reference unit 1 ms -> 9 ms)
    # in the middle of the pass
    units = [0.001, 0.001, 0.001, 0.009, 0.009, 0.009]
    assert [run.local_unit(units, i) for i in range(5)] == pytest.approx([0.001, 0.001, 0.005, 0.009, 0.009])
    ms = [(0, "", "", 0.001)] * 5
    fast = [0.001] * 6
    assert run.job_latencies([(ms, units), (ms, fast), (ms, fast)]) == pytest.approx([1.0] * 5)
    assert run.job_latencies([(ms, units)]) == pytest.approx([1.0, 1.0, 0.2, 1 / 9, 1 / 9])
    assert run.reference_work() == run.reference_work()
    assert run.reference_unit() > 0


def test_corrupted_output_is_a_failure():
    jobs = [j for j in workloads.build("cubic-numeric", 1) if j.kind == "cubic.count"][:3]
    results, _ = run.run_pass(jobs, CLI, COMB)
    assert run.verify(jobs, results, None) == []
    code, out, err, seconds = results[1]
    payload = json.loads(out)
    payload["count"] += 1
    corrupted = list(results)
    corrupted[1] = (code, json.dumps(payload), err, seconds)
    assert len(run.verify(jobs, corrupted, None)) == 1
    # a later pass is held to the first pass byte for byte
    reference = [r[:2] for r in results]
    assert len(run.verify(jobs, corrupted, reference)) == 1
    # an expected refusal must carry the exact reason
    refusal = workloads.Job("comb.validate", ("comb", "validate", "--rho", "0,3,3,2,0"),
                            expect={"code": 1, "reason": "adjacent equal entries at 1"})
    results, _ = run.run_pass([refusal], CLI, COMB)
    assert run.verify([refusal], results, None) == []
    wrong = replace(refusal, expect={"code": 1, "reason": "adjacent equal entries at 2"})
    assert len(run.verify([wrong], results, None)) == 1


def test_run_counts_failures():
    jobs = [j for j in workloads.build("cubic-numeric", 1) if j.kind == "cubic.count"][:2]
    bad = replace(jobs[0], expect=dict(jobs[0].expect, n=jobs[0].expect["n"] % 12 + 1))
    benchmark = run.Run([bad, jobs[1]], CLI, COMB)
    benchmark.one_pass()
    assert benchmark.attempted == 2 and len(benchmark.failures) == 1


def test_oracle_closed_forms():
    assert oracles.CUBIC_COUNTS == [1, 5, 7, 9, 11, 23, 29, 49, 79, 125, 199, 327]
    # the full tent: (1-2t)/(1-t); the base map: (1-t-t^2)/(1-t^3)
    assert oracles._expected_det(workloads.FULL_TENT, 5) == [1, -1, -1, -1, -1, -1]
    assert oracles._expected_det(workloads.BASE_UNIMODAL, 6) == [1, -1, -1, 1, -1, -1, 1]
    assert oracles._fixed_points(workloads.FULL_TENT, 5) == 32
    assert oracles._fib_kneading(3) == ["R", "L", "L", "R", "R"]


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        one = workloads.build(name, 1)
        assert workloads.digest(one) == workloads.digest(workloads.build(name, 1))
        assert workloads.digest(one) != workloads.digest(workloads.build(name, 2))
        assert workloads.mix(one) == workloads.mix(workloads.build(name, 2))
        for i, job in enumerate(one):
            assert job.after is None or job.after < i


def test_benchmark_json_matches_the_code():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    with open(os.path.join(root, "bench", "manifest.json")) as fh:
        manifest = json.load(fh)
    for name, entry in manifest["workloads"].items():
        jobs = workloads.build(name, entry["seed"])
        assert entry["job_digest"] == workloads.digest(jobs)
        assert entry["job_mix"] == workloads.mix(jobs)


def test_end_to_end_reports_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    cheap = {"comb.orbit", "comb.generate", "zeta.sft", "knead.unimodal"}
    jobs = [j for j in workloads.build("exact-kneading", 1) if j.kind in cheap]
    benchmark = run.Run(jobs, CLI, COMB)
    metrics, detail = run.end_to_end(benchmark, 0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert benchmark.failures == [] and detail["passes"] == run.MIN_PASSES
