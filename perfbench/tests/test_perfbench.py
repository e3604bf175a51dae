"""Tests of the benchmark itself: the oracle, the tracer and BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json

import pytest

import oracle
import run
import workloads
from tracer import LAYERS, Tracer, metric_names

SRC = run.ROOT / "src"
# The cheapest job of each workload.
SMALLEST = {
    "ladder": "theorem2 torus-grid 2x2",
    "syndrome": "colex_code honeycomb 3x3 relaxed",
    "catalog": "verify theorem2 grid2",
}


def job_named(workload, name, mods, workdir):
    jobs = workloads.make_jobs(workload, mods, 7, workdir)
    return next(job for job in jobs if job.name == name)


def test_closed_forms_reproduce_paper_values():
    for (pipeline, m), params in oracle.PAPER_VALUES.items():
        assert oracle.grid_params(pipeline, m) == params


def test_oracle_flags_mutated_report_and_wrong_exit(tmp_path):
    mods = workloads.import_tscodes(SRC)
    job = job_named("ladder", SMALLEST["ladder"], mods, tmp_path)
    outcome = job.run()
    assert oracle.check(job.expect, outcome) == []

    for key, value in (("k", 3), ("s", 13)):
        report = json.loads(outcome.text)
        report[key] = value
        bad = dataclasses.replace(outcome, text=json.dumps(report))
        assert oracle.check(job.expect, bad), key
    report = json.loads(outcome.text)
    report["checks"]["nontrivial_outside_gauge"] = False
    assert oracle.check(job.expect, dataclasses.replace(outcome, text=json.dumps(report)))
    assert oracle.check(job.expect, dataclasses.replace(outcome, exit=1))

    negative = job_named("catalog", "verify theorem2 theta (must fail)", mods, tmp_path)
    outcome = negative.run()
    assert (outcome.exit, outcome.error) == (2, "OddDegreeSeed")
    assert oracle.check(negative.expect, outcome) == []
    assert oracle.check(negative.expect, dataclasses.replace(outcome, exit=0))
    assert oracle.check(negative.expect, dataclasses.replace(outcome, error="BadParams"))


def test_report_that_changes_between_passes_fails():
    texts = iter(['{"n": 3, "k": 1, "r": 1, "s": 1}', '{"n": 3, "k": 1, "r": 1, "s": 1} '])
    job = workloads.Job("flaky", lambda: oracle.Outcome(0, None, next(texts)), oracle.Expect())
    digests = {}
    assert run.run_pass([job], digests).failed == 0
    assert run.run_pass([job], digests).failed == 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    def traced_run():
        mods = workloads.import_tscodes(SRC)
        with Tracer(mods) as tracer:
            tracer.job = "setup"
            job = job_named(workload, SMALLEST[workload], mods, tmp_path)
            stats = run.run_pass([job], {}, tracer)
        assert stats.failed == 0
        assert not hasattr(mods.pauli.center, "__wrapped__")
        metrics = tracer.metrics()
        layers_ns = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS) * 1e6
        assert layers_ns == pytest.approx(tracer.top_level_ns(), rel=1e-9)
        return {k: v for k, v in metrics.items() if not k.endswith("self_ms")}

    first, second = traced_run(), traced_run()
    assert first == second
    assert first["analyzer.build_code.calls"] >= 1
    assert first["lattices.torus_grid.calls"] + first["lattices.honeycomb_torus.calls"] >= 1


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == metric_names() + list(run.EXTRA_LAYER_METRICS)
