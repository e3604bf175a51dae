"""tscodes benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports tscodes from that checkout's
`src/` and nowhere else, and exits 2 without a result when there is none.

--trace 0 sets up the workload several times (import plus input
generation), then repeats passes over its jobs for about --seconds and
reports the end-to-end metrics as medians over passes, timings in
reference seconds (see speed.py; the raw medians are in the metadata
line).  --trace 1 runs untraced passes for half of --seconds, then sets up
and runs one pass with the timing wrappers of tracer.py installed, reports
the per-layer metrics and writes the spans to .perfbench_out/.  Every
job's output is checked by oracle.py and must be byte-identical in every
pass of a run; a job that fails either check counts in `failed`.  The last
line of stdout is the JSON result; the line before it holds run metadata.

    python3 -m pytest perfbench/tests     # tests of the benchmark itself
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle
import speed
import workloads
from tracer import Tracer, metric_names

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
# Per-layer metrics reported next to the Tracer's own.
EXTRA_LAYER_METRICS = (
    # Traced input generation plus traced pass, in seconds as measured like
    # the self times, so that the self times and bench.loop_ms sum to it.
    ("trace.wall_ms", "ms"),
    ("bench.loop_ms", "ms"),  # trace.wall_ms not inside any wrapped call
    ("trace.overhead_s", "s"),  # traced minus untraced pass, reference seconds
    ("schedule_s", "s"),
    ("sim_trials_per_s", "trials/s"),
    ("error_rate", "fraction"),
)


@dataclass
class PassStats:
    wall: float  # reference seconds, like every timing below
    raw_wall: float  # seconds
    probe: float  # mean probe time of the pass, seconds
    latency: List[float]  # per job
    verify: List[float]  # per job, build + check time; 0 for jobs that build no code
    schedule_s: float
    simulate_s: float
    trials: int
    failed: int


def run_pass(jobs, digests: Dict[str, str], tracer: Optional[Tracer] = None) -> PassStats:
    """Run every job once, with speed probes after each; then check each
    outcome outside the timed span."""
    clock = time.perf_counter
    spans, outcomes, probes = [], [], []
    start = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = clock()
        try:
            outcome = job.run()
        except Exception as exc:  # a crashing job counts as failed; the run goes on
            traceback.print_exc()
            outcome = oracle.Outcome(-1, type(exc).__name__, "")
        t1 = clock()
        spans.append((t0, t1))
        outcomes.append(outcome)
        probes += speed.probe(speed.PROBE_SHARE * (t1 - t0))
    raw_wall = clock() - start - sum(d for _, d in probes)
    scales = [speed.scale_near(probes, t0, t1) for t0, t1 in spans]
    latency = [(t1 - t0) * k for (t0, t1), k in zip(spans, scales)]
    loop = raw_wall - sum(t1 - t0 for t0, t1 in spans)
    failed = 0
    for job, outcome in zip(jobs, outcomes):
        problems = oracle.check(job.expect, outcome)
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        if digests.setdefault(job.name, digest) != digest:
            problems.append("report differs from an earlier pass")
        if problems:
            failed += 1
            print(f"perfbench: {job.name}: {'; '.join(problems)}", file=sys.stderr)
    return PassStats(
        wall=sum(latency) + loop * speed.normalize(probes),
        raw_wall=raw_wall,
        probe=statistics.mean(d for _, d in probes),
        latency=latency,
        verify=[o.verify_s * k for o, k in zip(outcomes, scales)],
        schedule_s=sum(o.schedule_s * k for o, k in zip(outcomes, scales)),
        simulate_s=sum(o.simulate_s * k for o, k in zip(outcomes, scales)),
        trials=sum(o.trials for o in outcomes),
        failed=failed,
    )


def run_until(deadline: float, jobs, digests, passes: List[PassStats]) -> None:
    """Run passes, at least one, while the next is expected to end nearer
    to `deadline` than stopping now would."""
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, digests))
        t1 = time.perf_counter()
        if t1 + (t1 - t0) / 2 >= deadline:
            return


def nearest_rank(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def setup(args, workdir: Path):
    mods = workloads.import_tscodes(ROOT / "src")
    return mods, workloads.make_jobs(args.workload, mods, args.seed, workdir)


def stage_metrics(passes: List[PassStats]) -> Dict[str, float]:
    simulate_s = sum(p.simulate_s for p in passes)
    return {
        "schedule_s": statistics.median(p.schedule_s for p in passes),
        "sim_trials_per_s": sum(p.trials for p in passes) / simulate_s if simulate_s else 0.0,
    }


def measure(args, workdir: Path):
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods, jobs = setup(args, workdir)
        raw_setup_s.append(time.perf_counter() - t0)
        setup_s.append(raw_setup_s[-1] * speed.normalize(speed.probe(4 * speed.PROBE_REFERENCE_S)))
    digests: Dict[str, str] = {}
    passes: List[PassStats] = []
    run_until(time.perf_counter() + args.seconds, jobs, digests, passes)
    med = statistics.median
    # Median over passes of the build + check time of each job that has one.
    per_job_verify = [t for t in (med(ts) for ts in zip(*(p.verify for p in passes))) if t]
    metrics = {
        "setup_s": (med(setup_s), "s"),
        "wall_s": (med(p.wall for p in passes), "s"),
        "verify_s": (sum(per_job_verify), "s"),
        "verify_max_s": (max(per_job_verify), "s"),
        "jobs_per_s": (med(len(jobs) / p.wall for p in passes), "jobs/s"),
        "job_p50_ms": (1e3 * med(med(p.latency) for p in passes), "ms"),
        "job_tail_ms": (
            1e3 * med(nearest_rank(p.latency, TAIL_PERCENTILE) for p in passes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "raw_setup_s": med(raw_setup_s),
        "raw_wall_s": med(p.raw_wall for p in passes),
        "probe_ms": 1e3 * med(p.probe for p in passes),
        "job_tail_ms": f"p{TAIL_PERCENTILE} (nearest rank) of the {len(jobs)} "
                       f"jobs of a pass, median over {len(passes)} passes",
        **stage_metrics(passes),
    }
    return passes, len(jobs), metrics, info


def trace(args, workdir: Path):
    mods, jobs = setup(args, workdir)
    digests: Dict[str, str] = {}
    passes: List[PassStats] = []
    run_until(time.perf_counter() + args.seconds / 2, jobs, digests, passes)
    with Tracer(mods) as tracer:
        tracer.job = "setup"
        t0 = time.perf_counter()
        traced_jobs = workloads.make_jobs(args.workload, mods, args.seed, workdir)
        traced_setup = time.perf_counter() - t0
        traced = run_pass(traced_jobs, digests, tracer)
    wall_ms = 1e3 * (traced_setup + traced.raw_wall)
    units = dict(metric_names())
    metrics = {name: (value, units[name]) for name, value in tracer.metrics().items()}
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    metrics["bench.loop_ms"] = (wall_ms - tracer.top_level_ns() / 1e6, "ms")
    metrics["trace.overhead_s"] = (
        traced.wall - statistics.median(p.wall for p in passes), "s")
    for name, value in stage_metrics(passes).items():
        metrics[name] = (value, dict(EXTRA_LAYER_METRICS)[name])
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start_ns", "end_ns", "parent", "job"],
         "spans": tracer.spans}))
    info = {"passes": len(passes), "traced_passes": 1,
            "jobs_per_pass": len(jobs), "spans": str(spans_file.relative_to(ROOT))}
    return passes + [traced], len(jobs), metrics, info


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    src = ROOT / "src" / "tscodes"
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        passes, jobs, metrics, info = (trace if args.trace else measure)(args, workdir)
    except ImportError as exc:
        print(f"perfbench: cannot load tscodes: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    attempted = jobs * len(passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics["error_rate"] = (failed / attempted, "fraction")
    else:
        info["error_rate"] = failed / attempted
    print(json.dumps({"info": {**metadata(), **info}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
