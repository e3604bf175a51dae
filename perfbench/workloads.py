"""The three benchmark workloads and the jobs they run.

A job is one unit a user waits for.  Every job calls tscodes the way a user
does, through the public functions of `analyzer` and `scheduler` or through
`cli.main`, and returns an Outcome the oracle can check.  All inputs are
generated with `tscodes.lattices` from the workload seed.

- ladder: "time to a verified code".  theorem2/theorem3 on m x m torus grids
  (m = 2, 3, 4, 6) and bombin on the 6x6 and 9x9 honeycomb tori, each
  followed by the checks `tscodes verify` runs.  GF(2)/symplectic
  elimination and hypergraph construction dominate; the scheduler never
  runs.  m = 8 is left out: th3 8x8 alone takes about 10 s.
- syndrome: "can I trust the schedule, and how fast".  Codes small enough
  to build in at most 0.3 s, covering the necklace, bridged, promoted and
  loop2 generator kinds; each job builds the code, schedules it under one
  model and simulates it.  Tableau sweeps take about 90% of the time.
- catalog: "many small CLI jobs".  In-process `cli.main` calls on JSON files,
  including negative fixtures that must exit 2.  The fixed cost of a job
  (argparse, JSON, colorers, face tracing) dominates.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List

from oracle import Expect, Outcome, bombin_params, grid_params, pipeline_params

NAMES = ("ladder", "syndrome", "catalog")
MODULES = ("analyzer", "cli", "colex", "embed_graph", "errors", "gf2",
           "hypergraph", "lattices", "pauli", "scheduler")
COSET_CAP = 20
SYNDROME_TRIALS = 4
CATALOG_TRIALS = 3


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Outcome]
    expect: Expect


def import_tscodes(src: Path) -> SimpleNamespace:
    """Import (again) the tscodes package found under `src` and nowhere else."""
    init = src / "tscodes" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no tscodes package at {init}")
    for name in [m for m in sys.modules if m == "tscodes" or m.startswith("tscodes.")]:
        del sys.modules[name]
    if str(src) in sys.path:
        sys.path.remove(str(src))
    sys.path.insert(0, str(src))
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"tscodes.{m}") for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent != init.parent.resolve():
        raise ImportError(f"tscodes imported from {mods.cli.__file__}, not {src}")
    return mods


def make_jobs(name: str, mods, seed: int, workdir: Path) -> List[Job]:
    """Generate the inputs of workload `name` and return its jobs in the
    seed's order."""
    rng = random.Random(seed)
    jobs = {"ladder": _ladder, "syndrome": _syndrome, "catalog": _catalog}[name](
        mods, rng, workdir)
    rng.shuffle(jobs)
    return jobs


def _verify_report(mods, code) -> str:
    """The checks `tscodes verify` runs, reported like `tscodes build`."""
    an = mods.analyzer
    checks: dict = {}
    ell = None
    try:
        ell = an.distance_bound(code, COSET_CAP)
    except mods.errors.TscodesError as exc:
        checks["distance_bound"] = f"skipped: {exc}"
    if code.pipeline is not None:
        dep = an.dependency_check(code)
        checks["dependencies"] = {name: ok for name, ok in dep.identities}
        nt = an.nontrivial_cycle_checks(code, COSET_CAP)
        checks["nontrivial_cosets"] = nt.cosets
        checks["nontrivial_have_rank3"] = nt.all_have_rank3
        checks["nontrivial_outside_gauge"] = nt.none_in_gauge
        checks["distinct_from_dual_expansion"] = an.distinctness_check(code).distinct
    checks["exact_distance"] = an.exact_distance(code)
    return an.report_json(an.code_report(code, ell, checks))


def _ladder(mods, rng, workdir) -> List[Job]:
    an, lat = mods.analyzer, mods.lattices

    # Functions are looked up when a job runs, so a Tracer's wrappers see them.
    def job(build: str, seed_graph) -> Callable[[], Outcome]:
        def run() -> Outcome:
            start = time.perf_counter()
            text = _verify_report(mods, getattr(an, build)(seed_graph))
            return Outcome(0, None, text, verify_s=time.perf_counter() - start)
        return run

    jobs = []
    for m in (2, 3, 4, 6):
        grid = lat.torus_grid(m, m)
        for pipeline in ("theorem2", "theorem3"):
            jobs.append(Job(f"{pipeline} torus-grid {m}x{m}",
                            job(f"{pipeline}_pipeline", grid),
                            Expect(params=grid_params(pipeline, m))))
    for m in (6, 9):
        cx = mods.colex.validate_colex(lat.honeycomb_torus(m, m))
        jobs.append(Job(f"bombin honeycomb {m}x{m}", job("bombin_pipeline", cx),
                        Expect(params=bombin_params(2 * m * m))))
    return jobs


def _syndrome(mods, rng, workdir) -> List[Job]:
    an, lat, sch = mods.analyzer, mods.lattices, mods.scheduler

    def job(build: str, seed_graph, model: str, seed: int):
        def run() -> Outcome:
            t0 = time.perf_counter()
            code = getattr(an, build)(seed_graph)
            t1 = time.perf_counter()
            sched = sch.build_schedule(code, model)
            t2 = time.perf_counter()
            rep = sch.simulate_syndrome(code, sched, trials=SYNDROME_TRIALS,
                                        seed=seed, strict=False)
            t3 = time.perf_counter()
            payload = an.code_report(code)
            payload["schedule"] = sch.schedule_json_dict(sched)
            payload["simulation"] = {
                "agreement": rep.agreement,
                "direct_agreement": rep.direct_agreement,
                "idempotent": rep.idempotent,
                "varying_links": rep.varying_links,
                "failures": [list(w) for w in rep.failures],
                "seed": seed,
            }
            text = json.dumps(payload, indent=2, sort_keys=True)
            return Outcome(0, None, text, verify_s=t1 - t0, schedule_s=t2 - t1,
                           simulate_s=t3 - t2, trials=rep.trials)
        return run

    codes = []
    for m in (2, 3):
        grid = lat.torus_grid(m, m)
        for pipeline in ("theorem2", "theorem3"):
            codes.append((f"{pipeline} torus-grid {m}x{m}",
                          f"{pipeline}_pipeline", grid,
                          grid_params(pipeline, m)))
    tri = lat.triangular_torus(2, 2)  # 12 edges; dual (honeycomb) is bipartite
    for pipeline in ("theorem2", "theorem3"):
        codes.append((f"{pipeline} triangular-torus 2x2",
                      f"{pipeline}_pipeline", tri,
                      pipeline_params(pipeline, 12, 1)))
    colex3 = mods.colex.validate_colex(lat.honeycomb_torus(3, 3))
    codes.append(("colex_code honeycomb 3x3", "colex_code", colex3, None))
    return [
        Job(f"{name} {model}", job(build, graph, model, rng.randrange(2 ** 31)),
            Expect(params=params))
        for name, build, graph, params in codes
        for model in ("relaxed", "exclusive")
    ]


_ERROR = re.compile(r"^error: (\w+):", re.MULTILINE)


def _cli_job(cli, argv: List[str], out: Path, verify: bool) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        text = out.read_text() if out.exists() else ""
        found = _ERROR.search(err.getvalue())
        return Outcome(code, found.group(1) if found else None, text,
                       verify_s=elapsed if verify else 0.0)
    return run


def _catalog(mods, rng, workdir) -> List[Job]:
    lat, eg, cx = mods.lattices, mods.embed_graph, mods.colex
    workdir.mkdir(parents=True, exist_ok=True)
    # file stem -> (gen command or None, serializing module, object)
    inputs = {
        "grid2": (["torus-grid", "2", "2"], eg, lat.torus_grid(2, 2)),
        "tri2": (["triangular-torus", "2", "2"], eg, lat.triangular_torus(2, 2)),
        "tri3": (None, eg, lat.triangular_torus(3, 3)),
        "theta": (["theta"], eg, lat.theta_graph()),
        "petersen": (["petersen"], eg, lat.petersen_graph()),
        "hc3": (["honeycomb-torus", "3", "3"], cx,
                cx.validate_colex(lat.honeycomb_torus(3, 3))),
        "hc6": (None, cx, cx.validate_colex(lat.honeycomb_torus(6, 6))),
        "l48": (["lattice-4-8", "2", "2"], cx, cx.construct_A(lat.torus_grid(2, 2))),
        "l4612": (["lattice-4-6-12", "2", "2"], cx,
                  cx.construct_A(lat.triangular_torus(2, 2))),
        # Uncolored honeycomb graphs make `custom` run three_edge_color.
        "hg6": (None, eg, lat.honeycomb_torus(6, 6)),
        "hg9": (None, eg, lat.honeycomb_torus(9, 9)),
    }
    path = {stem: workdir / f"{stem}.json" for stem in inputs}
    text = {stem: mod.to_json(obj) for stem, (_, mod, obj) in inputs.items()}
    for stem in inputs:
        path[stem].write_text(text[stem])
    path["notjson"] = workdir / "notjson.txt"
    path["notjson"].write_text("tscodes benchmark: not a JSON document\n")

    jobs = []

    def add(name: str, argv: List[str], expect: Expect, verify: bool = False):
        out = workdir / f"out-{len(jobs)}.txt"
        jobs.append(Job(name, _cli_job(mods.cli, argv, out, verify), expect))

    for stem, (gen, _, _) in inputs.items():
        if gen is not None:
            add(f"gen {' '.join(gen)}", ["gen", *gen], Expect(output=text[stem] + "\n"))
    verify = [
        ("grid2", "theorem2", grid_params("theorem2", 2)),
        ("grid2", "theorem3", grid_params("theorem3", 2)),
        ("tri2", "theorem2", pipeline_params("theorem2", 12, 1)),
        ("tri2", "theorem3", pipeline_params("theorem3", 12, 1)),
        ("tri3", "theorem2", pipeline_params("theorem2", 27, 1)),
        ("tri3", "theorem3", pipeline_params("theorem3", 27, 1)),
        ("hc3", "bombin", bombin_params(18)),
        ("hc6", "bombin", bombin_params(72)),
        ("l48", "bombin", bombin_params(32)),  # 4 colex vertices per seed edge
        ("l4612", "bombin", bombin_params(48)),
        ("hc3", "custom", None),
        ("hg6", "custom", None),
        ("hg9", "custom", None),
    ]
    for stem, pipeline, params in verify:
        add(f"verify {pipeline} {stem}",
            ["verify", str(path[stem]), "--pipeline", pipeline],
            Expect(params=params), verify=True)
    for stem, pipeline in (("hc3", "custom"), ("tri2", "theorem2")):
        for model in ("relaxed", "exclusive"):
            add(f"schedule {pipeline} {stem} {model}",
                ["schedule", str(path[stem]), "--pipeline", pipeline,
                 "--model", model, "--trials", str(CATALOG_TRIALS),
                 "--seed", str(rng.randrange(2 ** 31))],
                Expect())
    for stem in ("grid2", "tri2", "hc3", "l48"):
        _, mod, obj = inputs[stem]
        add(f"export {stem}", ["export", str(path[stem])],
            Expect(output=mod.to_dot(obj) + "\n"))
    for stem, pipeline, error in (
        ("theta", "theorem2", "OddDegreeSeed"),
        ("petersen", "theorem2", "OddDegreeSeed"),
        ("petersen", "custom", "NotThreeEdgeColorable"),
        ("notjson", "custom", "UnknownFormat"),
    ):
        add(f"verify {pipeline} {stem} (must fail)",
            ["verify", str(path[stem]), "--pipeline", pipeline],
            Expect(exit=2, error=error), verify=True)
    return jobs
