"""Command-line front end: generate fixtures, run pipelines, verify, export.

Subcommands: gen, build, schedule, verify, export.  All randomness flows from
--seed; identical configurations produce byte-identical JSON reports.
Exit codes: 0 ok, 1 a check failed (named on stderr with its witness), 2 bad
input (named on stderr as "error: <type>: <message>").  Each gen family and
each pipeline is one entry of FAMILIES or PIPELINES, which both the parser
and the dispatch read.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import analyzer, colex, embed_graph, hypergraph, lattices, scheduler
from .errors import (
    BadParams,
    NotThreeEdgeColorable,
    QuotientTooLarge,
    TscodesError,
    UnknownFormat,
)


def _write(out: Optional[str], text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as exc:
        raise BadParams(f"cannot write {out}: {exc.strerror}")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UnknownFormat(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnknownFormat(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UnknownFormat(f"{path}: not valid JSON ({exc})")


def _sniff(data: dict) -> str:
    if not isinstance(data, dict):
        raise UnknownFormat("input JSON is not an object")
    if "rank2" in data or "rank3" in data:
        return "hypergraph"
    if "face_color" in data:
        return "colex"
    if "edges" in data and "rotation" in data:
        return "graph"
    raise UnknownFormat("input JSON is neither graph, colex nor hypergraph")


def _honeycomb_colex(m: int, n: int) -> str:
    cx = colex.validate_colex(lattices.honeycomb_torus(m, n))
    if cx is None:
        raise BadParams(
            f"honeycomb-torus {m}x{n} is not 3-face-colorable; use multiples of 3"
        )
    return colex.to_json(cx)


def _blown_up(seed: embed_graph.EmbeddedGraph) -> str:
    return colex.to_json(colex.construct_A(seed))


# gen family -> (parameter count, fixture(*params) -> its JSON text)
FAMILIES = {
    "torus-grid": (2, lambda m, n: embed_graph.to_json(lattices.torus_grid(m, n))),
    "triangular-torus": (
        2, lambda m, n: embed_graph.to_json(lattices.triangular_torus(m, n))
    ),
    "theta": (0, lambda: embed_graph.to_json(lattices.theta_graph())),
    "petersen": (0, lambda: embed_graph.to_json(lattices.petersen_graph())),
    "honeycomb-torus": (2, _honeycomb_colex),
    "lattice-4-6-12": (2, lambda m, n: _blown_up(lattices.triangular_torus(m, n))),
    "lattice-4-8": (2, lambda m, n: _blown_up(lattices.torus_grid(m, n))),
}


def cmd_gen(args: argparse.Namespace) -> int:
    arity, fixture = FAMILIES[args.family]
    if len(args.params) != arity:
        wants = f"needs {' '.join('mn'[:arity])}" if arity else "takes no parameters"
        raise BadParams(f"{args.family} {wants}")
    _write(args.out, fixture(*args.params))
    return 0


# input kind -> (the module that reads and renders it, its hypergraph)
KINDS = {
    "graph": (embed_graph, hypergraph.from_graph),
    "colex": (colex, hypergraph.from_colex),
    "hypergraph": (hypergraph, lambda h: h),
}


def _custom_code(data: dict, kind: str) -> analyzer.SubsystemCode:
    """Any input kind, validated against H1-H4 and colored if needed."""
    module, to_hypergraph = KINDS[kind]
    h = to_hypergraph(module.from_json_dict(data))
    rep = h.validation
    if not rep.all_ok:
        raise BadParams(f"input violates H1-H4: {rep.first_failure()}")
    if not rep.coloring_proper.ok or not rep.rank3_monochrome.ok:
        coloring = hypergraph.three_edge_color(h)
        if coloring is None:
            raise NotThreeEdgeColorable(
                "no proper 3-edge-coloring with monochromatic rank-3 edges"
            )
        h = h.recolored(coloring)
    return analyzer.build_code(h)


# pipeline -> (the input kind it accepts, None for any; build(data, kind) -> code)
PIPELINES = {
    "theorem2": (
        "graph", lambda d, _: analyzer.theorem2_pipeline(embed_graph.from_json_dict(d))
    ),
    "theorem3": (
        "graph", lambda d, _: analyzer.theorem3_pipeline(embed_graph.from_json_dict(d))
    ),
    "bombin": ("colex", lambda d, _: analyzer.bombin_pipeline(colex.from_json_dict(d))),
    "custom": (None, _custom_code),
}
# The default pipeline is the one that accepts every input kind.
DEFAULT_PIPELINE = next(name for name, (kind, _) in PIPELINES.items() if kind is None)
_KIND_TEXT = {"graph": "a plain graph", "colex": "a colex"}


def _build_code(args: argparse.Namespace) -> analyzer.SubsystemCode:
    data = _load_json(args.input)
    kind = _sniff(data)
    accepts, build = PIPELINES[args.pipeline]
    if accepts not in (None, kind):
        raise UnknownFormat(f"{args.pipeline} expects {_KIND_TEXT[accepts]} JSON")
    return build(data, kind)


def _full_report(
    code: analyzer.SubsystemCode, coset_cap: int
) -> Tuple[dict, List[str]]:
    """The code report and its failed checks as "<name>: <witness>" lines.
    The checks: each ``predicted`` key against the report key of the same
    name and, for a pipeline code, the span of its generators, their
    dependencies and the nontrivial cycles.  Past ``coset_cap`` ell is
    skipped, which fails nothing, and so is the nontrivial-cycle check,
    which then fails."""
    checks: dict = {}
    verdicts: Dict[str, Optional[str]] = {}  # check name -> witness, None if passed
    ell = None
    try:
        ell = analyzer.distance_bound(code, coset_cap)
    except TscodesError as exc:
        checks["distance_bound"] = f"skipped: {exc}"
    if code.pipeline is not None:
        dv = analyzer.distinctness_check(code)
        checks["six_valent_on_contraction"] = dv.six_valent
        checks["simplified_is_colex"] = dv.simplified_is_colex
        checks["distinct_from_dual_expansion"] = dv.distinct
        if not code.generators_complete:
            # Both checks below read one generator per face and the cosets
            # of their span.
            span = code.trivial.dim
            verdicts["generators"] = f"span dim {span} < s = {code.s}"
        else:
            dep = analyzer.dependency_check(code)
            checks["dependencies"] = {name: ok for name, ok in dep.identities}
            checks["independent_generators"] = dep.rank
            verdicts["dependencies"] = dep.witness
            try:
                nt = analyzer.nontrivial_cycle_checks(code, coset_cap)
            except QuotientTooLarge as exc:
                # The lemma check did not run, so it cannot pass.
                checks["nontrivial_cosets"] = f"skipped: {exc}"
                verdicts["nontrivial_cycles"] = f"skipped: {exc}"
            else:
                checks["nontrivial_cosets"] = nt.cosets
                checks["nontrivial_have_rank3"] = nt.all_have_rank3
                checks["nontrivial_outside_gauge"] = nt.none_in_gauge
                verdicts["nontrivial_cycles"] = nt.witness
    checks["exact_distance"] = analyzer.exact_distance(code)
    report = analyzer.code_report(code, ell, checks)
    for key, want in (code.predicted or {}).items():
        if report[key] != want:
            verdicts[key] = f"computed {report[key]}, closed form {want}"
    return report, [f"{name}: {w}" for name, w in verdicts.items() if w is not None]


def _exit_code(failed: List[str]) -> int:
    for line in failed:
        sys.stderr.write(f"check failed: {line}\n")
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    """build and verify: write the report with every check; verify also
    records whether all of them passed."""
    report, failed = _full_report(_build_code(args), args.coset_cap)
    if args.command == "verify":
        report["verified"] = not failed
    _write(args.out, analyzer.report_json(report))
    return _exit_code(failed)


def cmd_schedule(args: argparse.Namespace) -> int:
    code = _build_code(args)
    sched = scheduler.build_schedule(code, args.model)
    rep = scheduler.simulate_syndrome(
        code, sched, trials=args.trials, seed=args.seed, strict=False
    )
    payload = scheduler.schedule_json_dict(sched)
    payload["simulation"] = {**rep._asdict(), "seed": args.seed}
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True))
    failed = []
    if not rep.consistent:
        gid, trial = rep.failures[0]
        kind = code.generators[gid].kind
        failed.append(
            f"syndrome_simulation: generator {gid} ({kind}) is inconsistent in trial {trial}"
        )
    return _exit_code(failed)


def cmd_export(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    module = KINDS[_sniff(data)][0]
    _write(args.out, module.to_dot(module.from_json_dict(data)))
    return 0


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first call and shared after: parsing
    leaves it unchanged, and a process that calls `main` many times pays
    for it once."""
    parser = argparse.ArgumentParser(
        prog="tscodes",
        description="Topological subsystem codes from graphs and hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a fixture lattice")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    for name, func in (
        ("build", cmd_report),
        ("verify", cmd_report),
        ("schedule", cmd_schedule),
    ):
        p = sub.add_parser(name)
        p.add_argument("input", help="graph / colex / hypergraph JSON file")
        p.add_argument("--pipeline", choices=PIPELINES, default=DEFAULT_PIPELINE)
        p.add_argument("--out", default=None)
        if name == "schedule":
            p.add_argument(
                "--model", choices=["relaxed", "exclusive"], default="relaxed"
            )
            p.add_argument("--trials", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument(
                "--coset-cap",
                type=int,
                default=20,
                help="cap on the quotient dimension 2k and on the dimension "
                "of the projected trivial span that ell is searched over "
                "(default %(default)s); past it the report's distance_bound "
                "reads 'skipped: ...', and past 2k nontrivial_cosets does "
                "too and the nontrivial_cycles check fails, exit 1",
            )
        p.set_defaults(func=func)

    p = sub.add_parser("export", help="write a DOT rendering")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "coset_cap", 1) < 1:
        parser.error("--coset-cap must be >= 1")
    try:
        return args.func(args)
    except TscodesError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
