"""Output oracle: what a job must produce for it to count as correct.

The oracle checks only what the program claims: exit codes and error types,
(n, k, r, s) against closed forms, the verify flags, and syndrome agreement.
It does not pin schedule contents or time_steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

Params = Tuple[int, int, int, int]

# (n, k, r, s) the paper reports for the two pipelines on the m x m torus grid.
PAPER_VALUES = {
    ("theorem2", 2): (48, 2, 32, 14),
    ("theorem2", 3): (108, 1, 72, 35),
    ("theorem3", 2): (80, 2, 48, 30),
    ("theorem3", 3): (180, 1, 108, 71),
}


def pipeline_params(pipeline: str, edges: int, delta: int) -> Params:
    """Closed form of the theorem2/theorem3 codes of a regular torus seed
    with `edges` edges; delta is 1 when the seed's dual is bipartite."""
    n, r = {"theorem2": (6 * edges, 4 * edges),
            "theorem3": (10 * edges, 6 * edges)}[pipeline]
    k = 1 + delta
    return (n, k, r, n - k - r)


def grid_params(pipeline: str, m: int) -> Params:
    """The m x m torus grid has 2m^2 edges; its dual is bipartite iff m is even."""
    return pipeline_params(pipeline, 2 * m * m, int(m % 2 == 0))


def bombin_params(colex_vertices: int, genus: int = 1) -> Params:
    """[[3V, 2g, 2V + 2g - 2]] for the dual-expansion code of a 2-colex."""
    n, k, r = 3 * colex_vertices, 2 * genus, 2 * colex_vertices + 2 * genus - 2
    return (n, k, r, n - k - r)


@dataclass(frozen=True)
class Expect:
    exit: int = 0
    error: Optional[str] = None  # TscodesError subclass name
    params: Optional[Params] = None
    output: Optional[str] = None  # exact expected output text


@dataclass(frozen=True)
class Outcome:
    exit: int
    error: Optional[str]
    text: str  # the report the job produced; digested for determinism
    verify_s: float = 0.0  # time spent building the code and checking it
    schedule_s: float = 0.0
    simulate_s: float = 0.0
    trials: int = 0


def check(expect: Expect, outcome: Outcome) -> List[str]:
    """Every way the outcome breaks the expectation; empty when correct."""
    problems = []
    if outcome.exit != expect.exit:
        problems.append(f"exit code {outcome.exit}, expected {expect.exit}")
    if outcome.error != expect.error:
        problems.append(f"error {outcome.error}, expected {expect.error}")
    if expect.output is not None:
        if outcome.text != expect.output:
            problems.append("output differs from the expected text")
    elif expect.exit == 0:
        try:
            report = json.loads(outcome.text)
        except json.JSONDecodeError:
            return problems + ["report is not JSON"]
        problems += check_report(report, expect.params)
    return problems


def check_report(report: dict, params: Optional[Params]) -> List[str]:
    problems = []
    if "n" in report:
        got = (report["n"], report["k"], report["r"], report["s"])
        if params is not None and got != params:
            problems.append(f"(n, k, r, s) = {got}, closed form {params}")
        if got[0] != sum(got[1:]):
            problems.append(f"n != k + r + s in {got}")
        predicted = report.get("predicted") or {}
        bad = [key for key in predicted if report.get(key) != predicted[key]]
        if bad:
            problems.append(f"report differs from its own prediction on {bad}")
    elif params is not None:
        problems.append("report has no (n, k, r, s)")
    if report.get("verified") is False:
        problems.append("verified is false")
    checks = report.get("checks", {})
    failed = [name for name, ok in checks.get("dependencies", {}).items() if not ok]
    failed += [key for key in ("nontrivial_have_rank3", "nontrivial_outside_gauge")
               if checks.get(key) is False]
    if failed:
        problems.append(f"failed checks: {failed}")
    sim = report.get("simulation")
    if sim is not None:
        for key in ("agreement", "direct_agreement"):
            if sim[key] < 1.0:
                problems.append(f"{key} = {sim[key]}")
    return problems
