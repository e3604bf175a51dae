"""Outside-in tracing: timing wrappers on the public functions of tscodes.

While a Tracer is installed, each wrapped module attribute (or class
attribute, for Tableau methods) is replaced by a wrapper that records one
span per call.  Calls between tscodes modules go through module attributes,
so the wrappers see them without any change to the program.  Functions not
listed here (Pauli and Basis methods, pauli.commutes, gf2.dot, ...) run
hundreds of thousands of times per instance; their cost lands in the self
time of the wrapped caller.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every wrapped function, grouped by layer.
WRAPPED: Tuple[Tuple[str, str], ...] = tuple(
    (module, attr)
    for module, attrs in (
        ("embed_graph", "build dual medial_with_origin is_bipartite "
         "simplify_parallel from_json_dict"),
        ("colex", "construct_A validate_colex from_json_dict"),
        ("hypergraph", "promote bombin_hypergraph validate_H three_edge_color "
         "derived_graph cycle_space canonical_face_cycles bridged_structure "
         "contract_rank3"),
        ("pauli", "center centralizer cycle_operator phase_product"),
        ("gf2", "kernel span_vectors"),
        ("analyzer", "theorem2_pipeline theorem3_pipeline bombin_pipeline "
         "build_code distance_bound dependency_check nontrivial_cycle_checks "
         "distinctness_check exact_distance report_json"),
        ("scheduler", "decompose build_schedule simulate_syndrome "
         "Tableau.measure Tableau.randomize schedule_json_dict"),
        ("cli", "main"),
        ("lattices", "theta_graph torus_grid triangular_torus petersen_graph "
         "honeycomb_torus"),
    )
    for attr in attrs.split()
)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(m for m, _ in WRAPPED))

# Exact counts derived from arguments, return values and raised errors:
# name -> (wrapped function, update(args, result, exc) -> increment).
_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "pauli.center.pairs": ("pauli.center", lambda a, r, e: a[0].dim ** 2),
    "gf2.kernel.cells": ("gf2.kernel", lambda a, r, e: len(a[0]) * a[1]),
    "gf2.span_vectors.vectors": (
        "gf2.span_vectors", lambda a, r, e: 0 if e else len(r)),
    "analyzer.build_code.qubits": (
        "analyzer.build_code", lambda a, r, e: 0 if e else r.n),
    "analyzer.build_code.gauge_dim": (
        "analyzer.build_code", lambda a, r, e: 0 if e else r.gauge.dim),
    # distance_bound callers report any TscodesError as a skipped check
    # (QuotientTooLarge from th3 4x4 on, GaugeMismatch on bombin codes).
    "analyzer.skipped_checks": (
        "analyzer.distance_bound",
        lambda a, r, e: int(e is not None and _is_tscodes_error(e))),
    "scheduler.decompose.links": (
        "scheduler.decompose", lambda a, r, e: 0 if e else len(r)),
    "scheduler.build_schedule.time_steps": (
        "scheduler.build_schedule", lambda a, r, e: 0 if e else r.time_steps),
    "scheduler.simulate_syndrome.trials": (
        "scheduler.simulate_syndrome", lambda a, r, e: 0 if e else r.trials),
    "cli.main.nonzero_exits": ("cli.main", lambda a, r, e: int(e is None and r != 0)),
}
MEASURE = "scheduler.Tableau.measure"


def _is_tscodes_error(exc: BaseException) -> bool:
    return any(cls.__name__ == "TscodesError" for cls in type(exc).__mro__)


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric a Tracer reports."""
    names = []
    for module, attr in WRAPPED:
        names += [(f"{module}.{attr}.calls", "count"),
                  (f"{module}.{attr}.self_ms", "ms")]
    names += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    names += [(name, "count") for name in _COUNTS]
    names.append((f"{MEASURE}.per_trial", "calls/trial"))
    return names


class Tracer:
    """Installs the wrappers on a set of loaded tscodes modules.

    Spans are kept in memory as (name, start_ns, end_ns, parent, job) with
    parent the index of the enclosing span, or None at the top level.
    """

    def __init__(self, mods) -> None:
        self.mods = mods
        self.spans: List[Optional[tuple]] = []
        self.job: Optional[str] = None
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[int]] = []  # [span index, child ns]
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        hooks: Dict[str, List[Tuple[str, Callable]]] = {}
        for count, (fname, update) in _COUNTS.items():
            hooks.setdefault(fname, []).append((count, update))
        for module, attr in WRAPPED:
            owner = getattr(self.mods, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            name = f"{module}.{attr}"
            if fn is None:  # removed from the program: its metrics read 0
                print(f"perfbench: {name} not found, not traced", file=sys.stderr)
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn, hooks.get(name, ())))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable, hooks) -> Callable:
        spans, stack = self.spans, self._stack
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else None
            spans.append(None)
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.job)
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                for count, update in hooks:
                    counts[count] += update(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def top_level_ns(self) -> int:
        """Summed duration of the spans no other span encloses."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] is None)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        layer_ns: Counter = Counter()
        for module, attr in WRAPPED:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
            layer_ns[module] += self.self_ns[name]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_ns[layer] / 1e6
        for count in _COUNTS:
            out[count] = self.counts[count]
        trials = self.counts["scheduler.simulate_syndrome.trials"]
        out[f"{MEASURE}.per_trial"] = self.calls[MEASURE] / trials if trials else 0.0
        return out
