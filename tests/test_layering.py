"""Static layering rules of the tscodes package, checked on its syntax trees.

- Every import is at module level: a function-level import hides a
  dependency (or an import cycle) from the reader.
- The retired `PauliSpan` wrapper does not come back; spans are `gf2.Basis`.
- The retired derived-graph re-embedding does not come back either: the
  distinctness check reads `hypergraph.contracted_degrees` and contracts
  the source colex's promoted edges (`analyzer.simplified_contraction`).
- `analyzer` and `hypergraph` work on (x, z) int pairs only and never name
  the `Pauli` dataclass, which stays at the API edge.
- `scheduler` reads no face structure: link decompositions are formed by
  the face walk in `hypergraph` and carried by each generator.
- The hypergraph numbers its links once (`Hypergraph.links`, with
  `first_link` and `link_ops`), so the retired `DerivedGraph`, `DLink`,
  `derived_graph` and `link_key` do not come back, and `scheduler` never
  names a link's triangle `side` or an `origin`: it groups links by
  `Link.step`, and the triangle-side convention lives in `hypergraph`.
- `analyzer.distance_bound` never names `span_vectors`: ell is found by the
  information-set search in `gf2.min_coset_weight`, not by listing all
  2^dim vectors of the projected trivial span.
- The retired `LemmaViolation` and `_assert_predicted` do not come back: a
  check returns its verdict with a witness instead of raising, and the CLI
  compares each pipeline's `predicted` closed forms with its report.
- The scheduler checks each generator's decomposition once, in time
  order, inside `build_schedule`: the retired `_signed_decomposition` and
  `decompose` do not come back, and outside the tableau's own row products
  `scheduler` calls `pauli.phase_product` only in `build_schedule`.
  `simulate_syndrome` measures the signs the schedule carries with three
  `Tableau.measure_all` calls per trial and never calls `Tableau.measure`.
- Theorems 2 and 3 share one promotion routine, so the per-theorem copies
  do not come back: no `fprime_class` or `eface_seed_face` callback turns a
  kept edge into an inner-edge color (`hypergraph.promote` takes one
  seed-face class map), there is no second `class_of_eface` map beside
  `class_of_face`, and `promote` builds each face record directly, without
  the `face_build` and `promoted_info` side tables.
"""

import ast
from pathlib import Path

import pytest

import tscodes

SOURCES = sorted(Path(tscodes.__file__).parent.glob("*.py"))
INT_ONLY = {"analyzer.py", "hypergraph.py"}
FACE_STRUCTURE = {
    "faces", "_other_face", "bridged_structure", "triangle_of_vertex",
    "fprime_by_wpair",
}
RETIRED = {
    "PauliSpan", "derived_embedding", "contract_rank3", "_contract_abstract",
    "_arbitrary_embedding", "LemmaViolation", "_assert_predicted",
    "fprime_class", "eface_seed_face", "class_of_eface", "face_build",
    "promoted_info", "DerivedGraph", "DLink", "derived_graph", "link_key",
    "_signed_decomposition", "decompose",
}
TRIANGLE_SIDES = {"side", "origin"}


def _names(tree):
    """(line, identifier) of every name, attribute, import alias and
    definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name
            yield node.lineno, node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name


def test_sources_found():
    assert {"analyzer.py", "hypergraph.py", "pauli.py", "scheduler.py"} <= {
        p.name for p in SOURCES
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_layering(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad += [
                f"line {node.lineno}: function-level import in {fn.name}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    for line, name in _names(tree):
        if name in RETIRED:
            bad.append(f"line {line}: retired {name}")
        if name == "Pauli" and path.name in INT_ONLY:
            bad.append(f"line {line}: Pauli in an int-only module")
        if name in FACE_STRUCTURE and path.name == "scheduler.py":
            bad.append(f"line {line}: face structure {name} in the scheduler")
        if name in TRIANGLE_SIDES and path.name == "scheduler.py":
            bad.append(f"line {line}: triangle side {name} in the scheduler")
    assert not bad, f"{path.name}: " + "; ".join(sorted(set(bad)))


def test_distance_bound_enumerates_no_span():
    path = Path(tscodes.__file__).parent / "analyzer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "distance_bound"
    ]
    bad = [f"line {line}" for line, name in _names(fn) if name == "span_vectors"]
    assert not bad, "distance_bound names span_vectors: " + "; ".join(bad)


def _scheduler_defs():
    """Top-level function and class definitions of scheduler.py by name."""
    path = Path(tscodes.__file__).parent / "scheduler.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_scheduler_forms_signed_products_once():
    bad = [
        f"{name} line {line}"
        for name, node in _scheduler_defs().items()
        if name not in ("build_schedule", "Tableau")
        for line, ident in _names(node)
        if ident == "phase_product"
    ]
    assert not bad, "phase_product outside build_schedule: " + "; ".join(bad)


def test_simulation_batches_its_measurements():
    calls = [
        node.func.attr
        for node in ast.walk(_scheduler_defs()["simulate_syndrome"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "measure" not in calls
    assert calls.count("measure_all") == 3
