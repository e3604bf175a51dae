"""Static layering rules of the tscodes package, checked on its syntax trees.

- Every import is at module level: a function-level import hides a
  dependency (or an import cycle) from the reader.
- The retired `PauliSpan` wrapper does not come back; spans are `gf2.Basis`.
- The retired derived-graph re-embedding does not come back either: the
  distinctness check reads `hypergraph.contracted_degrees` and contracts
  the source colex's promoted edges (`analyzer.simplified_contraction`).
  Those edges form a matching, so `simplified_contraction` splices their
  rotations itself and calls `embed_graph.build` once: the general
  loop-tolerant `_MutableMap`, `contract_edges` and `simplify_parallel`,
  and the `LoopCreated` and `ContractionDisconnects` errors only they
  raised, do not come back (they are the oracle's, in
  `tests/reference_contraction.py`).
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
  Brouwer-Zimmermann search in `gf2.min_coset_weight` (row subsets over
  disjoint information sets, stopped once the best weight meets the t*r
  lower bound), not by listing all 2^dim vectors of the projected trivial
  span.
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
- `analyzer.distance_bound` returns ell itself: the retired `DistanceBound`
  wrapper, whose JSON form was always its `ell`, does not come back.
- `cli.py` spells each `gen` family and each pipeline name once, as a key of
  its `FAMILIES` or `PIPELINES` table, which both the parser's `choices` and
  the dispatch read; a second list of names does not come back.
- Each generator's cycle operator is derived once, in `build_code`, and
  carried as `Generator.op`: `scheduler` never calls `pauli.cycle_operator`,
  and `dependency_check` multiplies the generators' `op` pairs.  The
  commutation check reads each link's anticommuting cycles by bilinearity,
  so the per-qubit `anticommuting_masks` over dense cycle operators does not
  come back (it is the oracle in `tests/reference_pauli.py`).
- The cycle space is one sweep over the incidence matrix's columns:
  `hypergraph.cycle_space` hands the edges' vertex masks to
  `gf2.relations` and reads neither `incidence_rows` nor a reduced
  echelon form (`Basis.rows`), and neither does `relations`, which formats
  no bit string.  The retired `gf2.kernel` (rows transposed into columns for
  the same sweep) does not come back, and `gf2` defines no `rank`: a span's
  rank is its `Basis.dim`.
- `pauli.center`, the stabilizer's test oracle, works on the span's raw
  rows: it builds no `Pauli` (no `commutes` or `from_vec` per pair) and
  hands its symmetric Gram matrix to `gf2.relations` as columns.
- `analyzer.build_code` reads the stabilizer off the Gram matrix of the
  cycle operators, filled from their rank-3 edges by
  `_anticommuting_cycles`, as the XORs its `gf2.relations` pick; it builds
  no second `Basis` over the cycle operators, and the retired Zassenhaus
  `gf2.intersection` does not come back (it is the oracle's, in
  `tests/reference_gf2.py`).
- A colex's loop generators come from one pruned cycle walk
  (`analyzer._lightest_loop`, which checks the prefix rule edge by edge as
  the flank rule), so the retired `LOOP_SPAN_CAP` does not come back, and
  neither the walk nor `_completion_loops` lists a span (`span_vectors`),
  gives up on a large one (`QuotientTooLarge`) or tries candidates against
  `first_bad_prefix`.
- The checks that run on a built code read what `build_code` derived:
  the lemma (`nontrivial_cycle_checks`) XORs the quotient cycles'
  operators (`SubsystemCode.quotient_ops`) and reads each `Generator.op`,
  and `exact_distance` reads C(S) = G + L from the gauge rows and those
  operators.  Neither they nor `_coset_reps` call `cycle_operator` or take
  a kernel or a column sweep (`relations`), and the retired `_cycle_vec` and `pauli.centralizer` do not
  come back (the latter is the oracle in `tests/reference_pauli.py`).
- `colex.recover_bipartite` reads the recovered graph off the colex faces:
  it contracts nothing, takes no dual and runs no bipartiteness check, and
  the retired `contract_and_drop_loops` does not come back (it is the
  oracle's, in `tests/reference_contraction.py`).
- `analyzer.exact_distance` runs the coset search of `gf2.min_coset_weight`
  on doubled weights and lists only XORs of the quotient operators, never
  the 2^dim vectors of C(S).
- The set-bit walks of `gf2` and `scheduler` step from the top
  (`q = v.bit_length() - 1; v ^= 1 << q`): no `while` body negates an int,
  since `v & -v` costs CPython an extra two's-complement pass per bit.  The
  once-per-measurement picks `anti & -anti` and `free & -free` sit outside
  any `while` loop.
- The tableau packs each qubit's stabilizer and destabilizer columns into
  one int per Pauli part (`Tableau.xcol` / `zcol`), so the four separate
  column lists `cx`, `cz`, `dX` and `dZ` do not come back in `scheduler`,
  and each pivot-walk `while` body of `measure_all` subscripts exactly two
  column lists: one read for the parity and one update.
- Value records are `typing.NamedTuple` classes; `@dataclass` stays on the
  five types that need what a tuple lacks (see
  `test_dataclasses_only_where_a_tuple_falls_short`).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import tscodes
from tscodes import analyzer, cli, colex, hypergraph, scheduler

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
    "_signed_decomposition", "decompose", "DistanceBound", "anticommuting_masks",
    "LOOP_SPAN_CAP", "centralizer", "_cycle_vec", "contract_and_drop_loops",
    "_MutableMap", "contract_edges", "simplify_parallel", "LoopCreated",
    "ContractionDisconnects", "kernel", "intersection",
}
TRIANGLE_SIDES = {"side", "origin"}
SPLIT_COLUMNS = {"cx", "cz", "dX", "dZ"}
DATACLASSES = {"Hypergraph", "EmbeddedGraph", "SubsystemCode", "Pauli", "PipelineData"}
RECORDS = {
    analyzer: ("Generator", "NontrivialReport", "DependencyReport", "DistinctnessVerdict"),
    colex: ("TwoColex", "RecoveredBipartite"),
    hypergraph: (
        "HEdge", "Triangle", "FaceRec", "Link", "ConditionReport", "HReport",
        "HypercycleSpace", "FaceCycle",
    ),
    scheduler: ("ScheduledLink", "MeasurementSchedule", "SyndromeReport"),
}


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
        if name in SPLIT_COLUMNS and path.name == "scheduler.py":
            bad.append(f"line {line}: split column list {name} in the scheduler")
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


def test_loop_search_walks_cycles():
    defs = _defs("analyzer")
    bad = [
        f"{name} line {line}: {ident}"
        for name in ("_completion_loops", "_lightest_loop")
        for line, ident in _names(defs[name])
        if ident in ("span_vectors", "QuotientTooLarge", "first_bad_prefix")
    ]
    assert not bad, "the loop search lists or caps a span: " + "; ".join(bad)


def test_post_build_checks_read_the_code():
    defs = _defs("analyzer")
    bad = [
        f"{name} line {line}: {ident}"
        for name in ("_coset_reps", "nontrivial_cycle_checks", "exact_distance")
        for line, ident in _names(defs[name])
        if ident in ("cycle_operator", "centralizer", "kernel", "relations")
    ]
    assert not bad, "a post-build check walks cycles: " + "; ".join(bad)


def test_recovery_reads_the_faces():
    names = {ident for _, ident in _names(_defs("colex")["recover_bipartite"])}
    assert not names & {"contract_and_drop_loops", "dual", "is_bipartite"}


def test_distinctness_splices_the_matching():
    fn = _defs("analyzer")["simplified_contraction"]
    calls = [
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert calls.count("build") == 1
    names = {ident for _, ident in _names(fn)}
    assert not names & {
        "_MutableMap", "contract_edges", "simplify_parallel",
        "contract_and_drop_loops", "contract_rank3", "derived_embedding",
    }


def test_exact_distance_searches_cosets():
    fn = _defs("analyzer")["exact_distance"]
    calls = [
        node for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "min_coset_weight" in {node.func.attr for node in calls}
    listed = [
        {ident for arg in node.args for _, ident in _names(arg)}
        for node in calls
        if node.func.attr == "span_vectors"
    ]
    assert listed and all("quotient_ops" in names for names in listed)
    assert not any("rows" in names or "gauge" in names for names in listed)


def _defs(module):
    """Top-level function and class definitions of a tscodes module by name."""
    path = Path(tscodes.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _scheduler_defs():
    return _defs("scheduler")


def test_scheduler_reads_generator_operators():
    bad = [
        f"{name} line {line}"
        for name, node in _scheduler_defs().items()
        for line, ident in _names(node)
        if ident == "cycle_operator"
    ]
    assert not bad, "scheduler calls cycle_operator: " + "; ".join(bad)


def test_dependency_check_reads_generator_operators():
    names = {ident for _, ident in _names(_defs("analyzer")["dependency_check"])}
    assert "op" in names
    assert "cycle_operator" not in names


def test_kernel_formats_no_bit_strings():
    bad = [
        f"relations line {node.lineno}"
        for node in ast.walk(_defs("gf2")["relations"])
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue))
        or isinstance(node, ast.Name) and node.id in ("format", "bin", "str")
        or isinstance(node, ast.Slice) and node.step is not None
    ]
    assert not bad, "the column sweep formats bit strings: " + "; ".join(bad)


def test_center_works_on_raw_rows():
    fn = _defs("pauli")["center"]
    names = {ident for _, ident in _names(fn)}
    assert not names & {"Pauli", "commutes", "from_vec"}
    calls = [
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "relations" in calls


def test_stabilizer_is_read_off_the_gram():
    calls = [
        node for node in ast.walk(_defs("analyzer")["build_code"])
        if isinstance(node, ast.Call)
    ]
    called = {ident for node in calls for _, ident in _names(node.func)}
    assert {"_anticommuting_cycles", "relations"} <= called
    bad = [
        f"line {node.lineno}" for node in calls
        if "Basis" in {ident for _, ident in _names(node.func)} and any(
            isinstance(arg, ast.Name) and arg.id == "ops" for arg in node.args
        )
    ]
    assert not bad, "build_code spans the cycle operators: " + "; ".join(bad)


def test_gf2_defines_no_rank():
    assert "rank" not in _defs("gf2")


def test_cycle_space_sweeps_the_columns():
    fn = _defs("hypergraph")["cycle_space"]
    calls = [
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "relations" in calls
    read = {
        name: {ident for _, ident in _names(_defs(module)[name])}
        for module, name in (("hypergraph", "cycle_space"), ("gf2", "relations"))
    }
    bad = [
        f"{name}: {ident}"
        for name, idents in read.items()
        for ident in sorted(idents & {"incidence_rows", "_incidence_rows", "rows"})
    ]
    assert not bad, "the cycle space reads rows: " + "; ".join(bad)


@pytest.mark.parametrize("module", ["gf2", "scheduler"])
def test_bit_walks_negate_nothing(module):
    path = Path(tscodes.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = sorted({
        f"line {node.lineno}"
        for loop in ast.walk(tree)
        if isinstance(loop, ast.While)
        for stmt in loop.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    })
    assert not bad, f"unary minus in a while body of {module}: " + "; ".join(bad)


def test_pivot_walks_touch_two_columns():
    (fn,) = [
        node for node in ast.walk(_scheduler_defs()["Tableau"])
        if isinstance(node, ast.FunctionDef) and node.name == "measure_all"
    ]
    walks = [
        loop for loop in ast.walk(fn)
        if isinstance(loop, ast.While) and ast.unparse(loop.test) == "walk"
    ]
    assert len(walks) == 2
    for loop in walks:
        subscripted = sorted(
            ast.unparse(node.value)
            for stmt in loop.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Subscript)
        )
        assert subscripted == ["xcol", "zcol"], f"line {loop.lineno}: {subscripted}"


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


def test_cli_names_each_family_and_pipeline_once():
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    keys = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in ("FAMILIES", "PIPELINES"):
                    keys[target.id] = [k.value for k in node.value.keys]
    assert keys == {"FAMILIES": list(cli.FAMILIES), "PIPELINES": list(cli.PIPELINES)}
    names = set(cli.FAMILIES) | set(cli.PIPELINES)
    counts = Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
    )
    assert counts == Counter(names), "names spelled outside their table: " + ", ".join(
        sorted(name for name, c in counts.items() if c > 1)
    )


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (
        isinstance(target, ast.Name) and target.id == "dataclass"
        or isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def test_dataclasses_only_where_a_tuple_falls_short():
    """`@dataclass` decorates only these five classes; every other value
    record is a `typing.NamedTuple`, which builds in under half the time of
    a frozen dataclass and compiles one method at import where a frozen
    dataclass compiles six.

    - `Hypergraph` and `EmbeddedGraph` keep `cached_property` values in an
      instance `__dict__`, which a tuple does not have.
    - `SubsystemCode` keeps them too, and the pipelines assign its
      `pipeline` and `predicted` after `build_code` returns it.
    - `Pauli` caches `support` in its `__dict__`, and tests pin its
      `dataclasses.astuple` and `FrozenInstanceError`.
    - `PipelineData` is read field by field with `dataclasses.fields`.
    """
    found = {
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(d) for d in node.decorator_list)
    }
    assert sorted(name for _, name in found) == sorted(DATACLASSES), sorted(found)


def test_value_records_are_named_tuples():
    bad = [
        f"{module.__name__}.{name}"
        for module, names in RECORDS.items()
        for name in names
        if not (issubclass(getattr(module, name), tuple) and getattr(module, name)._fields)
    ]
    assert not bad, "records that are not NamedTuples: " + ", ".join(bad)
