"""Topological subsystem codes from embedded graphs and 3-valent hypergraphs.

Construction and verification engine: 2-colexes from arbitrary or bipartite
seeds, face promotion into H1-H4 hypergraphs, symplectic GF(2) code analysis,
and three-round syndrome-measurement schedules checked by stabilizer-tableau
simulation.
"""

from .analyzer import (
    SubsystemCode,
    bombin_check,
    bombin_pipeline,
    build_code,
    colex_code,
    dependency_check,
    distance_bound,
    distinctness_check,
    exact_distance,
    nontrivial_cycle_checks,
    theorem2_pipeline,
    theorem3_pipeline,
)
from .colex import (
    TwoColex,
    construct_1,
    construct_A,
    corollary2_check,
    recover_bipartite,
    validate_colex,
)
from .embed_graph import (
    EmbeddedGraph,
    build,
    contract_edges,
    dual,
    genus,
    is_bipartite,
    is_isomorphic,
    medial,
    medial_with_origin,
)
from .hypergraph import (
    Hypergraph,
    bombin_hypergraph,
    canonical_face_cycles,
    contracted_degrees,
    cycle_space,
    promote,
    three_edge_color,
    validate_H,
)
from .pauli import (
    Pauli,
    center,
    centralizer,
    commutes,
    cycle_operator,
    first_bad_prefix,
    link_operator,
    phase_product,
)
from .scheduler import (
    MeasurementSchedule,
    Tableau,
    build_schedule,
    simulate_syndrome,
)

__version__ = "0.1.0"
