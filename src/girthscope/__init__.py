"""girthscope: enumerate connected subgraphs of bounded girth.

Library surface for the four enumerators (baseline binary partition, fast
induced, fast edge, brute-force oracle), the girth/distance primitives, the
densest-girth-k search, and the benchmark/verification harnesses.
"""

from .bench import BenchReport, bench_compare
from .edges_fast import EdgeEnumState, EdgeRunStats, enumerate_edges_fast
from .enum_core import (
    BaselineState,
    Collector,
    EnumConfig,
    SolutionSink,
    brute_force_enumerate,
    candidate_set_naive,
    enumerate_baseline,
)
from .errors import BudgetExceededError, GirthscopeError, ParseError, ValidationError
from .extremal import (
    ExtremalResult,
    densest_girth_graphs,
    format_extremal_report,
    reduce_up_to_isomorphism,
)
from .girth import (
    girth_of_adjacency,
    girth_unweighted,
    girth_weighted,
    pair_distance,
    second_distance,
)
from .graph import (
    EdgeSet,
    Graph,
    INFINITE,
    Length,
    VertexSet,
    complete_graph,
    cycle_graph,
    edge_subgraph,
    induced_subgraph,
    is_connected,
    parse_dimacs,
    parse_edge_list,
    path_graph,
    petersen_graph,
    to_edge_list,
)
from .induced_fast import InducedEnumState, InducedRunStats, enumerate_induced_fast
from .verify import all_connected_graphs, random_corpus, random_graph, run_verification

__version__ = "0.1.0"

__all__ = [
    "BaselineState",
    "BenchReport",
    "BudgetExceededError",
    "Collector",
    "EdgeEnumState",
    "EdgeRunStats",
    "EdgeSet",
    "EnumConfig",
    "ExtremalResult",
    "GirthscopeError",
    "Graph",
    "INFINITE",
    "InducedEnumState",
    "InducedRunStats",
    "Length",
    "ParseError",
    "SolutionSink",
    "ValidationError",
    "VertexSet",
    "all_connected_graphs",
    "bench_compare",
    "brute_force_enumerate",
    "candidate_set_naive",
    "complete_graph",
    "cycle_graph",
    "densest_girth_graphs",
    "edge_subgraph",
    "enumerate_baseline",
    "enumerate_edges_fast",
    "enumerate_induced_fast",
    "format_extremal_report",
    "girth_of_adjacency",
    "girth_unweighted",
    "girth_weighted",
    "induced_subgraph",
    "is_connected",
    "parse_dimacs",
    "parse_edge_list",
    "path_graph",
    "pair_distance",
    "petersen_graph",
    "random_corpus",
    "random_graph",
    "reduce_up_to_isomorphism",
    "run_verification",
    "second_distance",
    "to_edge_list",
]
