"""girthscope: enumerate connected subgraphs of bounded girth.

Library surface for the four enumerators (baseline binary partition, fast
induced, fast edge, brute-force oracle), girth, the densest-girth-k search,
and the benchmark/verification harnesses. Engine states, run counters and
corpus builders stay importable from their own modules.

The harness names (BenchReport, bench_compare, run_verification) are loaded
on first use, so importing the package compiles only what an enumeration
needs.
"""

from .edges_fast import enumerate_edges_fast
from .enum_core import Collector, EnumConfig, SolutionSink, brute_force_enumerate, enumerate_baseline
from .errors import BudgetExceededError, GirthscopeError, ParseError, ValidationError
from .extremal import ExtremalResult, densest_girth_graphs, format_extremal_report
from .girth import girth_unweighted, girth_weighted
from .graph import (
    Graph,
    INFINITE,
    Length,
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
from .induced_fast import enumerate_induced_fast

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BudgetExceededError",
    "Collector",
    "EnumConfig",
    "ExtremalResult",
    "GirthscopeError",
    "Graph",
    "INFINITE",
    "Length",
    "ParseError",
    "SolutionSink",
    "ValidationError",
    "bench_compare",
    "brute_force_enumerate",
    "complete_graph",
    "cycle_graph",
    "densest_girth_graphs",
    "edge_subgraph",
    "enumerate_baseline",
    "enumerate_edges_fast",
    "enumerate_induced_fast",
    "format_extremal_report",
    "girth_unweighted",
    "girth_weighted",
    "induced_subgraph",
    "is_connected",
    "parse_dimacs",
    "parse_edge_list",
    "path_graph",
    "petersen_graph",
    "run_verification",
    "to_edge_list",
]


def __getattr__(name: str):
    if name in ("BenchReport", "bench_compare"):
        from . import bench as module
    elif name == "run_verification":
        from . import verify as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
