"""girthscope: enumerate connected subgraphs of bounded girth.

Library surface for the four enumerators (baseline binary partition, fast
induced, fast edge, brute-force oracle), the front door that picks one of
them for a variant, girth, the densest-girth-k search, and the
benchmark/verification harnesses. Engine states, run counters and
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
    "enumerate_subgraphs",
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


def enumerate_subgraphs(g: Graph, cfg: EnumConfig, sink: SolutionSink | None = None) -> int:
    """Enumerate the variant `cfg` names on g, on the fastest engine that runs it.

    No fast engine runs a weighted graph or induced mode without connectivity,
    so the baseline runs those. Returns the number of solutions emitted.
    """
    cfg.validate()
    if g.weighted or (cfg.mode == "induced" and cfg.connectivity == "any"):
        return enumerate_baseline(g, cfg, sink)
    if cfg.mode == "induced":
        return enumerate_induced_fast(g, cfg.k, sink, include_empty=cfg.include_empty, limit=cfg.limit)
    return enumerate_edges_fast(
        g, cfg.k, sink, connectivity=cfg.connectivity, include_empty=cfg.include_empty, limit=cfg.limit
    )


def __getattr__(name: str):
    if name in ("BenchReport", "bench_compare"):
        from . import bench as module
    elif name == "run_verification":
        from . import verify as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
