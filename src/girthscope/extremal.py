"""Densest girth-k graph search.

The search runs the fast edge enumerator over a complete graph, pruning
subtrees that cannot reach the best edge count seen so far; with
connected_only=False it runs the same engine in the non-connected variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .edges_fast import EdgeEnumState, enumerate_edges_fast
# perfbench/harness.py times the searches by replacing the engine names of
# this module, enumerate_baseline included, though no search here runs it
from .enum_core import enumerate_baseline, validate_threshold  # noqa: F401
from .errors import ValidationError
from .graph import Graph, INFINITE, Length, complete_graph


@dataclass
class ExtremalResult:
    """Densest n-vertex graphs of girth >= k found by the search."""

    n: int
    k: Length
    max_edges: int
    witnesses: list[tuple[tuple[int, int], ...]] = field(default_factory=list)
    explored: int = 0
    complete: bool = True
    connected_only: bool = True


def densest_girth_graphs(
    n: int,
    k: Length,
    *,
    limit: int | None = None,
    connected_only: bool = True,
    reduce_isomorphic: bool = False,
) -> ExtremalResult:
    """Maximum edge count over n-vertex graphs of girth >= k, with all witnesses.

    Enumerates subgraphs of the complete graph on n vertices, skipping any
    subtree whose solution plus remaining candidates cannot beat the current
    maximum (ties are still explored, so every witness is found). `limit`
    caps the number of solutions explored, as the engines' limit does; hitting
    it flags the result incomplete. Witnesses are distinct labelings unless reduce_isomorphic.
    """
    if n < 1:
        raise ValidationError("need at least one vertex")
    if reduce_isomorphic and n > 8:
        raise ValidationError("isomorphism reduction is only supported for n <= 8")
    validate_threshold(k)
    g = complete_graph(n)
    best_size = -1
    witnesses: list[frozenset[int]] = []

    def sink(solution: frozenset[int], ordinal: int):
        nonlocal best_size, witnesses
        size = len(solution)
        if size > best_size:
            best_size = size
            witnesses = [solution]
        elif size == best_size:
            witnesses.append(solution)

    if connected_only:
        edges = g.edges

        def prune(state: EdgeEnumState) -> bool:
            # Optimistic reachable size: current solution, live candidates, and
            # edges not yet touching the solution (an outer step can still turn
            # those into candidates; edges that touched and dropped out are
            # dead for good, since girth only decreases along a branch).
            # A mark made below the root was a candidate of an ancestor, so it
            # touches the solution; the untouched unblocked edges are then the
            # pairs of fresh vertices minus the root marks among them.
            sol_verts = state.sol_verts
            fresh = n - len(sol_verts)
            reachable = len(state.solution) + len(state.inner_cand) + len(state.outer_cand) + fresh * (fresh - 1) // 2
            for eid in state.root_blocked:
                u, v, _ = edges[eid]
                if u not in sol_verts and v not in sol_verts:
                    reachable -= 1
            return reachable < best_size

        explored = enumerate_edges_fast(g, k, sink=sink, limit=limit, prune=prune)
    else:
        def prune_any(state: EdgeEnumState) -> bool:
            # every edge that can still join is already a candidate
            return len(state.solution) + len(state.inner_cand) + len(state.outer_cand) < best_size

        explored = enumerate_edges_fast(g, k, sink=sink, connectivity="any", limit=limit, prune=prune_any)

    pair_witnesses = [tuple(g.endpoints(e) for e in sorted(w)) for w in witnesses]
    pair_witnesses.sort()
    if reduce_isomorphic:
        pair_witnesses = reduce_up_to_isomorphism(pair_witnesses, n)
    return ExtremalResult(
        n=n,
        k=k,
        max_edges=max(best_size, 0),
        witnesses=pair_witnesses,
        explored=explored,
        complete=limit is None or explored < limit,
        connected_only=connected_only,
    )


def reduce_up_to_isomorphism(
    witnesses: list[tuple[tuple[int, int], ...]], n: int
) -> list[tuple[tuple[int, int], ...]]:
    """Keep one representative per isomorphism class (brute-force, n <= 8).

    Witnesses are bucketed by degree sequence first; within a bucket, all n!
    vertex permutations decide isomorphism.
    """
    if n > 8:
        raise ValidationError("isomorphism reduction is only supported for n <= 8")

    def degree_sequence(edges):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg))

    def isomorphic(e1, e2):
        s2 = set(e2)
        for perm in permutations(range(n)):
            mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in e1}
            if mapped == s2:
                return True
        return False

    kept: list[tuple[tuple[int, int], ...]] = []
    buckets: dict[tuple, list[tuple[tuple[int, int], ...]]] = {}
    for w in witnesses:
        sig = degree_sequence(w)
        group = buckets.setdefault(sig, [])
        if not any(isomorphic(w, seen) for seen in group):
            group.append(w)
            kept.append(w)
    return kept


def format_extremal_report(result: ExtremalResult) -> str:
    """Structured text report: parameters, max edges, witnesses, exploration summary."""
    k_text = "inf" if result.k == INFINITE else str(result.k)
    lines = [
        f"n={result.n}",
        f"k={k_text}",
        f"max_edges={result.max_edges}",
        f"explored={result.explored}",
        f"complete={'true' if result.complete else 'false'}",
        f"connected_only={'true' if result.connected_only else 'false'}",
        f"witnesses={len(result.witnesses)}",
    ]
    for w in result.witnesses:
        lines.append("witness: " + " ".join(f"{u}-{v}" for u, v in w))
    return "\n".join(lines)
