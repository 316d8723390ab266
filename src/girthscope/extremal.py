"""Densest girth-k graph search.

The search runs the fast edge enumerator over a complete graph, pruning
subtrees that cannot reach the best edge count seen so far; with
connected_only=False it runs the same engine in the non-connected variant.
"""

from __future__ import annotations

from .edges_fast import EdgeEnumState, enumerate_edges_fast
# perfbench/harness.py times the searches by replacing the engine names of
# this module, enumerate_baseline included, though no search here runs it
from .enum_core import enumerate_baseline, validate_threshold  # noqa: F401
from .errors import BudgetExceededError, ValidationError
from .graph import Graph, INFINITE, Length, complete_graph

Witness = tuple[tuple[int, int], ...]  # a graph's edges as sorted (u, v) pairs, u < v
EXTREMAL_MAX_VERTICES = 1_000  # K_n grows as n^2: building K_1000 peaks at about 280 MB RSS on CPython 3.11


class ExtremalResult:
    """Densest n-vertex graphs of girth >= k found by the search."""

    def __init__(
        self,
        n: int,
        k: Length,
        max_edges: int,
        witnesses: list[Witness] | None = None,
        explored: int = 0,
        complete: bool = True,
        connected_only: bool = True,
    ):
        self.n = n
        self.k = k
        self.max_edges = max_edges
        self.witnesses = [] if witnesses is None else witnesses
        self.explored = explored
        self.complete = complete
        self.connected_only = connected_only


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
    An n above EXTREMAL_MAX_VERTICES raises BudgetExceededError before K_n is built.
    """
    if n < 1:
        raise ValidationError("need at least one vertex")
    if n > EXTREMAL_MAX_VERTICES:
        raise BudgetExceededError(f"the search over K_{n} exceeds the {EXTREMAL_MAX_VERTICES}-vertex budget")
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

    connectivity = "connected" if connected_only else "any"
    if connected_only:

        def prune(state: EdgeEnumState, left: int) -> bool:
            # Optimistic reachable size: current solution, the candidates it
            # has left, and the unmarked pairs of fresh vertices (an outer
            # step can still turn those into candidates; edges that touched
            # and dropped out are dead for good, since girth only decreases
            # along a branch). Only root marks, the ids below first = {a, b},
            # block a fresh pair; K_n numbers its edges in lexicographic
            # order, so they are every {u, w} with u < a, plus {a, w} with
            # w < b, and the unmarked fresh pairs are those among the fresh
            # vertices above a = min V(S). A table's key set is V(S); a state
            # without one counts V(S) from its solution.
            # Monotone, as pruned's shortcut needs: the child on a remaining
            # candidate e moves e from the candidates into the solution; its
            # other candidates are the parent's remaining ones or edges from
            # e's new endpoint to fresh vertices, and each of those leaves the
            # fresh-pair count as that endpoint stops being fresh. So its
            # bound is at most the parent's.
            d = state.dist
            if d is None:
                d = {x for e in state.solution for x in g.edges[e][:2]}
            fresh = n - len(d) - (g.edges[state.first][0] if d else 0)
            return len(state.solution) + left + fresh * (fresh - 1) // 2 < best_size
    else:

        def prune(state: EdgeEnumState, left: int) -> bool:
            # every edge that can still join is already a candidate. Monotone:
            # girth >= k survives deleting an edge, so every candidate of the
            # child S + e is a remaining candidate of S other than e
            return len(state.solution) + left < best_size

    explored = enumerate_edges_fast(g, k, sink=sink, connectivity=connectivity, limit=limit, prune=prune)

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


def canonical_form(edges, n: int) -> Witness:
    """Edge tuple that two graphs on vertices 0..n-1 share iff they are isomorphic.

    Individualization and refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014): the least tuple of edges relabelled by a leaf's
    discrete colouring. Twins, x and y with N(x) - {y} = N(y) - {x}, are
    individualized once per cell: swapping them is an automorphism that fixes
    the colouring, so their subtrees give the same tuples (else K_n: n! leaves).
    """
    g = Graph(n, edges)
    adj = g._neighbor_sets
    leaves = []
    stack = [[0] * n]
    while stack:
        colour = stack.pop()
        cells = len(set(colour))
        while True:
            # refine: a vertex's new colour ranks its colour with its neighbours' sorted colours
            sig = [(colour[v], tuple(sorted(colour[y] for y in adj[v]))) for v in range(n)]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            colour = [rank[s] for s in sig]
            if len(rank) == cells:
                break
            cells = len(rank)
        if cells == n:
            leaves.append(tuple(sorted((min(colour[u], colour[v]), max(colour[u], colour[v])) for u, v, _ in g.edges)))
            continue
        # individualize each v of the smallest shared colour c: v gets 2c, its cellmates 2c + 1, any other c' 2c'
        c = min(x for x in colour if colour.count(x) > 1)
        chosen: list[int] = []
        for v in range(n):
            if colour[v] == c and not any(adj[v] - {u} == adj[u] - {v} for u in chosen):
                chosen.append(v)
                stack.append([2 * c if y == v else 2 * x + (x == c) for y, x in enumerate(colour)])
    return min(leaves)


def reduce_up_to_isomorphism(witnesses: list[Witness], n: int) -> list[Witness]:
    """Keep the first witness of each isomorphism class, in input order."""
    kept = {}
    for w in witnesses:
        kept.setdefault(canonical_form(w, n), w)
    return list(kept.values())


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
