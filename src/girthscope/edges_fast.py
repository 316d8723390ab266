"""Fast connected-edge-subgraph enumerator.

Candidate edges are split against the current solution's vertex set into
inner (both endpoints inside) and outer (exactly one endpoint inside).
Branching takes all inner candidates before any outer one; together with the
done-set exclusions this keeps the inner candidate set no larger than the
solution's vertex count, which is what bounds the per-solution work.

The only table kept is dist[x][y]: shortest-path length between x and y using
solution edges only. Adding an edge never needs a fresh girth computation:
every cycle a candidate edge f could close passes through f, so its length
follows from dist in O(1). An inner edge copies only the rows it shortens.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .enum_core import SolutionSink, search, validate_fast_input
from .graph import Graph, INFINITE, Length


@dataclass
class EdgeRunStats:
    iterations: int = 0
    max_depth: int = 0
    inner_picks: int = 0
    outer_picks: int = 0
    pair_checks: int = 0


class EdgeEnumState:
    """Per-iteration state: edge solution, inner/outer candidates, within-solution distances.

    Done-exclusion marks come in two parts. root_blocked holds the root
    edges already branched on; every state of one run shares that set by
    reference. local_blocked holds the marks made below the root and is
    copied by advance, so a copy costs the branching along the current path,
    not m.

    dist covers all vertices of the current solution subgraph (sol_verts), not
    just those touching a candidate; a shortest path may run through vertices
    that no candidate is incident to. Rows are never changed once built, so a
    child shares the rows an inner step leaves unchanged with its parent.
    """

    __slots__ = (
        "g", "k", "solution", "sol_verts", "inner_cand", "outer_cand", "root_blocked", "local_blocked", "dist"
    )

    def __init__(self, g, k, solution, sol_verts, inner_cand, outer_cand, root_blocked, local_blocked, dist):
        self.g = g
        self.k = k
        self.solution = solution
        self.sol_verts = sol_verts
        self.inner_cand = inner_cand
        self.outer_cand = outer_cand
        self.root_blocked = root_blocked
        self.local_blocked = local_blocked
        self.dist = dist

    @property
    def blocked(self) -> set[int]:
        """Done-excluded edges, as a fresh set (O(m); the engine itself never builds it).

        The driver marks a root edge only after seeding its state, and that
        edge is in every solution of the seeded subtree, so subtracting the
        solution leaves exactly the marks the seed saw.
        """
        return (self.root_blocked - self.solution) | self.local_blocked

    @property
    def cand(self) -> set[int]:
        return self.inner_cand | self.outer_cand

    def get_dist(self, x: int, y: int) -> Length:
        row = self.dist.get(x)
        if row is None:
            return INFINITE
        return row.get(y, INFINITE)


def initial_state(g: Graph, k: Length) -> EdgeEnumState:
    """State for the empty solution: no vertices, every edge an outer candidate."""
    return EdgeEnumState(g, k, set(), set(), set(), set(range(g.m)), set(), set(), {})


def seed_state(g: Graph, k: Length, eid: int, blocked: set[int]) -> EdgeEnumState:
    """State for the single-edge solution {eid}.

    Every non-blocked edge sharing an endpoint is a candidate (two edges never
    close a cycle) and is outer, since a simple graph has no second edge on
    the same endpoint pair. `blocked` is kept by reference as the shared
    root part of the exclusion marks, so the caller may keep adding to it.
    """
    u, v = g.endpoints(eid)
    outer = set()
    for x in (u, v):
        for _, fid in g.adj[x]:
            if fid != eid and fid not in blocked:
                outer.add(fid)
    dist = {u: {u: 0, v: 1}, v: {u: 1, v: 0}}
    return EdgeEnumState(g, k, {eid}, {u, v}, set(), outer, blocked, set(), dist)


def pair_girth_ok(state: EdgeEnumState, e: int, f: int) -> bool:
    """Does adding both e (the chosen edge) and f (a candidate) keep girth >= k?

    Evaluated in O(1): cycles not through f are already certified because e is
    a valid candidate, and the shortest cycle through f follows from the
    within-solution distances. For an inner e = {u, v} and f = {x, y} that is
    1 + min(d[x][y], d[x][u]+1+d[v][y], d[x][v]+1+d[u][y]); for an outer e
    attaching new vertex v and f = {v, w} the cycle must run through both
    edges, giving 2 + d[u][w].
    """
    g = state.g
    d = state.dist
    u, v = g.endpoints(e)
    x, y = g.endpoints(f)
    if u in state.sol_verts and v in state.sol_verts:
        dx = d[x]
        dy = d[y]
        shortest = min(dx[y], dx[u] + 1 + dy[v], dx[v] + 1 + dy[u])
        return 1 + shortest >= state.k
    if u not in state.sol_verts:
        u, v = v, u
    w = x if y == v else y
    return 2 + d[u][w] >= state.k


def update_dist_s(state: EdgeEnumState, e: int) -> dict[int, dict[int, Length]]:
    """Within-solution distance table after adding edge e; unchanged rows are shared.

    Inner edge {u, v}: a simple path uses it at most once, so d[x][y] can
    only drop to d[x][u] + 1 + d[v][y], and only when x is at least 2 closer
    to u than to v and y at least 2 closer to v than to u. Only the rows of
    those x and y are copied and relaxed, in both orientations; each of them
    changes, at column v or u. Outer edge: the new vertex hangs off u, so
    every row gains a column at d[x][u] + 1.
    """
    g = state.g
    old = state.dist
    u, v = g.endpoints(e)
    if u in state.sol_verts and v in state.sol_verts:
        du = old[u]
        dv = old[v]
        near_u = [x for x, dxu in du.items() if dv[x] - dxu >= 2]
        near_v = [y for y, dyv in dv.items() if du[y] - dyv >= 2]
        new = dict(old)
        for x in near_u + near_v:
            new[x] = dict(old[x])
        for x in near_u:
            rowx = new[x]
            xu = du[x] + 1
            for y in near_v:
                alt = xu + dv[y]
                if alt < rowx[y]:
                    rowx[y] = alt
                    new[y][x] = alt
        return new
    if u not in state.sol_verts:
        u, v = v, u
    new = {}
    vrow: dict[int, Length] = {v: 0}
    for x, rowx in old.items():
        nrow = dict(rowx)
        d = rowx[u] + 1
        nrow[v] = d
        vrow[x] = d
        new[x] = nrow
    new[v] = vrow
    return new


def update_edge_cand(state: EdgeEnumState, e: int) -> tuple[set[int], set[int]]:
    """(inner, outer) candidate sets after adding edge e.

    Inner e: outer candidates stay valid untouched (their loose endpoint still
    has degree one, so they close no cycle) and the remaining inner ones are
    re-validated in O(1) each. Outer e with new endpoint v: old candidates
    survive as they are, and every non-excluded edge at v is classified; edges
    back into the solution become inner if their cycle is long enough, edges
    to fresh vertices become outer.
    """
    g = state.g
    u, v = g.endpoints(e)
    if u in state.sol_verts and v in state.sol_verts:
        inner = {f for f in state.inner_cand if f != e and pair_girth_ok(state, e, f)}
        return inner, set(state.outer_cand)
    if u not in state.sol_verts:
        u, v = v, u
    inner = set(state.inner_cand)
    outer = set(state.outer_cand)
    outer.discard(e)
    root_blocked = state.root_blocked
    local_blocked = state.local_blocked
    for w, fid in g.adj[v]:
        if fid == e or fid in root_blocked or fid in local_blocked:
            continue
        if w in state.sol_verts:
            outer.discard(fid)
            if pair_girth_ok(state, e, fid):
                inner.add(fid)
        else:
            outer.add(fid)
    return inner, outer


def advance(state: EdgeEnumState, e: int, stats: EdgeRunStats | None = None) -> EdgeEnumState:
    """Child state for solution S + {e}; the parent is left untouched.

    From the empty root the child is seed_state's single-edge state.
    """
    if not state.solution:
        return seed_state(state.g, state.k, e, state.root_blocked)
    g = state.g
    u, v = g.endpoints(e)
    is_inner = u in state.sol_verts and v in state.sol_verts
    if stats is not None:
        if is_inner:
            stats.inner_picks += 1
        else:
            stats.outer_picks += 1
        stats.pair_checks += len(state.inner_cand) if is_inner else g.degree(v if v not in state.sol_verts else u)
    inner, outer = update_edge_cand(state, e)
    dist = update_dist_s(state, e)
    sol_verts = state.sol_verts if is_inner else state.sol_verts | ({u, v} - state.sol_verts)
    return EdgeEnumState(
        g,
        state.k,
        state.solution | {e},
        set(sol_verts),
        inner,
        outer,
        state.root_blocked,
        set(state.local_blocked),
        dist,
    )


def exclude_candidate(state: EdgeEnumState, e: int) -> None:
    """Drop e from this iteration's remaining subtree (the done-set step).

    The mark goes to the shared root part at the root and to the local part
    below it.
    """
    state.inner_cand.discard(e)
    state.outer_cand.discard(e)
    (state.local_blocked if state.solution else state.root_blocked).add(e)


def branch_order(state: EdgeEnumState) -> list[int]:
    """Edges to branch on: inner candidates, then outer ones, each in ascending id."""
    return sorted(state.inner_cand) + sorted(state.outer_cand)


def enumerate_edges_fast(
    g: Graph,
    k: Length,
    sink: SolutionSink | None = None,
    *,
    include_empty: bool = True,
    limit: int | None = None,
    on_state: Callable[[EdgeEnumState], object] | None = None,
    prune: Callable[[EdgeEnumState], bool] | None = None,
    stats: EdgeRunStats | None = None,
) -> int:
    """Enumerate all connected subgraphs (edge subsets) with girth >= k, each once.

    Same solution set as the baseline engine in connected edge mode. The root
    branches on every single edge in ascending id order; below that, inner
    candidates are taken before outer ones. `prune` may cut a subtree after
    its root solution was emitted (used by the extremal search). Returns the
    number of solutions emitted.
    """
    validate_fast_input(g, k)
    return search(
        initial_state(g, k),
        branch_order,
        advance,
        exclude_candidate,
        sink,
        include_empty=include_empty,
        limit=limit,
        prune=prune,
        on_state=on_state,
        stats=stats,
    )
