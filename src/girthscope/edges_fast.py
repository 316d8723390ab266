"""Fast edge-subgraph enumerator, connected or not.

Candidate edges are split against the current solution S into inner and
outer ones. In the connected variant an inner candidate has both endpoints in
V(S) and an outer one exactly one. Branching takes all inner candidates
before any outer one; together with the done-set exclusions this keeps the
inner candidate set no larger than the solution's vertex count, which is what
bounds the per-solution work.

The only table kept is dist[x][y]: shortest-path length between x and y using
solution edges only. Adding an edge never needs a fresh girth computation:
every cycle a candidate edge f could close passes through f, so its length
follows from dist in O(1). One table step, update_dist_s, serves both
variants and every kind of edge: an inner edge copies only the rows it
shortens, an edge to a fresh vertex hangs it off its component, and an edge
between two components joins them. The root is an ordinary state with no
vertices, so a single-edge state is built by the same step as any other.

The non-connected variant (connectivity="any") runs on the same state and
the same driver with its own transition, advance_any. There every unblocked
edge outside S is a candidate unless both its endpoints lie in one component
of S and the cycle it closes is shorter than k. Inner candidates are the ones
inside one component, outer candidates the rest; only inner ones ever need a
girth test. Rows of dist hold distances within a component only, and
branching takes every candidate in ascending id, as the baseline engine does,
so both engines emit the same stream.

A table is built when its state is, unless the state has no candidate: such a
leaf never branches and search never offers it to prune, so nothing reads
its table, and its dist is None.

No state holds a set of done marks. The root branches on every edge in
ascending id, so below root child first the root marks are the ids below
it, and a state keeps only first = min(S). Below the root a mark is the
edge's absence from the candidate sets. In the connected variant a mark
made at a state A is on a candidate of A, so it touches V(S_A), which lies
in V(S) below A. Only advance's scan of a new vertex v adds candidates. A
back edge {v, w} has been an outer candidate since w joined, unless it was
marked; an edge to a fresh w touches no ancestor's V(S), so only a root
mark, an id below first, can block it. The non-connected variant never
adds a candidate.
"""

from __future__ import annotations

from collections.abc import Callable

from .enum_core import CONNECTIVITIES, SolutionSink, search, validate_fast_input
from .errors import ValidationError
from .graph import Graph, INFINITE, Length


class EdgeRunStats:
    def __init__(self):
        self.iterations = 0
        self.max_depth = 0
        self.inner_picks = 0
        self.outer_picks = 0
        self.pair_checks = 0  # O(1) girth tests: pair_girth_ok calls, back-edge and join tests


class EdgeEnumState:
    """Per-iteration state: edge solution, inner/outer candidates, within-solution distances.

    first is the edge the root branched on, min(S), and -1 at the root; the
    root marks this state inherited are the ids below it.

    solution is a frozenset, so emitting it copies nothing.

    dist has a row for every vertex of the solution subgraph, not just those
    touching a candidate; a shortest path may run through vertices that no
    candidate is incident to. Its key set is V(S), so the engine tests a
    vertex for V(S) against dist. Rows are never changed once built, so a
    child shares with its parent every row its step leaves unchanged. Every
    state below the empty root, single-edge ones included, gets its table
    from the one table step update_dist_s; a leaf (no candidate) has dist
    None.

    In the non-connected variant inner_cand holds the candidates with both
    endpoints in one component of the solution, outer_cand every other one,
    and a row of dist holds only the vertices of its own component.
    """

    __slots__ = ("g", "k", "solution", "inner_cand", "outer_cand", "first", "dist")

    def __init__(self, g, k, solution, inner_cand, outer_cand, first, dist):
        self.g = g
        self.k = k
        self.solution = solution
        self.inner_cand = inner_cand
        self.outer_cand = outer_cand
        self.first = first
        self.dist = dist

    @property
    def blocked(self) -> range:
        """Ids of the root marks this state inherited, a view the engine never reads; at the root, its branched edges."""
        return range(self.first if self.solution else self.g.m - len(self.outer_cand))

    @property
    def cand(self) -> set[int]:
        return self.inner_cand | self.outer_cand

    def get_dist(self, x: int, y: int) -> Length:
        """dist[x][y], INFINITE across components; only a state with a candidate has a table."""
        row = self.dist.get(x)
        if row is None:
            return INFINITE
        return row.get(y, INFINITE)


def initial_state(g: Graph, k: Length) -> EdgeEnumState:
    """State for the empty solution: no vertices, every edge an outer candidate."""
    return EdgeEnumState(g, k, frozenset(), set(), set(range(g.m)), -1, {})


def pair_girth_ok(state: EdgeEnumState, e: int, f: int) -> bool:
    """Does adding both the inner edge e = {u, v} and the candidate f = {x, y} keep girth >= k?

    Evaluated in O(1): cycles not through f are already certified because e is
    a valid candidate, and the shortest cycle through f follows from the
    within-solution distances: 1 + min(d[x][y], d[x][u]+1+d[v][y], d[x][v]+1+d[u][y]).
    """
    edges = state.g.edges
    d = state.dist
    u, v, _ = edges[e]
    x, y, _ = edges[f]
    dx = d[x]
    dy = d[y]
    return 1 + min(dx[y], dx[u] + 1 + dy[v], dx[v] + 1 + dy[u]) >= state.k


def update_dist_s(state: EdgeEnumState, e: int) -> dict[int, dict[int, Length]]:
    """Within-component distance table after adding edge e = {u, v}; unchanged rows are shared.

    The parent's rows alone decide the step:
    - u and v in one component (inner edge): a simple path uses e at most
      once, so d[x][y] can only drop to d[x][u] + 1 + d[v][y], and only when
      x is at least 2 closer to u than to v and y at least 2 closer to v than
      to u. Only the rows of those x and y are copied and relaxed, in both
      orientations; each of them changes, at column v or u.
    - one endpoint is fresh: it hangs off the other's component, so each row
      there gains one column at d[x][u] + 1. In the connected variant that
      component is the whole table. When both are fresh, u first becomes a
      one-vertex component, {u: 0}, and v hangs off it.
    - otherwise e joins two components, and each cross pair x, y gets
      d[x][u] + 1 + d[v][y].
    """
    old = state.dist
    u, v, _ = state.g.edges[e]
    du = old.get(u)
    dv = old.get(v)
    new = dict(old)
    if du is not None and v in du:
        near_u = [x for x, dxu in du.items() if dv[x] - dxu >= 2]
        near_v = [y for y, dyv in dv.items() if du[y] - dyv >= 2]
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
    if du is None:
        if dv is None:
            du = new[u] = {u: 0}
        else:
            v, du = u, dv
    elif dv is not None:
        for near, far in ((du, dv), (dv, du)):
            for x, dx in near.items():
                row = new[x] = dict(old[x])
                dx += 1
                for y, dy in far.items():
                    row[y] = dx + dy
        return new
    vrow = new[v] = {v: 0}
    for x, dx in du.items():
        row = new[x] = dict(new[x])
        row[v] = vrow[x] = dx + 1
    return new


def advance(state: EdgeEnumState, e: int, stats: EdgeRunStats | None = None) -> EdgeEnumState:
    """Child state for solution S + {e}; the parent is left untouched.

    One pass per step kind builds the (inner, outer) candidate sets, and each
    O(1) girth test is counted in pair_checks where it is made:
    - inner e: outer candidates stay valid untouched (their loose endpoint
      still has degree one, so they close no cycle) and the remaining inner
      ones are re-validated in O(1) each by pair_girth_ok.
    - the empty root: both endpoints are new, and every edge at either of
      them with an id above e, the child's first, becomes outer.
    - outer e = {u, v} with new endpoint v: old candidates survive as they
      are, and each edge at v is classified. An edge {v, w} back into the
      solution is unmarked iff it is still an outer candidate (module
      docstring); then it closes a cycle of length d[u][w] + 2 and becomes
      inner if that is long enough. An edge to a fresh vertex becomes outer
      iff its id is above first.
    A child with no candidate is a leaf and gets no table.
    """
    g = state.g
    u, v, _ = g.edges[e]
    d = state.dist
    du = d.get(u)
    first = state.first
    if du is not None and v in d:
        inner = {f for f in state.inner_cand if f != e and pair_girth_ok(state, e, f)}
        outer = set(state.outer_cand)
        if stats is not None:
            stats.inner_picks += 1
            stats.pair_checks += len(state.inner_cand) - 1  # one pair_girth_ok call per other inner candidate
    elif not d:
        first = e
        inner = set()
        outer = {f for _, f in g.adj[u] + g.adj[v] if f > e}
        if stats is not None:
            stats.outer_picks += 1
    else:
        if du is None:
            u, v = v, u
            du = d[u]
        inner = set(state.inner_cand)
        outer = set(state.outer_cand)
        outer.discard(e)
        checks = 0
        for w, f in g.adj[v]:
            if w in d:
                if f in outer:
                    checks += 1
                    outer.remove(f)
                    if du[w] + 2 >= state.k:
                        inner.add(f)
            elif f > first:
                outer.add(f)
        if stats is not None:
            stats.outer_picks += 1
            stats.pair_checks += checks
    dist = update_dist_s(state, e) if inner or outer else None
    return EdgeEnumState(g, state.k, state.solution | {e}, inner, outer, first, dist)


def exclude_candidate(state: EdgeEnumState, e: int) -> None:
    """Drop e from this iteration's remaining subtree (the done-set step).

    Dropping e from the candidate sets is the whole mark, at the root too
    (module docstring).
    """
    state.inner_cand.discard(e)
    state.outer_cand.discard(e)


def branch_order(state: EdgeEnumState) -> list[int]:
    """Edges to branch on: inner candidates, then outer ones, each in ascending id.

    Most states have no outer candidate and half are leaves (97,044 and
    63,974 of 123,378 on K7 at k=4), so they skip the sorts they do not need.
    """
    inner, outer = state.inner_cand, state.outer_cand
    if outer:
        return sorted(inner) + sorted(outer)
    return sorted(inner) if inner else []


def advance_any(state: EdgeEnumState, e: int, stats: EdgeRunStats | None = None) -> EdgeEnumState:
    """Child state for S + {e} in the non-connected variant; the parent is left untouched.

    Only a candidate whose pair distance can drop is tested again, in O(1):
    after an inner e, the inner candidates of e's component, by
    pair_girth_ok; after a joining e, the outer candidates running between
    the two components it joins, found from the adjacency of the smaller one.
    Those become inner if the cycle they would close, d[x][u] + 2 + d[v][y],
    is long enough. Every other candidate keeps its class. A child with no
    candidate is a leaf and gets no table.
    """
    g = state.g
    k = state.k
    edges = g.edges
    d = state.dist
    u, v = edges[e][0], edges[e][1]
    du = d.get(u)
    outer = set(state.outer_cand)
    if du is not None and v in du:
        inner = {
            f for f in state.inner_cand if f != e and (edges[f][0] not in du or pair_girth_ok(state, e, f))
        }
        if stats is not None:
            stats.inner_picks += 1
            stats.pair_checks += sum(1 for f in state.inner_cand if f != e and edges[f][0] in du)
    else:
        inner = set(state.inner_cand)
        outer.discard(e)
        du = du or {u: 0}
        dv = d.get(v) or {v: 0}
        near, far = (du, dv) if len(du) <= len(dv) else (dv, du)
        adj = g.adj
        for x, dx in near.items():
            for y, f in adj[x]:
                if y in far and f in outer:
                    outer.discard(f)
                    if dx + 2 + far[y] >= k:
                        inner.add(f)
        if stats is not None:
            stats.outer_picks += 1
            # every candidate the loop tested left outer, and none was added
            stats.pair_checks += len(state.outer_cand) - (e in state.outer_cand) - len(outer)
    dist = update_dist_s(state, e) if inner or outer else None
    return EdgeEnumState(g, k, state.solution | {e}, inner, outer, state.first if state.solution else e, dist)


def branch_order_any(state: EdgeEnumState) -> list[int]:
    """Edges to branch on in the non-connected variant: every candidate in ascending id."""
    return sorted(state.inner_cand | state.outer_cand)


def enumerate_edges_fast(
    g: Graph,
    k: Length,
    sink: SolutionSink | None = None,
    *,
    connectivity: str = "connected",
    include_empty: bool = True,
    limit: int | None = None,
    on_state: Callable[[EdgeEnumState], object] | None = None,
    prune: Callable[[EdgeEnumState], bool] | None = None,
    stats: EdgeRunStats | None = None,
) -> int:
    """Enumerate all subgraphs (edge subsets) with girth >= k, each once.

    With connectivity="connected", the default, only connected subgraphs
    count: same solution set as the baseline engine in connected edge mode.
    The root branches on every single edge in ascending id order; below that,
    inner candidates are taken before outer ones. With connectivity="any"
    every subgraph of girth >= k counts, and every state branches in
    ascending id, so the stream equals the baseline engine's. `prune` may cut
    a subtree after its root solution was emitted (used by the extremal
    search). It must be monotone (see `search`): the children a state has
    left once it cuts are emitted unbuilt, with no `advance` or `on_state`.
    `stats.iterations` counts every state emitted, the root included;
    `inner_picks`, `outer_picks` and `pair_checks` only the built children.
    Returns the number of solutions emitted.
    """
    validate_fast_input(g, k)
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
    any_mode = connectivity == "any"
    return search(
        initial_state(g, k),
        branch_order_any if any_mode else branch_order,
        advance_any if any_mode else advance,
        exclude_candidate,
        sink,
        include_empty=include_empty,
        limit=limit,
        prune=prune,
        on_state=on_state,
        stats=stats,
    )
