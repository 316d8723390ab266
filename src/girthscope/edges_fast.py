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

A child with no candidate is a leaf: advance returns None for it, and
search emits its solution without building a state. A table is read only
to build a state's children, so a state whose only child is a leaf is a fan
(dist None, enum_core.search): in the connected variant a state whose one
candidate is inner, or whose one candidate is outer and leads to a fresh
endpoint with no unmarked edge (an id above first) to another fresh
vertex; in the non-connected variant every state with one candidate, since
that variant adds no candidate. A fan's children are picked by no advance
call, so the pick counters leave them out. On K7 at k=4 this halves
the table steps, from 59,404 to 28,917, for 123,379 solutions of which
63,974 are leaves.

No state holds a set of done marks. The child on branch[i] draws only on
branch[i + 1:], so the candidates before it are marked by their position.
The root branches on every edge in ascending id, so below root child first
the root marks are the ids below it, and a state keeps only first = min(S).
Below the root a mark is the edge's absence from the candidates. In the
connected variant a mark made at a state A is on a candidate of A, so it
touches V(S_A), which lies in V(S) below A. Only advance's scan of a new
vertex v adds candidates. A back edge {v, w} has been an outer candidate
since w joined, unless it was marked; an edge to a fresh w touches no
ancestor's V(S), so only a root mark, an id below first, can block it. The
non-connected variant never adds a candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable

from .enum_core import CONNECTIVITIES, SolutionSink, pruned, search, validate_fast_input
from .errors import ValidationError
from .graph import Graph, Length


class EdgeRunStats:
    def __init__(self):
        self.iterations = 0
        self.max_depth = 0
        self.inner_picks = 0
        self.outer_picks = 0
        self.pair_checks = 0  # O(1) girth tests: pair_girth_ok calls, back-edge and join tests


class EdgeEnumState:
    """Per-iteration state: edge solution, candidates in branch order, within-solution distances.

    first is the edge the root branched on, min(S), and -1 at the root; the
    root marks this state inherited are the ids below it.

    solution is a frozenset, so emitting it copies nothing.

    branch lists the candidates in the order the state branches on them, and
    n_inner counts the inner ones. In the connected variant they come first,
    so branch is the inner candidates, then the outer ones, each in ascending
    id; in the non-connected variant branch is ascending, and an inner
    candidate is one with both endpoints in one component of the solution.
    No state is changed once built: the child on branch[i] draws only on
    branch[i + 1:].

    dist has a row for every vertex of the solution subgraph, not just those
    touching a candidate; a shortest path may run through vertices that no
    candidate is incident to. Its key set is V(S), so the engine tests a
    vertex for V(S) against dist. Rows are never changed once built, so a
    child shares with its parent every row its step leaves unchanged. Every
    table below the empty root, single-edge states included, comes from the
    one table step update_dist_s. A state whose only child has no candidate
    is a fan and has dist None (module docstring).

    In the non-connected variant a row of dist holds only the vertices of
    its own component.
    """

    __slots__ = ("g", "k", "solution", "branch", "n_inner", "first", "dist")

    def __init__(self, g, k, solution, branch, n_inner, first, dist):
        self.g = g
        self.k = k
        self.solution = solution
        self.branch = branch
        self.n_inner = n_inner
        self.first = first
        self.dist = dist

    @property
    def blocked(self) -> range:
        """Ids of the root marks this state inherited, a view the engine never reads; none at the root."""
        return range(self.first)


def initial_state(g: Graph, k: Length) -> EdgeEnumState:
    """State for the empty solution: no vertices, every edge an outer candidate."""
    return EdgeEnumState(g, k, frozenset(), list(range(g.m)), 0, -1, {})


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


def _child_is_a_leaf(g: Graph, d, u: int, v: int, c: int, first: int) -> bool:
    """Has the child on c no candidate, when c is the one candidate left of S + {u-v} and outer?

    d is the parent's table, so V(S + {u-v}) is its key set with u and v.
    The child draws on no other candidate, so what it has are the edges at
    c's fresh endpoint z that are not root-marked (an id above first) and
    lead to a vertex outside V(S + {u-v}).
    """
    a, b, _ = g.edges[c]
    z = b if a in d or a == u or a == v else a
    for w, f in g.adj[z]:
        if f > first and w not in d and w != u and w != v:
            return False
    return True


def advance(
    state: EdgeEnumState, i: int, solution: frozenset[int], stats: EdgeRunStats | None = None
) -> EdgeEnumState | None:
    """Child state on e = branch[i], with the solution S + {e}, or None if it has no candidate.

    The child draws on branch[i + 1:] alone, so the candidates before e are
    excluded from its subtree by position; the parent is left untouched.
    One pass per step kind builds the child's inner and outer lists, and
    each O(1) girth test is counted in pair_checks where it is made:
    - inner e: the outer candidates stay valid untouched (their loose
      endpoint still has degree one, so they close no cycle) and the inner
      ones after e are re-validated in O(1) each by pair_girth_ok.
    - the empty root: both endpoints are new, and every edge at either of
      them with an id above e, the child's first, becomes outer.
    - outer e = {u, v} with new endpoint v: every inner candidate lies
      before e, and the outer ones after it survive as they are. Each edge
      at v is classified. An edge {v, w} back into the solution is unmarked
      iff it is an outer candidate after e (module docstring); then it
      closes a cycle of length d[u][w] + 2 and becomes inner if that is
      long enough. An edge to a fresh vertex becomes outer iff its id is
      above first.
    A child with one candidate is a fan, with no table, when its own child
    has no candidate; search emits that child without calling advance.
    """
    d = state.dist
    g = state.g
    branch = state.branch
    n_inner = state.n_inner
    e = branch[i]
    u, v, _ = g.edges[e]
    first = state.first
    if i < n_inner:
        inner = [f for f in branch[i + 1 : n_inner] if pair_girth_ok(state, e, f)]
        outer = branch[n_inner:]
        if stats is not None:
            stats.inner_picks += 1
            stats.pair_checks += n_inner - i - 1  # one pair_girth_ok call per later inner candidate
    elif not d:
        first = e
        inner = []
        outer = sorted(f for _, f in g.adj[u] + g.adj[v] if f > e)
        if stats is not None:
            stats.outer_picks += 1
    else:
        du = d.get(u)
        if du is None:
            u, v = v, u
            du = d[u]
        outer = branch[i + 1 :]
        inner = []
        fresh = []
        dropped = []
        k = state.k
        for w, f in g.adj[v]:
            if w in d:
                if f > e:
                    j = bisect_left(outer, f)
                    if j < len(outer) and outer[j] == f:
                        dropped.append(j)
                        if du[w] + 2 >= k:
                            inner.append(f)
            elif f > first:
                fresh.append(f)
        if stats is not None:
            stats.outer_picks += 1
            stats.pair_checks += len(dropped)
        if dropped:
            dropped.sort(reverse=True)
            for j in dropped:
                del outer[j]
            inner.sort()
        if fresh:
            outer += fresh
            outer.sort()
    cands = inner + outer if inner else outer
    if not cands:
        return None
    if len(cands) > 1 or outer and not _child_is_a_leaf(g, d, u, v, outer[0], first):
        return EdgeEnumState(g, state.k, solution, cands, len(inner), first, update_dist_s(state, e))
    return EdgeEnumState(g, state.k, solution, cands, len(inner), first, None)


def advance_any(
    state: EdgeEnumState, i: int, solution: frozenset[int], stats: EdgeRunStats | None = None
) -> EdgeEnumState | None:
    """Child state on e = branch[i] in the non-connected variant, or None if it has no candidate.

    The child draws on branch[i + 1:] alone, in one pass that keeps its
    ascending order; the parent is left untouched. Only a candidate whose
    pair distance can drop is tested again, in O(1): after an inner e, the
    inner candidates of e's component, by pair_girth_ok; after a joining e,
    the candidates running between the two components it joins. Those
    become inner if the cycle they would close, d[x][u] + 2 + d[v][y], is
    long enough. Every other candidate keeps its class. Below a state with
    one candidate every child is a leaf, since this variant never adds a
    candidate; such a state is a fan, with no table.
    """
    d = state.dist
    k = state.k
    edges = state.g.edges
    e = state.branch[i]
    u, v = edges[e][0], edges[e][1]
    du = d.get(u)
    branch = []
    n_inner = checks = 0
    if du is not None and v in du:
        for f in state.branch[i + 1 :]:
            x, y, _ = edges[f]
            if y in d.get(x, ()):
                if x in du:
                    checks += 1
                    if not pair_girth_ok(state, e, f):
                        continue
                n_inner += 1
            branch.append(f)
        if stats is not None:
            stats.inner_picks += 1
    else:
        du = du or {u: 0}
        dv = d.get(v) or {v: 0}
        for f in state.branch[i + 1 :]:
            x, y, _ = edges[f]
            if y in d.get(x, ()):
                n_inner += 1
            elif x in du and y in dv or x in dv and y in du:
                checks += 1
                if (du[x] + dv[y] if x in du else dv[x] + du[y]) + 2 < k:
                    continue
                n_inner += 1
            branch.append(f)
        if stats is not None:
            stats.outer_picks += 1
    if stats is not None:
        stats.pair_checks += checks
    if not branch:
        return None
    first = state.first if state.solution else e
    dist = update_dist_s(state, e) if len(branch) > 1 else None
    return EdgeEnumState(state.g, k, solution, branch, n_inner, first, dist)


def enumerate_edges_fast(
    g: Graph,
    k: Length,
    sink: SolutionSink | None = None,
    *,
    connectivity: str = "connected",
    include_empty: bool = True,
    limit: int | None = None,
    prune: Callable[[EdgeEnumState, int], bool] | None = None,
    stats: EdgeRunStats | None = None,
) -> int:
    """Enumerate all subgraphs (edge subsets) with girth >= k, each once.

    With connectivity="connected", the default, only connected subgraphs
    count: same solution set as the baseline engine in connected edge mode.
    The root branches on every single edge in ascending id order; below that,
    inner candidates are taken before outer ones. With connectivity="any"
    every subgraph of girth >= k counts, and every state branches in
    ascending id, so the stream equals the baseline engine's.
    `prune(state, left)` may cut a subtree but keep its root solution
    (used by the extremal search); `left` is the number of candidates the
    state has not branched on. It is applied through `enum_core.pruned` and
    must be monotone, as `pruned` says: the children a state has left once
    it cuts are emitted unbuilt, with no `advance` call. Only the root and
    the states with a candidate are built; a leaf is emitted without a
    state, and so is the one child of a fan, a state whose only child is a
    leaf. `stats.iterations` counts the solutions emitted; `inner_picks`,
    `outer_picks` and `pair_checks` count the children advance is asked
    for, leaves included.
    Returns the number of solutions emitted.
    """
    validate_fast_input(g, k)
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
    root, step = initial_state(g, k), advance_any if connectivity == "any" else advance
    if prune is not None:
        root, step = pruned(root, step, prune)
    return search(root, step, sink, include_empty=include_empty, limit=limit, stats=stats)
