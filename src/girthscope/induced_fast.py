"""Fast connected-induced-subgraph enumerator with incremental candidate maintenance.

Instead of re-testing girth from scratch, each iteration keeps two tables for
the current solution S:

  dist[u][y]    shortest-path length between u and y in the induced graph on
                S + {u, y} ("pair graph"), kept in the row of each candidate
                u for y in S | cand (solution vertices get no row: every
                reader of a solution-candidate pair goes through the
                candidate's row);
  second[u][w]  length of the best u-w path in the pair graph once the first
                edge of a shortest path is removed, kept for u, w in cand.

A candidate u stays valid after adding v iff dist[u][v] + second[u][v] >= k:
any cycle through both decomposes into two paths no shorter than those two
values, and all other cycles were already certified. dist is updated
Floyd-Warshall style, one candidate row at a time. second is updated by a
constant-time case split when the old dist + second sum is below k, and
otherwise recomputed in O(|S|) from the first hops of u into the new
solution. The recompute is the common case: every pair with a newly adopted
end takes it, and on sparse random graphs (40 G(16, 24) graphs at k = 5)
95-97% of candidate pairs do. Excluding a candidate only marks it: its row
and column stay in the tables, unread, because every later read is keyed by
a current candidate. Entries outside the scope are INFINITE by convention.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .enum_core import SolutionSink, search, validate_fast_input
from .graph import Graph, INFINITE, Length

IN_SOLUTION = "in-solution"
CANDIDATE = "candidate"
GIRTH_EXCLUDED = "girth-excluded"
DONE_EXCLUDED = "done-excluded"
UNREACHED = "unreached"


@dataclass
class InducedRunStats:
    """Counters for one enumeration run (work accounting and case coverage)."""

    iterations: int = 0
    max_depth: int = 0
    candidate_pairs: int = 0
    fast_old_path_shorter: int = 0  # constant-time update, old shortest beats the via-v path
    fast_via_path_shorter: int = 0  # constant-time update, via-v path at least ties
    full_recomputes: int = 0


class InducedEnumState:
    """Per-iteration state: solution, candidate set, exclusion sets, both tables.

    Done-exclusion marks come in two parts. root_done holds the marks made at
    the empty-solution root; every state of one run shares that set by
    reference. local_done holds the marks made below the root and is copied by
    advance, so a copy costs the branching along the current path, not n.

    Tables are dicts of dicts holding finite entries only, never changed once
    built. dist has one row per candidate, with solution and candidate
    columns, so a step writes |cand| * (|S| + |cand|) entries. Rows of
    excluded vertices stay in place unread. get_dist/get_second answer in
    scope, (S | cand) x cand and cand x cand, and report INFINITE elsewhere.
    """

    __slots__ = ("g", "k", "solution", "cand", "root_done", "local_done", "girth_blocked", "dist", "second")

    def __init__(self, g, k, solution, cand, root_done, local_done, girth_blocked, dist, second):
        self.g = g
        self.k = k
        self.solution = solution
        self.cand = cand
        self.root_done = root_done
        self.local_done = local_done
        self.girth_blocked = girth_blocked
        self.dist = dist
        self.second = second

    @property
    def done_blocked(self) -> set[int]:
        """Done-excluded vertices, as a fresh set (O(n); the engine itself never builds it).

        Depth-first order marks a root vertex only after its child state was
        built, and that vertex is in every solution of the child's subtree,
        so subtracting the solution leaves exactly the marks the child saw.
        """
        return (self.root_done - self.solution) | self.local_done

    def status(self, v: int) -> str:
        if v in self.solution:
            return IN_SOLUTION
        if v in self.cand:
            return CANDIDATE
        if v in self.root_done or v in self.local_done:
            return DONE_EXCLUDED
        if v in self.girth_blocked:
            return GIRTH_EXCLUDED
        return UNREACHED

    def get_dist(self, x: int, y: int) -> Length:
        if x not in self.cand:
            x, y = y, x  # a solution-candidate pair lives in the candidate's row
        if x not in self.cand or (y not in self.cand and y not in self.solution):
            return INFINITE
        return self.dist[x].get(y, INFINITE)

    def get_second(self, u: int, w: int) -> Length:
        if u not in self.cand or w not in self.cand:
            return INFINITE
        return self.second[u].get(w, INFINITE)


def initial_state(g: Graph, k: Length) -> InducedEnumState:
    """State for the empty solution: every vertex is a candidate.

    Pair graphs contain just the two query vertices, so dist is 1 on edges and
    the second distance is nowhere finite.
    """
    dist: dict[int, dict[int, Length]] = {}
    for v in range(g.n):
        row: dict[int, Length] = {v: 0}
        for nb in g.neighbors(v):
            row[nb] = 1
        dist[v] = row
    second: dict[int, dict[int, Length]] = {v: {} for v in range(g.n)}
    return InducedEnumState(g, k, set(), set(range(g.n)), set(), set(), set(), dist, second)


def _split_old_candidates(state: InducedEnumState, v: int):
    """Partition the old candidates attached to S + {v}: (survivors, girth_dropped).

    Below the root every candidate is attached to S, so all of cand - {v} is
    scanned. At the empty-solution root only v's neighbours are attached to
    {v}; they are the other keys of dist[v] still in cand (exclusion leaves
    the keys in place), so the scan skips the rest of the graph.
    """
    survivors: set[int] = set()
    girth_dropped: set[int] = set()
    k = state.k
    dist = state.dist
    second = state.second
    for u in state.cand if state.solution else state.cand.intersection(dist[v]):
        if u == v:
            continue
        if dist[u][v] + second[u].get(v, INFINITE) >= k:
            survivors.add(u)
        else:
            girth_dropped.add(u)
    return survivors, girth_dropped


def filter_old_candidates(state: InducedEnumState, v: int) -> set[int]:
    """Old candidates still valid for S + {v}, decided in O(1) per candidate.

    A candidate u survives iff dist[u][v] + second[u][v] >= k (and, from the
    root only, iff it is attached at all).
    """
    return _split_old_candidates(state, v)[0]


def adopt_new_candidates(state: InducedEnumState, v: int) -> set[int]:
    """Unreached neighbors of v: they attach to S + {v} through v alone.

    A cycle through such a vertex would need two of its neighbors inside the
    new solution, so girth is preserved automatically and no test is needed.
    """
    sol = state.solution
    cand = state.cand
    root_done = state.root_done
    local_done = state.local_done
    girth = state.girth_blocked
    return {
        w
        for w in state.g.neighbors(v)
        if w not in sol
        and w not in cand
        and w not in root_done
        and w not in local_done
        and w not in girth
    }


def update_dist(state: InducedEnumState, v: int, newcand: set[int]) -> dict[int, dict[int, Length]]:
    """Distance table for S + {v}: one row per vertex of newcand, over S + {v} + newcand.

    A surviving candidate u keeps min(dist[u][y], dist[u][v] + dist[v][y]) for
    every y in S + {v} and every other survivor; each such pair had a
    candidate end before, so both terms are stored. A vertex w adopted
    through v touches S + {v} only at v, so it sits at dist[v][x] + 1 from
    every x in S (the old entry is already the distance in S + {v}), and at
    1 or dist[u][v] + 1 from a survivor u. Costs |newcand| * (|S| + |newcand|).

    Every pair in scope is finite: below the root S is connected and every
    candidate attaches to it. At the root only dist[u][y] between two
    neighbours u, y of v can be absent, and then the path through v is taken.
    """
    old = state.dist
    dv = old[v]
    sol = state.solution
    survivors = [u for u in newcand if u in state.cand]
    adopted = [w for w in newcand if w not in state.cand]
    new: dict[int, dict[int, Length]] = {}
    for u in survivors:
        rowu = old[u]
        duv = rowu[v]
        nrow: dict[int, Length] = {v: duv}
        for x in sol:
            d = rowu[x]
            if duv + dv[x] < d:
                d = duv + dv[x]
            nrow[x] = d
        for y in survivors:
            d = rowu.get(y, INFINITE)
            if duv + dv[y] < d:
                d = duv + dv[y]
            nrow[y] = d
        new[u] = nrow
    for i, w in enumerate(adopted):
        adj_w = state.g.neighbor_set(w)
        roww: dict[int, Length] = {x: dv[x] + 1 for x in sol}
        roww[w] = 0
        roww[v] = 1
        for u in survivors:
            rowu = new[u]
            d = 1 if u in adj_w else rowu[v] + 1
            roww[u] = d
            rowu[w] = d
        for w2 in adopted[:i]:
            d = 1 if w2 in adj_w else 2  # otherwise they meet at v
            roww[w2] = d
            new[w2][w] = d
        new[w] = roww
    return new


def update_second(
    state: InducedEnumState,
    v: int,
    newcand: set[int],
    new_dist: dict[int, dict[int, Length]],
    stats: InducedRunStats | None = None,
) -> dict[int, dict[int, Length]]:
    """Second-distance table for S + {v} over the new candidate pairs.

    When the old dist + second sum is below k the new value follows in O(1)
    from (old dist, via-v dist, old second): min(max(p1, p2), p3). Otherwise
    it is recomputed as the best first hop from u into the new solution that
    does not reuse the shortest path's first edge.
    """
    g = state.g
    k = state.k
    old_dist = state.dist
    old_second = state.second
    sol2 = state.solution | {v}
    new: dict[int, dict[int, Length]] = {}
    pairs = 0
    for u in newcand:
        old_row = old_dist.get(u)
        old_sec = old_second.get(u)
        du = new_dist[u]
        duv = du[v]
        hops = [y for y in g.neighbors(u) if y in sol2]  # ascending
        nrow: dict[int, Length] = {}
        for w in newcand:
            if w == u:
                continue
            pairs += 1
            p1 = old_row.get(w, INFINITE) if old_row is not None else INFINITE
            p3 = old_sec.get(w, INFINITE) if old_sec is not None else INFINITE
            if p1 + p3 < k:
                p2 = duv + new_dist[w][v]
                if stats is not None:
                    if p1 < p2:
                        stats.fast_old_path_shorter += 1
                    else:
                        stats.fast_via_path_shorter += 1
                val = min(p2 if p1 < p2 else p1, p3)
            else:
                if stats is not None:
                    stats.full_recomputes += 1
                target = du[w]
                row_w_dist = new_dist[w]
                first_hop_found = False
                val = INFINITE
                if w in g.neighbor_set(u):
                    scan = sorted(hops + [w])
                else:
                    scan = hops
                for y in scan:
                    dyw1 = (row_w_dist.get(y, INFINITE) if y != w else 0) + 1
                    if not first_hop_found and dyw1 == target:
                        first_hop_found = True  # this edge is the removed one
                        continue
                    if dyw1 < val:
                        val = dyw1
            if val != INFINITE:
                nrow[w] = val
        new[u] = nrow
    if stats is not None:
        stats.candidate_pairs += pairs
    return new


def advance(state: InducedEnumState, v: int, stats: InducedRunStats | None = None) -> InducedEnumState:
    """Child state for solution S + {v}; the parent is left untouched."""
    survivors, girth_dropped = _split_old_candidates(state, v)
    newcand = survivors | adopt_new_candidates(state, v)
    child = InducedEnumState(
        state.g,
        state.k,
        state.solution | {v},
        newcand,
        state.root_done,
        set(state.local_done),
        state.girth_blocked | girth_dropped,
        {},
        {},
    )
    child.dist = update_dist(state, v, newcand)
    child.second = update_second(state, v, newcand, child.dist, stats)
    return child


def exclude_candidate(state: InducedEnumState, v: int) -> None:
    """Drop v from this iteration's remaining subtree (the done-set step).

    The mark goes to the shared root part at the root and to the local part
    below it. The tables are not touched: every later read is keyed by a
    current candidate, so v's row and column are never read again.
    """
    state.cand.discard(v)
    (state.local_done if state.solution else state.root_done).add(v)


def branch_order(state: InducedEnumState) -> list[int]:
    """Candidates to branch on, in ascending id."""
    return sorted(state.cand)


def enumerate_induced_fast(
    g: Graph,
    k: Length,
    sink: SolutionSink | None = None,
    *,
    include_empty: bool = True,
    limit: int | None = None,
    on_state: Callable[[InducedEnumState], object] | None = None,
    stats: InducedRunStats | None = None,
) -> int:
    """Enumerate all connected induced subgraphs with girth >= k, each exactly once.

    Same solution set as the baseline engine in connected induced mode, but
    candidate sets are maintained incrementally. Each recursion level owns its
    candidate set, tables and local exclusion marks, so backtracking needs no
    undo; the root's exclusion marks are shared by every state below it,
    which is exact because a subtree is finished before the root marks its
    next vertex. Returns the number of solutions emitted.
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
        on_state=on_state,
        stats=stats,
    )
