"""Fast connected-induced-subgraph enumerator with incremental candidate maintenance.

Instead of re-testing girth from scratch, each iteration keeps one table for
the current solution S:

  dist[u][y]    shortest-path length between u and y in the induced graph on
                S + {u, y} ("pair graph"), kept in the row of each candidate
                u for y in S | cand (solution vertices get no row: every
                reader of a solution-candidate pair goes through the
                candidate's row).

Adding v keeps a candidate u iff the two smallest first-hop lengths of u
towards v sum to at least k. A first hop is a neighbour y of u in S + {v},
and its length is dist[v][y] + 1 (1 for y = v): the rest of a u-v path runs
inside G[S + {v}], which is v's own pair graph with y. The smallest of these
lengths is dist[u][v]; the second smallest (ties counted twice) is the
paper's second distance, the u-v distance once the first edge of a shortest
path is removed. The rule is exact. Two distinct first hops of total length
L close a walk of length L through u that uses each of its two u-edges once,
so it contains a cycle through u of length at most L; a cycle that misses v
lies in G[S + {u}] and is already at least k long. Conversely a cycle through
u and v leaves u by two distinct first hops and reaches v along each side,
so it is at least as long as their sum; cycles missing u or v were certified
when those vertices became candidates. v's row holds every length the rule
reads, so the filter needs no second table: it costs O(deg u) per candidate,
and nothing when 2 * dist[u][v] >= k, since the second length is at least
the first. dist is updated Floyd-Warshall style, one candidate row at a
time. Excluding a candidate only drops it from cand: its row and column stay
in the table, unread, because every later read is keyed by a current
candidate. Entries outside the scope are INFINITE by convention.

Done marks are a set only at the root. Below it a vertex outside S and cand
is excluded (done or girth-dropped) iff it has a neighbour in S: it became a
candidate when its first S-neighbour joined, unless already excluded, and
only exclusion removes a candidate; with no S-neighbour it was in no
ancestor's cand, since every candidate below the root attaches to S, so only
a root mark can exclude it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .enum_core import SolutionSink, search, validate_fast_input
from .graph import Graph, INFINITE, Length


@dataclass
class InducedRunStats:
    """Counters for one enumeration run (work accounting)."""

    iterations: int = 0
    max_depth: int = 0
    candidate_pairs: int = 0  # (old candidate, added vertex) pairs the filter decided


class InducedEnumState:
    """Per-iteration state: solution, candidate set, root marks, distance table.

    solution is a frozenset, so emitting it copies nothing.

    root_done holds the marks made at the empty-solution root, shared by every
    state of one run; below the root no state holds a set of marks.

    dist is a dict of dicts holding finite entries only, never changed once
    built. It has one row per candidate, with solution and candidate columns,
    so a step writes |cand| * (|S| + |cand|) entries. Rows of excluded
    vertices stay in place unread. get_dist answers in scope, (S | cand) x
    cand, and get_second on cand x cand; both report INFINITE elsewhere. No
    second-distance table is stored: get_second and the `second` property
    derive it from the distance rows, by the first-hop rule the filter uses.
    """

    __slots__ = ("g", "k", "solution", "cand", "root_done", "dist")

    def __init__(self, g, k, solution, cand, root_done, dist):
        self.g = g
        self.k = k
        self.solution = solution
        self.cand = cand
        self.root_done = root_done
        self.dist = dist

    @property
    def second(self) -> dict[int, dict[int, Length]]:
        """Finite second distances over cand x cand, as a fresh table (the engine never builds it).

        At the root no candidate has a first hop besides its partner, so every
        row is empty.
        """
        if not self.solution:
            return {u: {} for u in self.cand}
        table: dict[int, dict[int, Length]] = {}
        for u in self.cand:
            row = table[u] = {}
            for w in self.cand:
                if w != u and (s := self.get_second(u, w)) != INFINITE:
                    row[w] = s
        return table

    def get_dist(self, x: int, y: int) -> Length:
        if x not in self.cand:
            x, y = y, x  # a solution-candidate pair lives in the candidate's row
        if x not in self.cand or (y not in self.cand and y not in self.solution):
            return INFINITE
        return self.dist[x].get(y, INFINITE)

    def get_second(self, u: int, w: int) -> Length:
        if u == w or u not in self.cand or w not in self.cand:
            return INFINITE
        return _second_distance_via_row(self.g, self.solution, u, w, self.dist[w])


def initial_state(g: Graph, k: Length) -> InducedEnumState:
    """State for the empty solution: every vertex is a candidate.

    Pair graphs contain just the two query vertices, so dist is 1 on edges.
    """
    dist: dict[int, dict[int, Length]] = {}
    for v in range(g.n):
        row: dict[int, Length] = {v: 0}
        for nb in g.neighbors(v):
            row[nb] = 1
        dist[v] = row
    return InducedEnumState(g, k, frozenset(), set(range(g.n)), set(), dist)


def _second_distance_via_row(g: Graph, sol: set[int], u: int, w: int, roww: dict[int, Length]) -> Length:
    """Second smallest first-hop length of u towards w: the u-w second distance.

    The first hops are u's neighbours y in S + {w}, of length roww[y] + 1 (1
    for y = w), where roww is w's distance row; ties count twice. INFINITE
    when u has fewer than two first hops.
    """
    first = second = INFINITE
    for y in g.neighbors(u):
        if y == w:
            d = 1
        elif y in sol:
            d = roww[y] + 1
        else:
            continue
        if d < second:
            if d < first:
                first, second = d, first
            else:
                second = d
    return second


def _split_old_candidates(state: InducedEnumState, v: int) -> set[int]:
    """The old candidates that stay candidates of S + {v}; the rest are girth-dropped.

    u survives iff dist[u][v] + second >= k, where dist[u][v] = dist[v][u] is
    its smallest first-hop length and second the next one (module
    docstring); when 2 * dist[u][v] >= k the scan for second is skipped.
    Below the root every candidate is attached to S, so all of cand - {v} is
    scanned. At the empty-solution root only v's neighbours are attached to
    {v}; they are the other keys of dist[v] still in cand (exclusion leaves
    the keys in place), and all of them survive, since v is their only first
    hop.
    """
    dv = state.dist[v]
    sol = state.solution
    if not sol:
        return state.cand.intersection(dv) - {v}
    survivors: set[int] = set()
    g = state.g
    k = state.k
    for u in state.cand:
        if u == v:
            continue
        d = dv[u]
        if 2 * d >= k or d + _second_distance_via_row(g, sol, u, v, dv) >= k:
            survivors.add(u)
    return survivors


def adopt_new_candidates(state: InducedEnumState, v: int) -> set[int]:
    """Unreached neighbors of v: they attach to S + {v} through v alone.

    A cycle through such a vertex would need two of its neighbors inside the
    new solution, so girth is preserved automatically and no test is needed.
    Outside S and cand, they are the ones with no root mark and no
    neighbour in S (module docstring).
    """
    sol = state.solution
    cand = state.cand
    root_done = state.root_done
    neighbor_set = state.g.neighbor_set
    return {
        w
        for w in state.g.neighbors(v)
        if w not in sol and w not in cand and w not in root_done and neighbor_set(w).isdisjoint(sol)
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


def advance(state: InducedEnumState, v: int, stats: InducedRunStats | None = None) -> InducedEnumState:
    """Child state for solution S + {v}; the parent is left untouched."""
    survivors = _split_old_candidates(state, v)
    if stats is not None:
        # below the root the filter decides every other candidate, at the root only v's neighbours
        stats.candidate_pairs += len(state.cand - {v}) if state.solution else len(survivors)
    newcand = survivors | adopt_new_candidates(state, v)
    return InducedEnumState(
        state.g, state.k, state.solution | {v}, newcand, state.root_done, update_dist(state, v, newcand)
    )


def exclude_candidate(state: InducedEnumState, v: int) -> None:
    """Drop v from this iteration's remaining subtree (the done-set step).

    Below the root, dropping v from cand is the whole mark (module
    docstring); at the root it also goes to root_done. The table is not
    touched: every later read is keyed by a current candidate, so v's row
    and column are never read again.
    """
    state.cand.discard(v)
    if not state.solution:
        state.root_done.add(v)


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
    candidate set and distance table, so backtracking needs no undo; the
    root's exclusion marks are shared by every state below it, which is exact
    because a subtree is finished before the root marks its next vertex.
    Returns the number of solutions emitted.
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
