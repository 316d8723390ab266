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
time. A step builds each of its lists once: the filter's survivors and the
neighbours of v adopted through v alone go to update_dist as they are, and
together they are the child's branch; at the root v's neighbours above v
attach through v alone and are the adopted set, with no filter asked. The
hot loops read the Graph's neighbour tuples and frozensets directly. A child
with no candidate is a leaf: advance returns None for it and search
emits its solution without a state. A child with one candidate c whose own
child is a leaf, as c has no neighbour to adopt into S + {v}, is a fan
(dist None, enum_core.search): it writes no table, and search emits its
child without advance. Entries outside the scope are INFINITE by convention.

No state holds a set of done marks. The child on branch[i] draws only on
branch[i + 1:], so the candidates before it are marked by their position.
The root branches on every vertex in ascending id, so below root child
first the root marks are the ids below it, and a state keeps only first =
min(S). Below the root a vertex outside S and cand is excluded iff it has
a neighbour in S or an id below first:
it became a candidate when its first S-neighbour joined, unless already
excluded, and only exclusion removes a candidate; with no S-neighbour it
was in no ancestor's cand, since every candidate below the root attaches
to S, so only a root mark can exclude it.
"""

from __future__ import annotations

from .enum_core import SolutionSink, search, validate_fast_input
from .graph import Graph, INFINITE, Length


class InducedRunStats:
    """Counters for one run: iterations and max_depth as search keeps them, and the filter's pairs.

    A fan's child is emitted without advance; it would have asked the filter
    about no pair, since it draws on no other candidate.
    """

    def __init__(self):
        self.iterations = 0
        self.max_depth = 0
        self.candidate_pairs = 0  # (old candidate, added vertex) pairs the filter decided


class InducedEnumState:
    """Per-iteration state: solution, candidates in branch order, root-mark bound, distance table.

    solution is a frozenset, so emitting it copies nothing.

    branch lists the candidates in ascending id, the order the state
    branches on them; the child on branch[i] draws only on branch[i + 1:],
    so no state is changed once built.

    first is the vertex the root branched on, min(S), and -1 at the root; the
    root marks this state inherited are the ids below it.

    dist is a dict of dicts holding finite entries only, never changed once
    built. It has one row per candidate, with solution and candidate columns,
    so a step writes |cand| * (|S| + |cand|) entries, and its key set is the
    candidate set. No second-distance table is stored: the filter derives
    second distances from the distance rows by the first-hop rule. A fan,
    a state whose one child is a leaf, has dist None (module docstring).
    """

    __slots__ = ("g", "k", "solution", "branch", "first", "dist")

    def __init__(self, g, k, solution, branch, first, dist):
        self.g = g
        self.k = k
        self.solution = solution
        self.branch = branch
        self.first = first
        self.dist = dist

    @property
    def cand(self) -> frozenset[int]:
        """The candidate set, read from branch, so a fan has one too."""
        return frozenset(self.branch)


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
    return InducedEnumState(g, k, frozenset(), list(range(g.n)), -1, dist)


def _second_distance_via_row(g: Graph, sol: set[int], u: int, w: int, roww: dict[int, Length]) -> Length:
    """Second smallest first-hop length of u towards w: the u-w second distance.

    The first hops are u's neighbours y in S + {w}, of length roww[y] + 1 (1
    for y = w), where roww is w's distance row; ties count twice. INFINITE
    when u has fewer than two first hops.
    """
    first = second = INFINITE
    for y in g._neighbors[u]:
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


def _split_old_candidates(state: InducedEnumState, i: int) -> list[int]:
    """The candidates after v = branch[i] that stay candidates of S + {v}, in ascending id.

    u survives iff dist[u][v] + second >= k, where dist[u][v] = dist[v][u] is
    its smallest first-hop length and second the next one (module
    docstring); when 2 * dist[u][v] >= k the scan for second is skipped.
    Below the root, the only place advance asks, every candidate is
    attached to S, so all of branch[i + 1:] is scanned.
    """
    branch = state.branch
    v = branch[i]
    dv = state.dist[v]
    sol = state.solution
    g = state.g
    k = state.k
    survivors = []
    for u in branch[i + 1 :]:
        d = dv[u]
        if 2 * d >= k or d + _second_distance_via_row(g, sol, u, v, dv) >= k:
            survivors.append(u)
    return survivors


def adopt_new_candidates(g: Graph, sol: frozenset[int], first: int, v: int) -> list[int]:
    """Unreached neighbours of v, in ascending id: they attach to sol + {v} through v alone.

    A cycle through such a vertex would need two of its neighbours inside the
    new solution, so girth is preserved automatically and no test is needed.
    Below the root they are the neighbours w outside sol with an id above
    first and no neighbour in sol, which no candidate lacks. advance asks it
    for v below the root, and for the one candidate of a child it builds.
    """
    neighbor_sets = g._neighbor_sets
    return [w for w in g._neighbors[v] if w > first and w not in sol and neighbor_sets[w].isdisjoint(sol)]


def update_dist(
    state: InducedEnumState, v: int, survivors: set[int], adopted: set[int]
) -> dict[int, dict[int, Length]]:
    """Distance table for S + {v}: one row per survivor and per adopted vertex, over S + {v} + both.

    `survivors` are the old candidates the filter kept and `adopted` the
    vertices that attach through v alone; the child's cand is their union.
    A survivor u keeps min(dist[u][y], dist[u][v] + dist[v][y]) for every y
    in S + {v} and every other survivor; each such pair had a candidate end
    before, so both terms are stored. An adopted w touches S + {v} only at v,
    so it sits at dist[v][x] + 1 from every x in S (the old entry is already
    the distance in S + {v}), at 1 or dist[u][v] + 1 from a survivor u, and
    at 1 or 2 from another adopted vertex. Costs |newcand| * (|S| + |newcand|)
    for newcand = survivors | adopted. A survivor's pairs are all stored: it
    attaches to the connected S, and at the root there is none, as every
    candidate of {v} is adopted.
    """
    old = state.dist
    dv = old[v]
    sol = state.solution
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
            d = rowu[y]
            if duv + dv[y] < d:
                d = duv + dv[y]
            nrow[y] = d
        new[u] = nrow
    neighbor_sets = state.g._neighbor_sets
    placed: list[int] = []
    for w in adopted:
        adj_w = neighbor_sets[w]
        roww: dict[int, Length] = {x: dv[x] + 1 for x in sol}
        roww[w] = 0
        roww[v] = 1
        for u in survivors:
            rowu = new[u]
            d = 1 if u in adj_w else rowu[v] + 1
            roww[u] = d
            rowu[w] = d
        for w2 in placed:
            d = 1 if w2 in adj_w else 2  # otherwise they meet at v
            roww[w2] = d
            new[w2][w] = d
        new[w] = roww
        placed.append(w)
    return new


def advance(
    state: InducedEnumState, i: int, solution: frozenset[int], stats: InducedRunStats | None = None
) -> InducedEnumState | None:
    """Child state on v = branch[i], with the solution S + {v}, or None if it has no candidate.

    The child draws on branch[i + 1:] alone, so the candidates before v are
    excluded from its subtree by position; the parent is left untouched.
    The filter's survivors and v's adopted neighbours are built once each:
    update_dist writes their rows from the two lists, and together they are
    the child's branch. At the root the survivors would be v's neighbours
    above v, which attach through v alone, so they are the adopted set.
    A child with one candidate c that has no neighbour to adopt into
    S + {v} is a fan, with no table: its one child is a leaf.
    """
    v = state.branch[i]
    g = state.g
    if state.solution:
        survivors = _split_old_candidates(state, i)
        adopted = adopt_new_candidates(g, state.solution, state.first, v)
        first = state.first
        if stats is not None:
            stats.candidate_pairs += len(state.branch) - i - 1  # the filter decides every later candidate
    else:
        survivors = []
        adopted = [y for y in g._neighbors[v] if y > v]
        first = v
        if stats is not None:
            stats.candidate_pairs += len(adopted)  # at the root, only v's neighbours
    branch = survivors + adopted
    if not branch:
        return None
    if len(branch) == 1 and not adopt_new_candidates(g, solution, first, branch[0]):
        return InducedEnumState(g, state.k, solution, branch, first, None)
    if survivors and adopted:
        branch.sort()
    return InducedEnumState(g, state.k, solution, branch, first, update_dist(state, v, survivors, adopted))


def enumerate_induced_fast(
    g: Graph,
    k: Length,
    sink: SolutionSink | None = None,
    *,
    include_empty: bool = True,
    limit: int | None = None,
    stats: InducedRunStats | None = None,
) -> int:
    """Enumerate all connected induced subgraphs with girth >= k, each exactly once.

    Same solution set as the baseline engine in connected induced mode, but
    candidate sets are maintained incrementally. Each recursion level owns its
    candidate list and distance table, so backtracking needs no undo; the
    root's exclusion marks are the ids below the vertex it branched on, which
    each state keeps as one integer. Only the root and the states with a
    candidate are built; a leaf is emitted without a state, and so is the
    one child of a fan, a state whose only child is a leaf. Returns the
    number of solutions emitted.
    """
    validate_fast_input(g, k)
    return search(
        initial_state(g, k),
        advance,
        sink,
        include_empty=include_empty,
        limit=limit,
        stats=stats,
    )
