"""Girth computation and the pair/second-distance primitives.

pair_distance and second_distance are reference oracles for the induced
engine: pair_distance for its distance table, second_distance for its
candidate filter, which derives second distances from the chosen vertex's
distance row instead of storing them. The tests check both against these
functions (check_induced_state, test_filter_decides_by_dist_plus_second_distance).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .graph import Graph, INFINITE, Length, VertexSet


def girth_of_adjacency(adj: Sequence[Sequence[int]]) -> Length:
    """Exact girth of a graph given as plain adjacency lists.

    BFS from every root; every non-tree edge (u, w) closes a walk of length
    level(u) + level(w) + 1. A closed walk of length L contains a cycle of
    length <= L, and a root on a shortest cycle produces an estimate equal to
    the girth, so the minimum over all roots and edges is exact.
    """
    best: Length = INFINITE
    n = len(adj)
    level: dict[int, int] = {}
    parent: dict[int, int] = {}
    for root in range(n):
        if not adj[root]:
            continue
        level.clear()
        parent.clear()
        level[root] = 0
        parent[root] = -1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            lu = level[u]
            if 2 * lu >= best:
                break  # all later estimates from this root are >= 2*lu
            for w in adj[u]:
                lw = level.get(w)
                if lw is None:
                    level[w] = lu + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    est = lu + lw + 1
                    if est < best:
                        best = est
    return best


def girth_unweighted(g: Graph) -> Length:
    """Length of a shortest cycle of g; INFINITE if acyclic."""
    return girth_of_adjacency([g.neighbors(v) for v in range(g.n)])


def girth_weighted(g: Graph) -> Length:
    """Minimum total edge weight over all cycles of g; INFINITE if acyclic.

    Floyd-Warshall style: just before vertex k is allowed as an intermediate,
    d[i][j] holds shortest paths avoiding k, so d[i][j] + w(i,k) + w(k,j) over
    neighbor pairs (i, j) of k closes a cycle through k. Taking candidates
    from neighbor pairs (rather than d[k][k]) keeps a single undirected edge
    from being counted as a two-step cycle.
    """
    n = g.n
    dist = [[INFINITE] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, w in g.edges:
        dist[u][v] = w
        dist[v][u] = w
    best: Length = INFINITE
    for k in range(n):
        nbrs = [(x, g.weight(eid)) for x, eid in g.adj[k]]
        for a in range(len(nbrs)):
            xa, wa = nbrs[a]
            row = dist[xa]
            for b in range(a + 1, len(nbrs)):
                xb, wb = nbrs[b]
                cand = row[xb] + wa + wb
                if cand < best:
                    best = cand
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INFINITE:
                continue
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return best


def _pair_levels(
    g: Graph, members: VertexSet, u: int, w: int, source: int, skip: int | None = None
) -> dict[int, int]:
    """BFS levels from `source` inside the induced graph on members | {u, w}.

    The edge from `source` to its neighbour `skip`, if given, is left out.
    """
    levels = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        lx = levels[x]
        for y in g.neighbors(x):
            if y in levels or (x == source and y == skip):
                continue
            if y != u and y != w and y not in members:
                continue
            levels[y] = lx + 1
            queue.append(y)
    return levels


def pair_distance(g: Graph, members: VertexSet, u: int, w: int) -> Length:
    """Shortest-path length between u and w inside the induced graph on members | {u, w}.

    INFINITE when they are disconnected there. Reference oracle for the
    incremental distance table.
    """
    if u == w:
        raise ValueError("pair_distance needs two distinct vertices")
    if not (0 <= u < g.n and 0 <= w < g.n):
        raise ValueError("vertex id out of range")
    return _pair_levels(g, members, u, w, u).get(w, INFINITE)


def second_distance(g: Graph, members: VertexSet, u: int, w: int) -> Length:
    """Distance between u and w in the pair graph with the first shortest-path edge removed.

    The removed edge joins u to its lowest-id neighbor that starts a shortest
    u-w path (the first edge of the lexicographically-first shortest path);
    the returned value does not depend on that tie-break. INFINITE when u and
    w are disconnected in the pair graph, or when removing the edge isolates
    them. Reference oracle for the induced candidate filter, which reads this
    value off a distance row rather than storing it.
    """
    if u == w:
        raise ValueError("second_distance needs two distinct vertices")
    if not (0 <= u < g.n and 0 <= w < g.n):
        raise ValueError("vertex id out of range")
    if u in members or w in members:
        raise ValueError("second_distance endpoints must lie outside the vertex set")
    from_w = _pair_levels(g, members, u, w, w)
    d = from_w.get(u)
    if d is None:
        return INFINITE
    first_hop = next(  # ascending id
        y for y in g.neighbors(u) if (y == w or y in members) and from_w.get(y, INFINITE) + 1 == d
    )
    return _pair_levels(g, members, u, w, u, skip=first_hop).get(w, INFINITE)
