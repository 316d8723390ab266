"""Girth computation: BFS from every root (unweighted) and Floyd-Warshall (weighted)."""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .graph import Graph, INFINITE, Length


def girth_of_adjacency(adj: Sequence[Sequence[int]], bound: Length = INFINITE) -> Length:
    """Girth of a graph given as plain adjacency lists, exact below `bound`; `bound` if it is not below.

    BFS from every root; every non-tree edge (u, w) closes a walk of length
    level(u) + level(w) + 1. A closed walk of length L contains a cycle of
    length <= L, and a root on a shortest cycle produces an estimate equal to
    the girth, so the minimum over all roots and edges is exact. Starting
    the minimum at `bound` stops each BFS once no shorter cycle can appear,
    and a triangle stops the whole search, since no cycle is shorter; so
    girth_of_adjacency(adj, k) >= k tells whether the girth reaches k.
    """
    best: Length = bound
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
                        if est == 3:
                            return est
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
