"""Independent reference computations used only by the tests.

Deliberately different algorithm families from the package: cycle lengths by
exhaustive simple-cycle enumeration, connectivity by union-find, distances by
BFS, Floyd-Warshall or path enumeration. Meant for tiny graphs only.

pair_distance and second_distance are the BFS oracles for the induced
engine: pair_distance for its distance table, second_distance for its
candidate filter, which derives second distances from the chosen vertex's
distance row instead of storing them (check_induced_state,
test_filter_decides_by_dist_plus_second_distance). test_girth checks both
against fw_pair_distance and path_second_distance.

brute_reduce_up_to_isomorphism decides isomorphism by trying all n! vertex
permutations, the oracle for extremal.canonical_form's reduction.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

from girthscope import Graph, INFINITE, Length
from girthscope.graph import VertexSet


def brute_girth(g: Graph) -> int | float:
    """Minimum cycle length (or weight) by enumerating every simple cycle."""
    best = INFINITE
    adjw = [[(nb, g.weight(eid)) for nb, eid in g.adj[v]] for v in range(g.n)]

    def extend(start, x, total, visited):
        nonlocal best
        for y, w in adjw[x]:
            if y == start and len(visited) >= 3:
                if total + w < best:
                    best = total + w
            elif y > start and y not in visited:
                visited.add(y)
                extend(start, y, total + w, visited)
                visited.remove(y)

    for s in range(g.n):
        extend(s, s, 0, {s})
    return best


def union_find_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n)}) == 1


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


def fw_pair_distance(g: Graph, members, u: int, w: int) -> int | float:
    """Distance between u and w in the induced graph on members | {u, w}, by Floyd-Warshall."""
    verts = sorted(set(members) | {u, w})
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    d = [[INFINITE] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for a, b, _ in g.edges:
        if a in idx and b in idx:
            d[idx[a]][idx[b]] = d[idx[b]][idx[a]] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i][k] + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return d[idx[u]][idx[w]]


def _all_simple_paths(g: Graph, allowed: set[int], u: int, w: int) -> list[tuple[int, ...]]:
    paths: list[tuple[int, ...]] = []

    def extend(x, path, visited):
        for y in g.neighbors(x):
            if y == w:
                paths.append(path + (w,))
            elif y in allowed and y not in visited:
                visited.add(y)
                extend(y, path + (y,), visited)
                visited.remove(y)

    extend(u, (u,), {u})
    return paths


def path_second_distance(g: Graph, members, u: int, w: int, descending: bool = False):
    """Second distance by path enumeration; tie-break direction is configurable.

    Among the shortest u-w paths in the pair graph, the removed first edge
    goes to the lowest-id (or highest-id) first hop; the result is the
    shortest path not using that edge.
    """
    allowed = set(members) | {u, w}
    paths = _all_simple_paths(g, allowed, u, w)
    if not paths:
        return INFINITE
    shortest = min(len(p) - 1 for p in paths)
    hops = sorted({p[1] for p in paths if len(p) - 1 == shortest}, reverse=descending)
    first_hop = hops[0]
    remaining = [len(p) - 1 for p in paths if p[1] != first_hop]
    return min(remaining) if remaining else INFINITE


def min_cycle_through_pair(g: Graph, members, u: int, w: int):
    """Shortest cycle containing both u and w in the induced graph on members | {u, w}.

    A cycle through both splits into two u-w paths sharing no inner vertex.
    """
    allowed = set(members) | {u, w}
    paths = _all_simple_paths(g, allowed, u, w)
    best = INFINITE
    for i, p in enumerate(paths):
        inner_p = set(p[1:-1])
        for q in paths[i + 1 :]:
            if p[1] == q[1] or p[-2] == q[-2]:
                continue
            if inner_p & set(q[1:-1]):
                continue
            total = len(p) + len(q) - 2
            if total < best:
                best = total
    return best


def min_cycle_through_vertex(g: Graph, members, u: int, w: int):
    """Shortest cycle containing u in the induced graph on members | {u, w}."""
    allowed = set(members) | {u, w}
    best = INFINITE

    def extend(x, length, visited):
        nonlocal best
        for y in g.neighbors(x):
            if y == u and len(visited) >= 3:
                if length + 1 < best:
                    best = length + 1
            elif y in allowed and y not in visited:
                visited.add(y)
                extend(y, length + 1, visited)
                visited.remove(y)

    extend(u, 0, {u})
    return best


def independent_solutions(g: Graph, k, mode: str, connectivity: str) -> set[frozenset[int]]:
    """Subset filter that bypasses the package's girth/connectivity code entirely."""
    from girthscope import edge_subgraph, induced_subgraph

    total = g.n if mode == "induced" else g.m
    out: set[frozenset[int]] = set()
    for mask in range(1 << total):
        members = frozenset(i for i in range(total) if mask >> i & 1)
        sub = induced_subgraph(g, members) if mode == "induced" else edge_subgraph(g, members)
        if connectivity == "connected" and not union_find_connected(sub):
            continue
        if brute_girth(sub) >= k:
            out.add(members)
    return out


def brute_reduce_up_to_isomorphism(
    witnesses: list[tuple[tuple[int, int], ...]], n: int
) -> list[tuple[tuple[int, int], ...]]:
    """Keep one representative per isomorphism class (brute force; keep n <= 7).

    Witnesses are bucketed by degree sequence first; within a bucket, all n!
    vertex permutations decide isomorphism.
    """

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
