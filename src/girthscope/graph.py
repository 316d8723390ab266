"""Immutable simple-graph core: construction, parsing, subgraph views, connectivity.

Vertices are dense ints 0..n-1 and edges dense ints 0..m-1, assigned in input
order. All enumeration determinism downstream keys off ascending id order, so
adjacency lists are kept sorted.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence, Set as AbstractSet

from .errors import BudgetExceededError, ParseError, ValidationError

#: Sentinel for the length of a nonexistent path / the girth of an acyclic
#: graph. math.inf saturates under addition and sorts above every int, which
#: is exactly the Length contract.
INFINITE = math.inf

Length = int | float

VertexSet = AbstractSet[int]
EdgeSet = AbstractSet[int]


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    Immutable after construction; the enumerators realize "vertex/edge
    removal" with exclusion masks, never by mutating a Graph, so one instance
    can be shared freely across runs.

    Attributes:
        n: vertex count.
        edges: tuple of (u, v, weight) with u < v, indexed by edge id.
        adj: per-vertex tuple of (neighbor, edge id), sorted by neighbor.
        weighted: whether some edge weight is not 1.

    Inside the package, _neighbors and _neighbor_sets (per-vertex neighbour
    tuples and frozensets, the values of neighbors and neighbor_set) are read
    directly by hot loops that would otherwise pay a method call per vertex.
    """

    __slots__ = ("n", "edges", "adj", "weighted", "_neighbors", "_neighbor_sets")

    def __init__(self, n: int, edges: Iterable[tuple] = ()):
        # bool subclasses int, but True is neither a count, a vertex id nor a weight
        if type(n) is not int or n < 0:
            raise ValidationError(f"vertex count must be a non-negative int, not {n!r}")
        norm: list[tuple[int, int, int]] = []
        pairs: set[tuple[int, int]] = set()
        weighted = False
        for item in edges:
            # a tuple, the usual item, skips the slower ABC check
            size = len(item) if type(item) is tuple or isinstance(item, Sequence) else 0
            if size == 2:
                u, v = item
                w = 1
            elif size == 3:
                u, v, w = item
            else:
                raise ValidationError(f"edge {item!r} is not a (u, v) or (u, v, weight) sequence")
            if type(u) is not int or type(v) is not int:
                raise ValidationError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in pairs:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            if not isinstance(w, int) or type(w) is bool or w < 1:
                raise ValidationError(f"edge ({u}, {v}) has weight {w}; weights must be integers >= 1")
            if w != 1:
                weighted = True
            pairs.add((u, v))
            norm.append((u, v, w))

        adj_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v, _) in enumerate(norm):
            adj_lists[u].append((v, eid))
            adj_lists[v].append((u, eid))
        for lst in adj_lists:
            lst.sort()

        self.n = n
        self.edges = tuple(norm)
        self.adj = tuple(tuple(lst) for lst in adj_lists)
        self.weighted = weighted
        self._neighbors = tuple(tuple(nb for nb, _ in lst) for lst in adj_lists)
        self._neighbor_sets = tuple(frozenset(t) for t in self._neighbors)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbor ids of v in ascending order."""
        return self._neighbors[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def weight(self, eid: int) -> int:
        return self.edges[eid][2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        tag = ", weighted" if self.weighted else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def _graph_from_lines(n: int, numbered: list[tuple[int, str, tuple[int, int, int]]]) -> Graph:
    """Graph(n, edges) from (line number, line text, edge) triples.

    Graph.__init__ holds the edge rules (no self-loop, no duplicate, integer
    weights >= 1); an edge it rejects is reported with its line.
    """
    where = None

    def edges():
        nonlocal where
        for lineno, line, edge in numbered:
            where = lineno, line
            yield edge

    try:
        return Graph(n, edges())
    except ValidationError as exc:
        if where is None:
            raise
        raise ValidationError(f"line {where[0]}: {exc} (in {where[1]!r})") from None


def parse_edge_list(text: str, weighted: bool = False) -> Graph:
    """Parse "u v" lines, or with weighted=True also "u v w" lines, into a Graph.

    '#' starts a comment. Vertex labels are arbitrary tokens, renumbered to
    0..n-1 in order of first appearance. Self-loops, duplicate edges and
    weights < 1 are rejected.
    """
    ids: dict[str, int] = {}
    numbered: list[tuple[int, str, tuple[int, int, int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if weighted:
            if len(parts) not in (2, 3):
                raise ParseError("expected 'u v' or 'u v w'", lineno)
        elif len(parts) != 2:
            raise ParseError("expected 'u v' (pass weighted=True for 'u v w' lines)", lineno)
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        if len(parts) == 3:
            try:
                w = int(parts[2])
            except ValueError:
                raise ParseError(f"weight {parts[2]!r} is not an integer", lineno) from None
        else:
            w = 1
        numbered.append((lineno, line, (u, v, w)))
    return _graph_from_lines(len(ids), numbered)


#: Most vertices a DIMACS problem line may declare. A Graph costs about 340
#: bytes per vertex, isolated or not, so a 19-byte header could otherwise ask
#: for gigabytes before any edge line is read.
DIMACS_MAX_VERTICES = 100_000


def parse_dimacs(text: str, weighted: bool = False) -> Graph:
    """Parse a DIMACS graph ("p edge n m" header, "e u v" lines or with weighted=True "e u v w", 1-based).

    Validation matches parse_edge_list; the declared edge count must match.
    A problem line declaring more than DIMACS_MAX_VERTICES vertices raises
    BudgetExceededError before anything is allocated for them.
    """
    n = None
    declared_m = None
    numbered: list[tuple[int, str, tuple[int, int, int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError("expected 'p edge <n> <m>'", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer vertex/edge count", lineno) from None
            if n > DIMACS_MAX_VERTICES:
                raise BudgetExceededError(
                    f"line {lineno}: problem line declares {n} vertices, over the budget of {DIMACS_MAX_VERTICES}"
                )
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", lineno)
            if len(parts) not in (3, 4) or (len(parts) == 4 and not weighted):
                raise ParseError("expected 'e u v'" + (" or 'e u v w'" if weighted else ""), lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
                w = int(parts[3]) if len(parts) == 4 else 1
            except ValueError:
                raise ParseError("non-integer edge fields", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"line {lineno}: vertex outside 1..{n}")
            numbered.append((lineno, line, (u - 1, v - 1, w)))
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p edge' problem line")
    g = _graph_from_lines(n, numbered)
    if declared_m != g.m:
        raise ValidationError(f"problem line declares {declared_m} edges, found {g.m}")
    return g


def to_edge_list(g: Graph) -> str:
    """Serialize as edge-list text, with a weight column if g is weighted.

    parse_edge_list(text, weighted=g.weighted) renumbers the vertices in order
    of first appearance, so it gives back g only if g's vertices first appear
    in id order along its edge ids (u before v) and none is isolated.
    """
    lines = []
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w}" if g.weighted else f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def induced_subgraph(g: Graph, vertices: VertexSet) -> Graph:
    """Subgraph on `vertices` with every edge of g internal to it, relabeled to 0..|S|-1.

    Relabeling follows ascending source id, so induced_subgraph(g, range(g.n)) == g.
    """
    order = sorted(vertices)
    if order and not (0 <= order[0] and order[-1] < g.n):
        raise ValidationError("vertex id out of range")
    index = {v: i for i, v in enumerate(order)}
    sub = [
        (index[u], index[v], w)
        for (u, v, w) in g.edges
        if u in index and v in index
    ]
    return Graph(len(order), sub)


def edge_subgraph(g: Graph, edge_ids: EdgeSet) -> Graph:
    """Subgraph whose edges are exactly `edge_ids` and whose vertices are their endpoints."""
    eids = sorted(edge_ids)
    if eids and not (0 <= eids[0] and eids[-1] < g.m):
        raise ValidationError("edge id out of range")
    verts = sorted({x for eid in eids for x in g.endpoints(eid)})
    index = {v: i for i, v in enumerate(verts)}
    sub = [(index[g.edges[eid][0]], index[g.edges[eid][1]], g.edges[eid][2]) for eid in eids]
    return Graph(len(verts), sub)


def adjacency_connected(adj: Sequence[Sequence[int]]) -> bool:
    """True iff the graph given as adjacency lists over 0..len(adj)-1 is connected.

    Graphs with <= 1 vertex count as connected.
    """
    if len(adj) <= 1:
        return True
    seen = [False] * len(adj)
    seen[0] = True
    reached = 1
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == len(adj)


def is_connected(g: Graph) -> bool:
    """True iff every vertex pair is joined by a path. Graphs with <= 1 vertex count as connected."""
    return adjacency_connected(g._neighbors)


# --- standard test-bench graphs -------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int, weights: Iterable[int] | None = None) -> Graph:
    """Cycle 0-1-...-(n-1)-0; optional per-edge weights in that order."""
    if n < 3:
        raise ValidationError("a cycle needs at least 3 vertices")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    if weights is None:
        return Graph(n, pairs)
    ws = list(weights)
    if len(ws) != n:
        raise ValidationError("need one weight per cycle edge")
    return Graph(n, [(u, v, w) for (u, v), w in zip(pairs, ws)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)
