"""Depth-first search shared by the engines, the baseline enumerator, the brute-force reference.

Every engine emits each qualifying subgraph exactly once: each iteration
outputs its solution, then branches on its candidate elements in order,
excluding already-branched elements from the remaining subtree. `search`
runs that loop; the engines differ only in how a child state is built.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import BudgetExceededError, ValidationError
from .girth import girth_of_adjacency, girth_weighted
from .graph import Graph, INFINITE, Length, adjacency_connected, edge_subgraph, induced_subgraph

#: Streaming consumer: called as sink(solution, ordinal) with ordinals counting
#: up from 0; returning False stops the run cleanly with a partial count.
SolutionSink = Callable[[frozenset[int], int], object]

MODES = ("induced", "edge")
CONNECTIVITIES = ("connected", "any")


@dataclass
class EnumConfig:
    """What to enumerate: girth threshold, element kind, and problem variant.

    weighted=True tests the weighted girth (cycle weight = sum of edge
    weights); connectivity="any" drops the connectivity requirement, leaving
    girth as the only condition.
    """

    k: Length
    mode: str = "induced"
    connectivity: str = "connected"
    include_empty: bool = True
    limit: int | None = None
    weighted: bool = False

    def validate(self, g: Graph) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.connectivity not in CONNECTIVITIES:
            raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
        validate_threshold(self.k)
        if self.weighted and not g.weighted:
            raise ValidationError("weighted enumeration requires a weighted graph")


def validate_threshold(k: Length) -> None:
    if k != INFINITE and not (isinstance(k, int) and k >= 3):
        raise ValidationError("girth threshold must be an integer >= 3, or INFINITE")


def validate_fast_input(g: Graph, k: Length) -> None:
    """Reject what the fast engines cannot run: a bad threshold or a weighted graph."""
    validate_threshold(k)
    if g.weighted:
        raise ValidationError("fast enumeration is unweighted; use the baseline engine")


@dataclass
class BaselineState:
    """One iteration of the baseline engine: solution, done-set mask, sorted candidates."""

    solution: set[int]
    excluded: set[int]
    cands: list[int] = field(default_factory=list)


class Collector:
    """Sink that stores every solution in order."""

    def __init__(self):
        self.solutions: list[frozenset[int]] = []

    def __call__(self, solution: frozenset[int], ordinal: int):
        self.solutions.append(solution)


class _Emitter:
    __slots__ = ("sink", "limit", "count", "stopped")

    def __init__(self, sink: SolutionSink | None, limit: int | None):
        if limit is not None and limit < 0:
            raise ValidationError("limit must be >= 0")
        self.sink = sink
        self.limit = limit
        self.count = 0
        self.stopped = False

    def emit(self, solution: frozenset[int]) -> bool:
        if self.limit is not None and self.count >= self.limit:
            self.stopped = True
            return False
        keep_going = True
        if self.sink is not None:
            keep_going = self.sink(solution, self.count) is not False
        self.count += 1
        if not keep_going or (self.limit is not None and self.count >= self.limit):
            self.stopped = True
        return not self.stopped


# --- from-scratch feasibility checks ---------------------------------------

def _local_adjacency(g: Graph, members: set[int], mode: str) -> list[list[int]]:
    """Adjacency lists of the solution subgraph over a local index 0..r-1.

    Induced mode indexes the member vertices in ascending id; edge mode
    indexes the endpoints of the member edges in order of first appearance.
    """
    if mode == "induced":
        order = sorted(members)
        index = {v: i for i, v in enumerate(order)}
        return [[index[y] for y in g.neighbors(v) if y in members] for v in order]
    index = {}
    adj: list[list[int]] = []
    for eid in members:
        u, v = g.endpoints(eid)
        for x in (u, v):
            if x not in index:
                index[x] = len(adj)
                adj.append([])
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    return adj


def _solution_ok(g: Graph, members: set[int], cfg: EnumConfig) -> bool:
    adj = _local_adjacency(g, members, cfg.mode)
    if cfg.connectivity == "connected" and not adjacency_connected(adj):
        return False
    if cfg.weighted:
        sub = induced_subgraph(g, members) if cfg.mode == "induced" else edge_subgraph(g, members)
        return girth_weighted(sub) >= cfg.k
    return girth_of_adjacency(adj) >= cfg.k


def candidate_set_naive(g: Graph, state: BaselineState, cfg: EnumConfig) -> set[int]:
    """Elements whose addition to the current solution yields another solution.

    Connectivity and girth are re-checked from scratch for every non-excluded
    element; in the non-connected variant only the girth condition applies.
    """
    total = g.n if cfg.mode == "induced" else g.m
    out: set[int] = set()
    for x in range(total):
        if x in state.solution or x in state.excluded:
            continue
        if _solution_ok(g, state.solution | {x}, cfg):
            out.add(x)
    return out


def search(
    root,
    order: Callable[[object], list[int]],
    advance: Callable[[object, int, object], object],
    exclude: Callable[[object, int], object],
    sink: SolutionSink | None,
    *,
    include_empty: bool = True,
    limit: int | None = None,
    prune: Callable[[object], bool] | None = None,
    on_state: Callable[[object], object] | None = None,
    stats=None,
) -> int:
    """Depth-first binary-partition search from the empty-solution state `root`.

    The root is passed to `on_state`, and the empty solution is emitted first
    when `include_empty` is set. Every state then branches on the elements
    `order(state)` lists: the child for element x is `advance(state, x,
    stats)`, built before `exclude(state, x)` drops x from the rest of the
    state's subtree. Each child is passed to `on_state`, then its solution is
    emitted; `prune(state)` returning True skips a state's subtree but keeps
    its solution. `on_state` sees every state, the empty root included; in
    the edge engine that root is a state of its own, with every edge an
    outer candidate. `stats`, when given, gets `iterations` (states built,
    the root included) and `max_depth` (the root has depth 1). Returns the
    number of solutions emitted, partial if `limit` or the sink stopped the
    run; a negative `limit` raises ValidationError.
    """
    emitter = _Emitter(sink, limit)
    if stats is not None:
        stats.iterations += 1
        stats.max_depth = max(stats.max_depth, 1)
    if on_state is not None:
        on_state(root)
    if include_empty and not emitter.emit(frozenset()):
        return emitter.count
    stack = []
    if prune is None or not prune(root):
        stack.append([root, order(root), 0])
    while stack:
        frame = stack[-1]
        state, todo, i = frame
        if i == len(todo):
            stack.pop()
            continue
        frame[2] += 1
        x = todo[i]
        child = advance(state, x, stats)
        exclude(state, x)
        if stats is not None:
            stats.iterations += 1
            depth = len(stack) + 1
            if depth > stats.max_depth:
                stats.max_depth = depth
        if on_state is not None:
            on_state(child)
        if not emitter.emit(frozenset(child.solution)):
            break
        if prune is None or not prune(child):
            todo = order(child)
            if todo:
                stack.append([child, todo, 0])
    return emitter.count


def enumerate_baseline(
    g: Graph,
    cfg: EnumConfig,
    sink: SolutionSink | None = None,
    *,
    prune: Callable[[BaselineState], bool] | None = None,
) -> int:
    """Enumerate every solution exactly once with from-scratch candidate checks.

    Candidates are processed in ascending id; each branch excludes the
    candidates already branched on at the same level, which is what prevents
    duplicates. The empty solution is emitted first when configured. Returns
    the number of solutions emitted (partial if the sink stopped the run).

    `prune` is consulted with a state (its solution and sorted candidates)
    before its subtree is expanded; returning True skips the subtree but keeps
    its root solution.
    """
    cfg.validate(g)

    def with_cands(state: BaselineState) -> BaselineState:
        state.cands = sorted(candidate_set_naive(g, state, cfg))
        return state

    def advance(state: BaselineState, x: int, stats) -> BaselineState:
        return with_cands(BaselineState(state.solution | {x}, set(state.excluded)))

    def exclude(state: BaselineState, x: int) -> None:
        state.excluded.add(x)

    return search(
        with_cands(BaselineState(set(), set())),
        attrgetter("cands"),
        advance,
        exclude,
        sink,
        include_empty=cfg.include_empty,
        limit=cfg.limit,
        prune=prune,
    )


def _brute_force_total(g: Graph, mode: str, max_exponent: int) -> int:
    """Element count brute force takes subsets of; past 2**max_exponent subsets it raises."""
    total = g.n if mode == "induced" else g.m
    if total > max_exponent:
        raise BudgetExceededError(f"brute force over 2**{total} subsets exceeds the 2**{max_exponent} budget")
    return total


def brute_force_enumerate(
    g: Graph,
    cfg: EnumConfig,
    *,
    max_exponent: int = 20,
) -> list[frozenset[int]]:
    """All solutions by filtering every subset; the correctness oracle for the engines.

    Refuses to run past 2**max_exponent subsets. Honors cfg.limit by stopping
    after that many solutions (in subset-mask order). Returns a canonically
    sorted list.
    """
    cfg.validate(g)
    out: list[frozenset[int]] = []
    emitter = _Emitter(lambda solution, ordinal: out.append(solution), cfg.limit)
    total = _brute_force_total(g, cfg.mode, max_exponent)
    for mask in range(1 << total):
        members = {i for i in range(total) if mask >> i & 1}
        if not members and not cfg.include_empty:
            continue
        if _solution_ok(g, members, cfg) and not emitter.emit(frozenset(members)):
            break
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
