"""Depth-first search shared by the engines, the baseline enumerator, the brute-force reference.

Every engine emits each qualifying subgraph exactly once: each iteration
outputs its solution, then branches on its candidate elements in order, and
the child on the i-th element draws only on the elements after it, so the
already-branched ones are excluded from its subtree by position. `search`
runs that loop; the engines differ only in how a child state is built.
Neither a leaf nor a child of a fan, a state whose children are all
leaves, is built.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import BudgetExceededError, ValidationError
from .girth import girth_of_adjacency, girth_weighted
from .graph import Graph, INFINITE, Length, adjacency_connected, edge_subgraph, induced_subgraph

#: Streaming consumer: called as sink(solution, ordinal) with ordinals counting
#: up from 0; returning False stops the run cleanly with a partial count.
SolutionSink = Callable[[frozenset[int], int], object]

MODES = ("induced", "edge")
CONNECTIVITIES = ("connected", "any")


class EnumConfig:
    """What to enumerate: girth threshold, element kind, and problem variant.

    connectivity="any" drops the connectivity requirement, leaving girth as
    the only condition. Weighting is the Graph's: on a weighted graph the
    girth is the weighted one (cycle weight = sum of edge weights).
    """

    def __init__(
        self,
        k: Length,
        mode: str = "induced",
        connectivity: str = "connected",
        include_empty: bool = True,
        limit: int | None = None,
    ):
        self.k = k
        self.mode = mode
        self.connectivity = connectivity
        self.include_empty = include_empty
        self.limit = limit

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.connectivity not in CONNECTIVITIES:
            raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
        validate_threshold(self.k)


def validate_threshold(k: Length) -> None:
    if k != INFINITE and not (isinstance(k, int) and k >= 3):
        raise ValidationError("girth threshold must be an integer >= 3, or infinite")


def validate_fast_input(g: Graph, k: Length) -> None:
    """Reject what the fast engines cannot run: a bad threshold or a weighted graph."""
    validate_threshold(k)
    if g.weighted:
        raise ValidationError("fast enumeration is unweighted; use the baseline engine")


class BaselineState:
    """One iteration of the baseline engine: frozen solution, done-set mask, sorted candidates."""

    dist = ()  # no table, and never a fan: search builds every child it branches on

    def __init__(self, solution: frozenset[int], excluded: set[int]):
        self.solution = solution
        self.excluded = excluded
        self.branch: list[int] = []


class Collector:
    """Sink that stores every solution in order."""

    def __init__(self):
        self.solutions: list[frozenset[int]] = []

    def __call__(self, solution: frozenset[int], ordinal: int):
        self.solutions.append(solution)


class _Emitter:
    __slots__ = ("sink", "limit", "count")

    def __init__(self, sink: SolutionSink | None, limit: int | None):
        if limit is not None and limit < 0:
            raise ValidationError("limit must be >= 0")
        self.sink = sink
        self.limit = limit
        self.count = 0

    def emit(self, solution: frozenset[int]) -> bool:
        if self.limit is not None and self.count >= self.limit:
            return False
        keep_going = self.sink is None or self.sink(solution, self.count) is not False
        self.count += 1
        return keep_going and (self.limit is None or self.count < self.limit)


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
    if g.weighted:
        sub = induced_subgraph(g, members) if cfg.mode == "induced" else edge_subgraph(g, members)
        return girth_weighted(sub) >= cfg.k
    return girth_of_adjacency(adj, cfg.k) >= cfg.k


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


def _emit_leaves(emit, stats, parent: frozenset[int], elements) -> bool:
    """Emit parent | {y} for each y, in order, each as an iteration; False once the run stops."""
    for y in elements:
        if stats is not None:
            stats.iterations += 1
        if not emit(parent | {y}):
            return False
    return True


def search(
    root,
    advance: Callable[[object, int, frozenset[int], object], object],
    sink: SolutionSink | None,
    *,
    include_empty: bool = True,
    limit: int | None = None,
    prune: Callable[[object, int], bool] | None = None,
    stats=None,
) -> int:
    """Depth-first binary-partition search from the empty-solution state `root`.

    Every state lists the elements it branches on, in order, as `branch`.
    Its child on branch[i] has the solution `state.solution | {branch[i]}`,
    which search forms, and it is built by `advance(state, i, solution,
    stats)` from the elements after i alone: the ones before i are excluded
    from its subtree by their position, so no state is changed once built.
    `advance` returns None for a child with no candidate; search then
    emits the child's solution without any state. The empty solution is
    emitted first when `include_empty` is set; each child's solution is
    emitted right after `advance` returns. To observe a run, a caller wraps
    `advance`: the built states are the root it passes and every child
    `advance` returns.

    A built child whose `dist` is None is a fan: every child it has is a
    leaf. Once its solution is emitted and the prune keeps it, search emits
    `child.solution | {y}` for each y in its branch, in order, with no
    push, `advance` or further `prune` call, so the engine counts their
    work when it builds the fan. Any other `dist`, the baseline's included,
    marks a state that is no fan.

    `prune(state, left)` is asked about a state when it is built, with
    `left` = len(state.branch); returning True skips its subtree but keeps
    its solution. It is asked again before each later child i, with `left` =
    len(state.branch) - i, the candidates the state has left. Once it says
    True there, the state's remaining children are emitted as
    `state.solution | {x}`, in order, without an `advance` or `prune`
    call. This is sound for a monotone prune, one that, when it cuts a
    state, would also cut every child built from the state's remaining
    elements; such a child's own subtree would be skipped, so its solution
    is all it emits.

    `stats`, when given, gets `iterations` (states emitted, built or not,
    with the root) and `max_depth` (the root has depth 1, and a fan's
    children lie one level below the fan); the engines' own counters see
    only the children `advance` is called for and the fans it builds.
    Returns the number of solutions emitted, partial if `limit` or the sink
    stopped the run; a negative `limit` raises ValidationError.
    """
    emitter = _Emitter(sink, limit)
    emit = emitter.emit
    if stats is not None:
        stats.iterations += 1
        stats.max_depth = max(stats.max_depth, 1)
    if include_empty and not emit(frozenset()):
        return emitter.count
    # each frame is (state, iterator over the positions and elements it has still to branch on)
    stack = []
    if root.branch and (prune is None or not prune(root, len(root.branch))):
        stack.append((root, enumerate(root.branch)))
    # pushed: the top frame has built no child yet, so its prune answer is current
    pushed = True
    while stack:
        state, it = stack[-1]
        parent = state.solution
        for i, x in it:
            if prune is not None:
                if pushed:
                    pushed = False
                elif prune(state, len(state.branch) - i):
                    # each child left would be cut, so its solution is all it
                    # emits; a built sibling already reached their depth
                    stack.pop()
                    if not _emit_leaves(emit, stats, parent, state.branch[i:]):
                        return emitter.count
                    break
            solution = parent | {x}
            child = advance(state, i, solution, stats)
            if stats is not None:
                stats.iterations += 1
                depth = len(stack) + 1
                if depth > stats.max_depth:
                    stats.max_depth = depth
            if not emit(solution):
                return emitter.count
            if child is None or prune is not None and prune(child, len(child.branch)):
                continue
            if child.dist is not None:
                stack.append((child, enumerate(child.branch)))
                pushed = True
                break
            # a fan: its children are leaves, one level below it
            if stats is not None and len(stack) + 2 > stats.max_depth:
                stats.max_depth = len(stack) + 2
            if not _emit_leaves(emit, stats, solution, child.branch):
                return emitter.count
        else:
            stack.pop()
    return emitter.count


def enumerate_baseline(
    g: Graph,
    cfg: EnumConfig,
    sink: SolutionSink | None = None,
    *,
    prune: Callable[[BaselineState, int], bool] | None = None,
) -> int:
    """Enumerate every solution exactly once with from-scratch candidate checks.

    Candidates are processed in ascending id; each branch excludes the
    candidates already branched on at the same level, which is what prevents
    duplicates. The empty solution is emitted first when configured. Returns
    the number of solutions emitted (partial if the sink stopped the run).

    `prune(state, left)` is consulted with a state that has candidates (its
    solution and sorted `branch`) before its subtree is expanded, `left`
    being the candidates it has not branched on; returning True skips the
    subtree but keeps its root solution. It is asked again before each
    later child and must be monotone, as `search` says: once it cuts, the
    remaining children are emitted without being built. The baseline keeps
    no stats; the return value counts every emitted solution.
    """
    cfg.validate()

    def build(solution: frozenset[int], excluded: set[int]) -> BaselineState:
        state = BaselineState(solution, excluded)
        state.branch = sorted(candidate_set_naive(g, state, cfg))
        return state

    def advance(state: BaselineState, i: int, solution: frozenset[int], stats) -> BaselineState | None:
        child = build(solution, state.excluded.union(state.branch[:i]))
        return child if child.branch else None

    return search(
        build(frozenset(), set()),
        advance,
        sink,
        include_empty=cfg.include_empty,
        limit=cfg.limit,
        prune=prune,
    )


def brute_force_total(n: int, m: int, mode: str, max_exponent: int) -> int:
    """Element count brute force takes subsets of, from n and m alone; past 2**max_exponent subsets it raises."""
    total = n if mode == "induced" else m
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
    cfg.validate()
    out: list[frozenset[int]] = []
    emitter = _Emitter(lambda solution, ordinal: out.append(solution), cfg.limit)
    total = brute_force_total(g.n, g.m, cfg.mode, max_exponent)
    for mask in range(1 << total):
        members = {i for i in range(total) if mask >> i & 1}
        if not members and not cfg.include_empty:
            continue
        if _solution_ok(g, members, cfg) and not emitter.emit(frozenset(members)):
            break
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
