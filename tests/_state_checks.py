"""From-scratch state validation shared by the fast-engine tests and acceptance.

Each checker compares one live enumerator state against the reference
oracles: distance tables entry-wise, candidate sets against the naive
classification. The views of a state that only tests read (vertex status,
the induced filter's survivors, an edge state's inner and outer
candidates, the edge selection rule, the solution's vertices, attachment,
the done marks a state inherited) live here too, so the engines carry none
of them.
"""

from __future__ import annotations

import copy
from collections import deque

from girthscope import girth_unweighted, induced_subgraph
from girthscope.enum_core import BaselineState, EnumConfig, candidate_set_naive
from girthscope.induced_fast import InducedEnumState, _split_old_candidates
from _oracles import pair_distance, second_distance

IN_SOLUTION = "in-solution"
CANDIDATE = "candidate"
GIRTH_EXCLUDED = "girth-excluded"
DONE_EXCLUDED = "done-excluded"
UNREACHED = "unreached"


class MarkRecorder:
    """Done marks each state inherited, rebuilt from the states `search` shows, in order.

    `search` passes every built state to on_state in depth-first preorder,
    each right after its parent. A child built on its parent's branch[i] is
    excluded from the elements at the positions before i, so its marks are
    its parent's marks plus those elements, and the empty root starts a run
    with none. Only the solutions and each parent's branch list are read,
    never a child's candidates. Call it on every state of the run, in
    on_state order.
    """

    def __init__(self):
        self._path = []  # per depth: (solution, inherited marks, branch list)

    def __call__(self, state) -> frozenset[int]:
        solution = frozenset(state.solution)
        if not solution:
            self._path = [(solution, frozenset(), list(state.branch))]
            return frozenset()
        while self._path and len(self._path[-1][0]) >= len(solution):
            self._path.pop()
        assert self._path and len(self._path[-1][0]) + 1 == len(solution) and self._path[-1][0] < solution, (
            f"S={sorted(solution)} was not shown right below its parent"
        )
        parent, parent_marks, branch = self._path[-1]
        (x,) = solution - parent
        assert x in branch, f"S={sorted(solution)} adds {x}, which its parent does not branch on"
        marks = parent_marks | frozenset(branch[: branch.index(x)])
        self._path.append((solution, marks, list(state.branch)))
        return marks


# marks for the checkers' default: they run as on_state of one search at a time
_recorded_marks = MarkRecorder()


def status(state, v, marks=frozenset()):
    """Where vertex v stands in an induced state that inherited the done marks `marks`.

    Outside S and cand, a marked vertex is done-excluded; an unmarked one
    with no neighbour in S is unreached, and any other one must close a
    cycle shorter than k, which is checked from scratch.
    """
    if v in state.solution:
        return IN_SOLUTION
    if v in state.cand:
        return CANDIDATE
    if v in marks:
        return DONE_EXCLUDED
    if state.g.neighbor_set(v).isdisjoint(state.solution):
        return UNREACHED
    girth = girth_unweighted(induced_subgraph(state.g, state.solution | {v}))
    assert girth < state.k, f"{v} is attached and unmarked and keeps girth {girth}, but is no candidate"
    return GIRTH_EXCLUDED


def filter_old_candidates(state, v):
    """Candidates of an induced state below the root that the filter keeps for S + {v}, every other one asked.

    The filter scans the candidates after v in branch order, so it is run on
    a view of the state that branches on v first. The root asks no filter.
    """
    assert state.solution, "the root asks no filter"
    branch = [v] + [u for u in state.branch if u != v]
    view = InducedEnumState(state.g, state.k, state.solution, branch, state.first, state.dist)
    return set(_split_old_candidates(view, 0))


def inner_candidates(state):
    """Inner candidates of an edge state: both endpoints in one component of the solution.

    A state without a table has one candidate, and n_inner says its class.
    """
    d = state.dist
    if d is None:
        return set(state.branch[: state.n_inner])
    edges = state.g.edges
    return {f for f in state.branch if edges[f][1] in d.get(edges[f][0], ())}


def outer_candidates(state):
    """Outer candidates of an edge state: every candidate that is not inner."""
    return set(state.branch) - inner_candidates(state)


def select_edge(state):
    """Lowest-id inner candidate of an edge state, else its lowest-id outer one."""
    if inner_candidates(state):
        return min(inner_candidates(state))
    if outer_candidates(state):
        return min(outer_candidates(state))
    raise ValueError("select_edge on empty candidate sets")


def child_on(state, x, advance, stats=None):
    """The child `advance` builds on the candidate x, which excludes the candidates before x in branch order."""
    return advance(state, state.branch.index(x), state.solution | {x}, stats)


def solution_vertices(state):
    """V(S) of an edge state: the endpoints of its solution's edges."""
    return {x for eid in state.solution for x in state.g.endpoints(eid)}


def attachment(state):
    """Solution vertices of an edge state incident to at least one candidate edge."""
    out = set()
    verts = solution_vertices(state)
    for eid in inner_candidates(state):
        out.update(state.g.endpoints(eid))
    for eid in outer_candidates(state):
        out.update(x for x in state.g.endpoints(eid) if x in verts)
    return out


def check_induced_state(g, k, state, marks=None):
    """Distance and second-distance tables equal their oracles; cand equals the naive candidates.

    The naive candidates leave out `marks`, the done marks the state
    inherited. By default they are recorded by MarkRecorder, so the checker
    must then see every state of the run, as on_state does.
    """
    if marks is None:
        marks = _recorded_marks(state)
    scope = state.solution | state.cand
    for x in scope:
        for y in state.cand:
            if x == y:
                continue
            expected = pair_distance(g, state.solution, x, y)
            assert state.get_dist(x, y) == expected, (
                f"dist[{x}][{y}] = {state.get_dist(x, y)} != {expected} at S={sorted(state.solution)}"
            )
    for u in state.cand:
        for w in state.cand:
            if u == w:
                continue
            expected = second_distance(g, state.solution, u, w)
            assert state.get_second(u, w) == expected, (
                f"second[{u}][{w}] = {state.get_second(u, w)} != {expected} at S={sorted(state.solution)}"
            )
    naive = candidate_set_naive(
        g, BaselineState(set(state.solution), set(marks)), EnumConfig(k=k)
    )
    assert state.cand == naive, f"cand {sorted(state.cand)} != {sorted(naive)} at S={sorted(state.solution)}"


def solution_bfs_levels(g, edge_ids, source):
    adj: dict[int, list[int]] = {}
    for eid in edge_ids:
        u, v = g.endpoints(eid)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    levels = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in levels:
                levels[y] = levels[x] + 1
                queue.append(y)
    return levels


def check_edge_state(g, k, state, connectivity="connected", marks=None):
    """Distance rows equal a BFS within each component; candidates equal the naive ones.

    A state below the root has no table exactly when its only child is a
    leaf (the naive candidates of S + {c} for its one candidate c are
    none); every other state has one row per solution vertex. A candidate is
    inner when both its endpoints lie in one component of the solution (in
    the connected variant: both in V(S)), outer otherwise; branch lists the
    inner ones first in the connected variant, and every candidate in
    ascending id in the other. The naive candidates leave out `marks`, as in
    check_induced_state.
    """
    if marks is None:
        marks = _recorded_marks(state)
    cfg = EnumConfig(k=k, mode="edge", connectivity=connectivity)
    verts = solution_vertices(state)
    bfs = {x: solution_bfs_levels(g, state.solution, x) for x in verts}
    naive = candidate_set_naive(g, BaselineState(set(state.solution), set(marks)), cfg)
    leaf_child = len(naive) == 1 and not candidate_set_naive(
        g, BaselineState(set(state.solution) | naive, set(marks)), cfg
    )
    if state.solution and leaf_child:
        assert state.dist is None, f"S={sorted(state.solution)}, whose one child is a leaf, holds a table"
    else:
        assert state.dist is not None, f"S={sorted(state.solution)} holds no table, but its child branches"
        assert set(state.dist) == verts
        for x, levels in bfs.items():
            assert state.dist[x] == levels, f"row {x} = {state.dist[x]} != BFS {levels} at S={sorted(state.solution)}"
    inner = set()
    for e in naive:
        x, y = g.endpoints(e)
        if y in bfs.get(x, ()):
            inner.add(e)
    assert inner_candidates(state) == inner, (
        f"inner {sorted(inner_candidates(state))} != {sorted(inner)} at S={sorted(state.solution)}"
    )
    assert outer_candidates(state) == naive - inner, (
        f"outer {sorted(outer_candidates(state))} != {sorted(naive - inner)} at S={sorted(state.solution)}"
    )
    assert state.n_inner == len(inner)
    if connectivity == "connected":
        assert state.branch == sorted(inner) + sorted(naive - inner)
        assert len(inner_candidates(state)) <= len(verts)
        assert attachment(state) <= verts
    else:
        assert state.branch == sorted(naive)


def check_advance_keeps_parent(state, advance):
    """advance on every candidate of `state` leaves it equal to a deep copy taken before.

    Each child is in turn advanced on each of its own candidates, so a row
    or list that a child shares with its parent shows here if a later step
    writes to it.
    """
    fields = [f for f in type(state).__slots__ if f not in ("g", "k")]
    before = copy.deepcopy([getattr(state, f) for f in fields])
    for i, x in enumerate(state.branch):
        child = advance(state, i, state.solution | {x}, None)
        for j, y in enumerate(child.branch if child is not None else ()):
            advance(child, j, child.solution | {y}, None)
    after = [getattr(state, f) for f in fields]
    assert after == before, f"advance changed the parent at S={sorted(state.solution)}"
