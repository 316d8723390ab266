"""From-scratch state validation shared by the fast-engine tests and acceptance.

Each checker compares one live enumerator state against the reference
oracles: distance tables entry-wise, candidate sets against the naive
classification. The views of a state that only tests read (vertex status,
the induced filter's survivors, the edge selection rule, attachment, the
done marks a state inherited) live here too, so the engines carry none of
them.
"""

from __future__ import annotations

import copy
from collections import deque

from girthscope import girth_unweighted, induced_subgraph, pair_distance, second_distance
from girthscope.enum_core import BaselineState, EnumConfig, candidate_set_naive
from girthscope.induced_fast import _split_old_candidates

IN_SOLUTION = "in-solution"
CANDIDATE = "candidate"
GIRTH_EXCLUDED = "girth-excluded"
DONE_EXCLUDED = "done-excluded"
UNREACHED = "unreached"


class MarkRecorder:
    """Done marks each state inherited, rebuilt from the order in which `search` shows the states.

    `search` passes every state to on_state in depth-first preorder, each
    child right after its parent excluded the element the child added. So a
    state's marks are its parent's marks plus the elements of the siblings
    shown before it, and the empty root starts a run with none. Only the
    solutions are read, never the engine's candidate sets or marks. Call it
    on every state of the run, in on_state order.
    """

    def __init__(self):
        self._path = []  # per depth: (solution, inherited marks, elements of the children shown so far)

    def __call__(self, state) -> frozenset[int]:
        solution = frozenset(state.solution)
        if not solution:
            self._path = [(solution, frozenset(), set())]
            return frozenset()
        while self._path and len(self._path[-1][0]) >= len(solution):
            self._path.pop()
        assert self._path and len(self._path[-1][0]) + 1 == len(solution) and self._path[-1][0] < solution, (
            f"S={sorted(solution)} was not shown right below its parent"
        )
        parent, parent_marks, shown = self._path[-1]
        marks = parent_marks | shown
        shown.update(solution - parent)
        self._path.append((solution, marks, set()))
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
    """Old candidates of an induced state still valid for S + {v}."""
    return _split_old_candidates(state, v)


def select_edge(state):
    """Lowest-id inner candidate of an edge state, else its lowest-id outer one."""
    if state.inner_cand:
        return min(state.inner_cand)
    if state.outer_cand:
        return min(state.outer_cand)
    raise ValueError("select_edge on empty candidate sets")


def attachment(state):
    """Solution vertices of an edge state incident to at least one candidate edge."""
    out = set()
    for eid in state.inner_cand:
        out.update(state.g.endpoints(eid))
    for eid in state.outer_cand:
        out.update(x for x in state.g.endpoints(eid) if x in state.sol_verts)
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

    A candidate is inner when both its endpoints lie in one component of the
    solution (in the connected variant: both in V(S)), outer otherwise. The
    naive candidates leave out `marks`, as in check_induced_state.
    """
    if marks is None:
        marks = _recorded_marks(state)
    bfs = {x: solution_bfs_levels(g, state.solution, x) for x in state.sol_verts}
    assert set(state.dist) == state.sol_verts
    for x, levels in bfs.items():
        assert state.dist[x] == levels, f"row {x} = {state.dist[x]} != BFS {levels} at S={sorted(state.solution)}"
    naive = candidate_set_naive(
        g,
        BaselineState(set(state.solution), set(marks)),
        EnumConfig(k=k, mode="edge", connectivity=connectivity),
    )
    inner = set()
    for e in naive:
        x, y = g.endpoints(e)
        if y in bfs.get(x, ()):
            inner.add(e)
    assert state.inner_cand == inner, (
        f"inner {sorted(state.inner_cand)} != {sorted(inner)} at S={sorted(state.solution)}"
    )
    assert state.outer_cand == naive - inner, (
        f"outer {sorted(state.outer_cand)} != {sorted(naive - inner)} at S={sorted(state.solution)}"
    )
    if connectivity == "connected":
        assert len(state.inner_cand) <= len(state.sol_verts)
        assert attachment(state) <= state.sol_verts


def check_advance_keeps_parent(state, advance, exclude, order):
    """advance on every candidate of `state` leaves it equal to a deep copy taken before.

    Each child is in turn advanced and excluded on each of its own
    candidates, so a row or set that a child shares with its parent shows
    here if a later step writes to it.
    """
    fields = [f for f in type(state).__slots__ if f not in ("g", "k")]
    before = copy.deepcopy([getattr(state, f) for f in fields])
    for x in order(state):
        child = advance(state, x)
        for y in order(child):
            advance(child, y)
            exclude(child, y)
    after = [getattr(state, f) for f in fields]
    assert after == before, f"advance changed the parent at S={sorted(state.solution)}"
