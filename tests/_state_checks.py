"""From-scratch state validation shared by the fast-engine tests and acceptance.

observe runs an engine's transition through `search` and shows a test
every state the run builds, with the done marks it inherited. Each checker
compares one such state against the reference oracles: distance tables
entry-wise, candidate sets against the naive classification. The views of
a state that only tests read (its distance and second-distance lookups,
vertex status, the induced filter's survivors, an edge state's inner and
outer candidates, the edge selection rule, the solution's vertices,
attachment) live here too, so the engines carry none of them.
"""

from __future__ import annotations

import copy
from collections import deque

from girthscope import INFINITE, girth_unweighted, induced_subgraph
from girthscope.enum_core import BaselineState, EnumConfig, candidate_set_naive, search
from girthscope.induced_fast import InducedEnumState, _second_distance_via_row, _split_old_candidates
from _oracles import pair_distance, second_distance

IN_SOLUTION = "in-solution"
CANDIDATE = "candidate"
GIRTH_EXCLUDED = "girth-excluded"
DONE_EXCLUDED = "done-excluded"
UNREACHED = "unreached"


def observe(engine, g, k, look, sink=None, *, connectivity="connected", **options):
    """Run `engine`'s transition through `search`, calling look(state, marks) on every state it builds.

    `engine` is the module induced_fast or edges_fast; connectivity="any"
    runs edges_fast.advance_any. The root is shown first, before the empty
    solution is emitted; then each child `advance` builds, right after it is
    built and before its solution is emitted, in depth-first preorder. A
    leaf, for which `advance` returns None, is not shown. `marks` are the
    done marks the state inherited: none at the root, and for the child on
    its parent's branch[i] the parent's marks plus branch[:i]. `options`
    (include_empty, limit, prune, stats) go to `search`, whose count is
    returned.
    """
    step = engine.advance_any if connectivity == "any" else engine.advance
    root = engine.initial_state(g, k)
    path = [(root, frozenset())]  # per solution size: the state built last, and its marks

    def advance(state, i, solution, stats=None):
        child = step(state, i, solution, stats)
        if child is not None:
            parent, marks = path[len(state.solution)]
            assert parent is state, f"S={sorted(solution)} was built from a state that is not the last one built"
            marks = marks | frozenset(state.branch[:i])
            del path[len(solution) :]
            path.append((child, marks))
            look(child, marks)
        return child

    look(root, frozenset())
    return search(root, advance, sink, **options)


def must_be_a_fan(g, cfg, state, marks, naive):
    """Is `state` below the root with one naive candidate c, and S + {c} with none?

    Such a state's only child is a leaf, so it must be a fan (dist None,
    see enum_core.search); every other state must hold a table. `naive` is
    the state's naive candidates, leaving out `marks`; the child on c
    inherits the same marks, since c is the first candidate.
    """
    return bool(state.solution) and len(naive) == 1 and not candidate_set_naive(
        g, BaselineState(set(state.solution) | naive, set(marks)), cfg
    )


def searched(state):
    """The candidates `search` calls advance on below `state`: none below a leaf (None) or a fan."""
    return () if state is None or state.dist is None else state.branch


def induced_dist(state, x, y):
    """dist[x][y] of an induced state in scope, (S | cand) x cand; INFINITE elsewhere."""
    cand = state.dist
    if x not in cand:
        x, y = y, x  # a solution-candidate pair lives in the candidate's row
    if x not in cand or (y not in cand and y not in state.solution):
        return INFINITE
    return state.dist[x].get(y, INFINITE)


def induced_second(state, u, w):
    """Second distance of two candidates of an induced state, by the filter's first-hop rule; INFINITE elsewhere."""
    if u == w or u not in state.dist or w not in state.dist:
        return INFINITE
    return _second_distance_via_row(state.g, state.solution, u, w, state.dist[w])


def edge_dist(state, x, y):
    """dist[x][y] of an edge state, INFINITE across components; only a state whose child branches has a table."""
    row = state.dist.get(x)
    if row is None:
        return INFINITE
    return row.get(y, INFINITE)


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
    a view of the state that branches on v first. The root asks no filter,
    and a fan, whose one candidate leaves no other to ask, keeps none.
    """
    assert state.solution, "the root asks no filter"
    if state.dist is None:
        return set()
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


def check_induced_state(g, k, state, marks):
    """Distance and second-distance tables equal their oracles; cand equals the naive candidates.

    A state below the root has no table exactly when its only child is a
    leaf (must_be_a_fan); every other state's table is compared entry-wise.
    The naive candidates leave out `marks`, the done marks the state
    inherited, as observe shows them.
    """
    cfg = EnumConfig(k=k)
    naive = candidate_set_naive(g, BaselineState(set(state.solution), set(marks)), cfg)
    assert state.cand == naive, f"cand {sorted(state.cand)} != {sorted(naive)} at S={sorted(state.solution)}"
    if must_be_a_fan(g, cfg, state, marks, naive):
        assert state.dist is None, f"S={sorted(state.solution)}, whose one child is a leaf, holds a table"
        return
    assert state.dist is not None, f"S={sorted(state.solution)} holds no table, but its child branches"
    scope = state.solution | state.cand
    for x in scope:
        for y in state.cand:
            if x == y:
                continue
            expected = pair_distance(g, state.solution, x, y)
            assert induced_dist(state, x, y) == expected, (
                f"dist[{x}][{y}] = {induced_dist(state, x, y)} != {expected} at S={sorted(state.solution)}"
            )
    for u in state.cand:
        for w in state.cand:
            if u == w:
                continue
            expected = second_distance(g, state.solution, u, w)
            assert induced_second(state, u, w) == expected, (
                f"second[{u}][{w}] = {induced_second(state, u, w)} != {expected} at S={sorted(state.solution)}"
            )


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


def check_edge_state(g, k, state, marks, connectivity="connected"):
    """Distance rows equal a BFS within each component; candidates equal the naive ones.

    A state below the root has no table exactly when its only child is a
    leaf (must_be_a_fan); every other state has one row per solution
    vertex. A candidate is inner when both its endpoints lie in one
    component of the solution (in the connected variant: both in V(S)),
    outer otherwise; branch lists the inner ones first in the connected
    variant, and every candidate in ascending id in the other. The naive
    candidates leave out `marks`, as in check_induced_state.
    """
    cfg = EnumConfig(k=k, mode="edge", connectivity=connectivity)
    verts = solution_vertices(state)
    bfs = {x: solution_bfs_levels(g, state.solution, x) for x in verts}
    naive = candidate_set_naive(g, BaselineState(set(state.solution), set(marks)), cfg)
    if must_be_a_fan(g, cfg, state, marks, naive):
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
    writes to it. As in search, a fan is not advanced on: its children are
    leaves, emitted unbuilt.
    """
    fields = [f for f in type(state).__slots__ if f not in ("g", "k")]
    before = copy.deepcopy([getattr(state, f) for f in fields])
    for i, x in enumerate(searched(state)):
        child = advance(state, i, state.solution | {x}, None)
        for j, y in enumerate(searched(child)):
            advance(child, j, child.solution | {y}, None)
    after = [getattr(state, f) for f in fields]
    assert after == before, f"advance changed the parent at S={sorted(state.solution)}"
