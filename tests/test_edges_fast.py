"""Fast edge-subgraph enumerator: selection rule, O(1) girth tests, table updates."""

from __future__ import annotations

import random

import pytest

from girthscope import (
    Collector,
    EnumConfig,
    Graph,
    INFINITE,
    ValidationError,
    brute_force_enumerate,
    complete_graph,
    cycle_graph,
    enumerate_baseline,
    enumerate_edges_fast,
    path_graph,
    petersen_graph,
)
from girthscope import edges_fast
from girthscope.edges_fast import (
    EdgeEnumState,
    EdgeRunStats,
    advance,
    advance_any,
    initial_state,
    pair_girth_ok,
    update_dist_s,
)
from girthscope.enum_core import BaselineState, candidate_set_naive, search
from girthscope.verify import random_corpus
from _state_checks import (
    check_advance_keeps_parent,
    check_edge_state,
    child_on,
    edge_dist,
    inner_candidates,
    observe,
    outer_candidates,
    select_edge,
    solution_bfs_levels,
    solution_vertices,
)


def seed_state(g, k, eid):
    """The single-edge state {eid}: the empty root advanced on eid, so the edges below eid are its root marks."""
    return child_on(initial_state(g, k), eid, advance)


def drive(g, k, edge_ids):
    """Seed on the first edge id, then advance through the rest; each step excludes the candidates before it."""
    st = seed_state(g, k, edge_ids[0])
    for e in edge_ids[1:]:
        st = child_on(st, e, advance)
    return st


def test_seed_state_bootstrap():
    k3 = complete_graph(3)  # edge ids: (0,1)=0, (0,2)=1, (1,2)=2
    st = seed_state(k3, 4, 0)
    assert st.solution == {0} and solution_vertices(st) == {0, 1}
    assert inner_candidates(st) == set() and outer_candidates(st) == {1, 2}
    assert edge_dist(st, 0, 1) == 1
    st2 = seed_state(k3, 4, 1)  # edge 0 is marked
    assert outer_candidates(st2) == {2}


def test_select_edge_rule():
    k3 = complete_graph(3)
    st = seed_state(k3, 3, 0)
    assert select_edge(st) == 1 == st.branch[0]  # lowest-id outer: the edge (0,2)
    st = child_on(st, 1, advance)
    assert inner_candidates(st) == {2} and select_edge(st) == 2
    with pytest.raises(ValueError):
        select_edge(EdgeEnumState(k3, 3, frozenset({0, 1, 2}), [], 0, 0, None))
    # every state branches on the selected edge first: inner candidates
    # before outer ones, each in ascending id
    states = 0

    def check(st, marks):
        nonlocal states
        states += 1
        assert st.branch[0] == select_edge(st)
        assert st.branch == sorted(inner_candidates(st)) + sorted(outer_candidates(st))

    for g, k in [(complete_graph(5), 3), (complete_graph(5), 4), (petersen_graph(), 5)]:
        observe(edges_fast, g, k, check, limit=5000)
    assert states


def candidates_after(state, e):
    """(inner, outer) candidate sets of the child S + {e}; a leaf child is not built and has none."""
    child = child_on(state, e, advance)
    if child is None:
        return set(), set()
    return inner_candidates(child), outer_candidates(child)


def test_pair_girth_ok_examples():
    # an outer e is priced by advance: the back edges at its new vertex
    k3 = complete_graph(3)
    st = seed_state(k3, 4, 0)  # S={e01}; adding e02 makes e12 close a triangle
    inner, outer = candidates_after(st, 1)
    assert 2 not in inner and 2 not in outer  # cycle length 3 < 4
    st3 = seed_state(k3, 3, 0)
    inner, outer = candidates_after(st3, 1)
    assert 2 in inner  # 3 >= 3

    c4 = cycle_graph(4)  # edge ids: (0,1)=0, (1,2)=1, (2,3)=2, (0,3)=3
    st = drive(c4, 4, [0, 1])  # S={e01,e12}; adding e23 turns e30 inner
    inner, outer = candidates_after(st, 2)
    assert 3 in inner  # cycle length 4 >= 4


def test_pair_girth_ok_inner_choice():
    # diamond: 4-cycle plus chord; with the path 0-1-2-3 in the solution the
    # chord is an inner candidate whose shortest closed cycle has length 3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    st = drive(g, 3, [0, 1, 2])
    assert inner_candidates(st) == {3, 4}
    assert pair_girth_ok(st, 3, 4)  # adding e03: chord cycle 1-2-3 stays length 3
    st4 = drive(g, 4, [0, 1, 2])
    assert inner_candidates(st4) == {3}  # the chord died as soon as 0..3 all joined


def test_update_dist_s_examples():
    k4 = complete_graph(4)
    st = drive(k4, 3, [0, 1])  # S = {e01, e02}
    assert inner_candidates(st) == {3} and edge_dist(st, 1, 2) == 2
    newdist = update_dist_s(st, 3)  # add the inner edge (1,2)
    assert newdist[1][2] == 1

    p4 = path_graph(4)
    st = seed_state(p4, 4, 0)
    newdist = update_dist_s(st, 1)  # outer edge (1,2)
    assert newdist[0][2] == 2 and newdist[2][2] == 0


def test_update_dist_s_monotone_on_inner():
    steps = 0

    def check(st, marks):
        nonlocal steps
        if st.dist is None:
            return
        verts = solution_vertices(st)
        for e in sorted(inner_candidates(st)):
            nd = update_dist_s(st, e)
            steps += 1
            for x in verts:
                for y in verts:
                    assert nd[x][y] <= edge_dist(st, x, y)

    observe(edges_fast, complete_graph(5), 3, check)
    assert steps


def test_advance_candidate_examples():
    k3 = complete_graph(3)
    st4 = seed_state(k3, 4, 0)
    inner, outer = candidates_after(st4, 1)  # outer edge (0,2) joins vertex 2
    assert inner == set() and outer == set()  # e12 dies: triangle too short
    st3 = seed_state(k3, 3, 0)
    inner, outer = candidates_after(st3, 1)
    assert inner == {2} and outer == set()

    p3 = path_graph(3)
    inner, outer = candidates_after(seed_state(p3, 4, 0), 1)
    assert inner == set() and outer == set()

    c4 = cycle_graph(4)
    st = drive(c4, 4, [0, 1, 2])
    assert inner_candidates(st) == {3} and outer_candidates(st) == set()


def test_enumerate_counts():
    k3 = complete_graph(3)
    assert enumerate_edges_fast(k3, 3) == 8
    assert enumerate_edges_fast(k3, 4) == 7
    assert enumerate_edges_fast(cycle_graph(4), 4) == 14
    assert enumerate_edges_fast(cycle_graph(4), 5) == 13
    assert enumerate_edges_fast(Graph(0, []), 3) == 1
    assert enumerate_edges_fast(path_graph(2), 3) == 2


def test_matches_oracles_on_corpus():
    corpus = random_corpus(25, 6, seed=707, max_m=7)
    for g in corpus:
        for k in (3, 4, 5, INFINITE):
            fast, base = Collector(), Collector()
            enumerate_edges_fast(g, k, fast)
            cfg = EnumConfig(k=k, mode="edge")
            enumerate_baseline(g, cfg, base)
            brute = brute_force_enumerate(g, cfg)
            assert set(fast.solutions) == set(base.solutions) == set(brute)


def test_k5_full_equivalence():
    g = complete_graph(5)
    for k in (4, 5):
        fast, base = Collector(), Collector()
        enumerate_edges_fast(g, k, fast)
        enumerate_baseline(g, EnumConfig(k=k, mode="edge"), base)
        brute = brute_force_enumerate(g, EnumConfig(k=k, mode="edge"))
        assert set(fast.solutions) == set(base.solutions) == set(brute)


def test_truncated_prefix_counts_agree():
    # differing branch orders make prefix sets incomparable, but identical
    # solution limits must truncate both engines at the same count
    g = complete_graph(6)
    limit = 400
    fast = enumerate_edges_fast(g, 4, limit=limit)
    base = enumerate_baseline(g, EnumConfig(k=4, mode="edge", limit=limit))
    assert fast == base == limit


def test_state_fidelity_on_random_corpus():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.55]
        g = Graph(n, edges)
        if g.m > 8:
            continue
        for k in (3, 4, 5, INFINITE):
            observe(edges_fast, g, k, lambda st, marks: check_edge_state(g, k, st, marks))


@pytest.mark.parametrize("g,k", [
    (complete_graph(4), 3),
    (complete_graph(4), 4),
    (cycle_graph(5), 4),
    (petersen_graph(), 5),
    (Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)]), 4),
])
def test_transition_invariants(g, k):
    checked = 0

    def checking_advance(state, i, solution, stats=None):
        nonlocal checked
        nxt = advance(state, i, solution, stats)
        if not state.solution:  # a root child starts from no vertices: the rules below do not apply
            return nxt
        checked += 1
        # the child may draw on the candidates from position i on: e and the rest
        left_inner = set(state.branch[i : state.n_inner])
        left_outer = set(state.branch[max(i, state.n_inner) :])
        verts = solution_vertices(state)
        next_verts = {x for f in solution for x in g.endpoints(f)}
        next_inner, next_outer = (inner_candidates(nxt), outer_candidates(nxt)) if nxt is not None else (set(), set())
        # inner pick: outer candidates untouched, inner set strictly shrinks
        if i < state.n_inner:
            assert next_outer == left_outer
            assert next_inner < left_inner
            assert next_verts == verts
        else:
            assert len(next_verts) == len(verts) + 1
        # inner candidates never outnumber the solution's vertices
        assert len(next_inner) <= len(next_verts)
        # removed outer candidates all touch the new solution's vertex set
        removed = left_outer - next_outer
        assert len(removed) <= len(next_verts)
        added = next_outer - left_outer
        if added:
            (new_vertex,) = next_verts - verts
            assert len(added) <= g.degree(new_vertex)
        return nxt

    search(initial_state(g, k), checking_advance, None)
    assert checked


def test_deterministic_output():
    g = petersen_graph()
    a, b = Collector(), Collector()
    enumerate_edges_fast(g, 5, a, limit=500)
    enumerate_edges_fast(g, 5, b, limit=500)
    assert a.solutions == b.solutions


def test_stats_and_stop():
    g = complete_graph(5)
    stats = EdgeRunStats()
    count = enumerate_edges_fast(g, 4, stats=stats)
    assert stats.iterations == count
    assert stats.inner_picks > 0 and stats.outer_picks > 0

    def stopper(sol, ordinal):
        return False if ordinal == 3 else None

    assert enumerate_edges_fast(g, 4, stopper) == 4
    assert enumerate_edges_fast(g, 4, include_empty=False) == count - 1


def test_pair_checks_count_the_girth_tests_made():
    # K3 at k=3, edge ids (0,1)=0, (0,2)=1, (1,2)=2: root steps test nothing,
    # and of the other steps only {0} + 1 meets an unmarked back edge (2, at
    # the new vertex 2); at {0} + 2 the back edge 1 is already marked. The
    # non-connected run makes its one test at the same step, a join.
    for connectivity in ("connected", "any"):
        stats = EdgeRunStats()
        assert enumerate_edges_fast(complete_graph(3), 3, connectivity=connectivity, stats=stats) == 8
        assert stats.pair_checks == 1

    # K4, edge ids (0,1)=0, (0,2)=1, (0,3)=2, (1,2)=3, (1,3)=4, (2,3)=5
    k4 = complete_graph(4)
    stats = EdgeRunStats()
    star = drive(k4, 3, [0, 1, 2])  # the edge 3 came before 2, so only 4 and 5 are left
    assert star.branch == [4, 5]
    child_on(star, 4, advance, stats)  # inner: pair_girth_ok on 5
    assert stats.pair_checks == 1
    child_on(drive(k4, 3, [0]), 1, advance, stats)  # outer to vertex 2: the back edge 3
    assert stats.pair_checks == 2
    # K4 numbered so that the edges 0 = (0,1) and 1 = (2,3) come first
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    two_edges = child_on(child_on(initial_state(g, 3), 0, advance_any), 1, advance_any)
    child_on(two_edges, 2, advance_any, stats)  # joins {0, 1} and {2, 3}: the edges 3, 4 and 5 between them
    assert stats.pair_checks == 5


def test_rejects_weighted_and_bad_k():
    g = Graph(2, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        enumerate_edges_fast(g, 4)
    with pytest.raises(ValidationError):
        enumerate_edges_fast(path_graph(2), 1)


def test_observer_sees_the_empty_root_first():
    # the root is a state of its own: no vertices, every edge an outer
    # candidate; the observer then sees the built states only, each of which
    # has a candidate, while every solution is emitted
    g = petersen_graph()
    seen = []
    emitted = Collector()

    def look(state, marks):
        seen.append((sorted(state.solution), set(inner_candidates(state)), set(outer_candidates(state))))

    assert observe(edges_fast, g, 5, look, emitted, limit=30) == 30
    assert seen[0] == ([], set(), set(range(g.m)))
    assert [solution for solution, _, _ in seen[1:4]] == [[0], [0, 1], [0, 1, 2]]
    assert all(solution and (inner or outer) for solution, inner, outer in seen[1:])
    built = [frozenset(solution) for solution, _, _ in seen]
    assert len(built) < len(emitted.solutions)
    assert set(built) < set(emitted.solutions)


def test_advance_leaves_the_parent_untouched():
    for g, k in [(complete_graph(5), 4), (complete_graph(5), 3), (cycle_graph(5), 3)]:
        observe(edges_fast, g, k, lambda st, marks: check_advance_keeps_parent(st, advance))


def test_inner_step_copies_exactly_the_rows_that_change():
    # adding {u, v} shortens d[x][y] only through x..u-v..y, so every other
    # row is shared with the parent by reference
    steps = copied_total = rows_total = 0

    def check(st, marks):
        nonlocal steps, copied_total, rows_total
        if st.dist is None:  # its one child is a leaf and is built without a table step
            return
        for e in inner_candidates(st):
            new = update_dist_s(st, e)
            copied = {x for x in new if new[x] is not st.dist[x]}
            changed = {x for x in st.dist if new[x] != st.dist[x]}
            assert copied == changed, f"edge {e} at S={sorted(st.solution)}"
            steps += 1
            copied_total += len(copied)
            rows_total += len(new)

    observe(edges_fast, complete_graph(6), 4, check)
    assert steps > 0 and copied_total < rows_total


def count_table_steps(monkeypatch, name, g, k, connectivity):
    """(update_dist_s calls, built states with a table below the root, built states below the root, solutions)."""
    builds = tabled = built = 0
    real_update, real_advance = edges_fast.update_dist_s, getattr(edges_fast, name)

    def counting_update(state, e):
        nonlocal builds
        builds += 1
        return real_update(state, e)

    def counting_advance(state, i, solution, stats=None):
        nonlocal tabled, built
        child = real_advance(state, i, solution, stats)
        if child is not None:
            built += 1
            tabled += child.dist is not None
        return child

    monkeypatch.setattr(edges_fast, "update_dist_s", counting_update)
    monkeypatch.setattr(edges_fast, name, counting_advance)
    count = enumerate_edges_fast(g, k, connectivity=connectivity)
    monkeypatch.undo()
    return builds, tabled, built, count


def test_only_states_with_a_candidate_build_a_table(monkeypatch):
    # a leaf is not built, and a state whose one child is a leaf builds no
    # table, since nothing reads it: every table step makes a built state's table
    builds, tabled, built, count = count_table_steps(monkeypatch, "advance", complete_graph(6), 4, "connected")
    assert builds == tabled < built < count - 1


def test_table_steps_on_k7_at_k4(monkeypatch):
    # K7 at k=4 builds 59,404 tables when only leaves skip theirs; 30,487 of
    # those belong to states whose one child is a leaf
    builds, tabled, built, count = count_table_steps(monkeypatch, "advance", complete_graph(7), 4, "connected")
    assert count == 123_379
    assert builds == tabled == 28_917
    assert built == 59_404


def test_every_non_inner_step_writes_only_the_joined_rows():
    # an edge that starts, extends or joins components rewrites exactly the
    # rows of the (new) component it forms; every other row stays the parent's
    two_k4 = Graph(8, [(u + s, v + s) for u in range(4) for v in range(u + 1, 4) for s in (0, 4)])
    for g, k, connectivity in [
        (complete_graph(5), 4, "any"),
        (two_k4, 4, "any"),
        (petersen_graph(), 5, "connected"),
    ]:
        steps = 0

        def check(st, marks):
            nonlocal steps
            if st.dist is None:  # its one child is a leaf and is built without a table step
                return
            for e in st.branch:
                u, v = g.endpoints(e)
                if v in st.dist.get(u, ()):
                    continue
                joined = {u, v} | set(st.dist.get(u, ())) | set(st.dist.get(v, ()))
                new = update_dist_s(st, e)
                assert set(new) == set(st.dist) | {u, v}
                for x in new:
                    if x in joined:
                        assert new[x] == solution_bfs_levels(g, st.solution | {e}, x), (sorted(st.solution), e, x)
                    else:
                        assert new[x] is st.dist[x], (sorted(st.solution), e, x)
                steps += 1

        observe(edges_fast, g, k, check, connectivity=connectivity)
        assert steps


def unbuilt_children(g, k, connectivity, limit=None):
    """Emitted children of built states that advance built no state for, each checked to have no naive candidate.

    A child on branch[i] inherits its parent's marks and the elements before
    i. Returns the number of such leaves.
    """
    built = []
    emitted = Collector()
    observe(edges_fast, g, k, lambda st, marks: built.append((st, marks)), emitted, connectivity=connectivity, limit=limit)
    solutions = {frozenset(st.solution) for st, _ in built}
    reached = set(emitted.solutions)
    cfg = EnumConfig(k=k, mode="edge", connectivity=connectivity)
    leaves = 0
    for st, marks in built:
        for i, x in enumerate(st.branch):
            child = st.solution | {x}
            if child in reached and child not in solutions:
                leaves += 1
                state = BaselineState(set(child), set(marks) | set(st.branch[:i]))
                assert not candidate_set_naive(g, state, cfg), f"S={sorted(child)} has candidates but was not built"
    return leaves


def test_every_leaf_holds_no_table():
    # nothing reads a leaf's table: it never branches and is never offered to
    # prune, so advance builds no state for it
    for g, k in [(complete_graph(6), 4), (petersen_graph(), 5), (cycle_graph(5), 3)]:
        assert unbuilt_children(g, k, "connected")


# --- the non-connected variant ----------------------------------------------

def test_any_variant_examples():
    assert enumerate_edges_fast(path_graph(3), 3, connectivity="any") == 4
    assert enumerate_edges_fast(complete_graph(3), 4, connectivity="any") == 7
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert enumerate_edges_fast(two_edges, 3, connectivity="connected") == 3
    assert enumerate_edges_fast(two_edges, 3, connectivity="any") == 4
    with pytest.raises(ValidationError, match="connectivity"):
        enumerate_edges_fast(two_edges, 3, connectivity="some")


def test_any_variant_join_writes_cross_distances():
    # two paths 0-1-2 and 3-4-5 joined by the edge (2, 3): a 5-path
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (0, 5)])
    seen = {}

    def look(st, marks):
        seen[frozenset(st.solution)] = (st, st.dist, set(inner_candidates(st)), set(outer_candidates(st)))

    observe(edges_fast, g, 7, look, connectivity="any")
    parent, dist, inner, outer = seen[frozenset({0, 1, 2, 3})]
    assert dist[0] == {0: 0, 1: 1, 2: 2} and dist[5] == {3: 2, 4: 1, 5: 0}
    assert inner == set() and outer == {4, 5}
    # (0, 5) would close a 6-cycle, shorter than 7: the join's child is a
    # leaf, which is not built, and its table is its parent's step
    assert child_on(parent, 4, advance_any) is None
    assert frozenset({0, 1, 2, 3, 4}) not in seen
    dist = update_dist_s(parent, 4)
    assert dist[0][5] == 5 and dist[1][4] == 3 and dist[2] == {0: 2, 1: 1, 2: 0, 3: 1, 4: 2, 5: 3}
    assert frozenset({0, 1, 2, 3, 4, 5}) not in seen


def test_any_variant_stats():
    stats = EdgeRunStats()
    count = enumerate_edges_fast(complete_graph(5), 4, connectivity="any", stats=stats)
    assert stats.iterations == count
    assert stats.inner_picks > 0 and stats.outer_picks > 0 and stats.pair_checks > 0


def test_any_variant_state_fidelity_on_dense_graphs():
    # two disjoint K4s with interleaved edge ids: an inner step in one
    # component leaves the other's inner candidates alone
    two_k4 = Graph(8, [(u + s, v + s) for u in range(4) for v in range(u + 1, 4) for s in (0, 4)])
    cases = [(complete_graph(5), 3), (complete_graph(5), 4), (complete_graph(5), 5), (petersen_graph(), 6)]
    for g, k in cases + [(two_k4, 3), (two_k4, 4)]:
        observe(
            edges_fast, g, k, lambda st, marks: check_edge_state(g, k, st, marks, "any"), connectivity="any", limit=3000
        )


def test_any_variant_advance_leaves_the_parent_untouched():
    for g, k in [(complete_graph(5), 4), (complete_graph(5), 3), (Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)]), 3)]:
        observe(edges_fast, g, k, lambda st, marks: check_advance_keeps_parent(st, advance_any), connectivity="any")


def test_any_variant_only_states_with_a_candidate_build_a_table(monkeypatch):
    builds, tabled, built, count = count_table_steps(monkeypatch, "advance_any", complete_graph(5), 4, "any")
    assert builds == tabled < built < count - 1


def test_any_variant_every_leaf_holds_no_table():
    for g, k in [(complete_graph(5), 4), (petersen_graph(), 7)]:
        assert unbuilt_children(g, k, "any", limit=20000)
