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
    EdgeRunStats,
    advance,
    advance_any,
    branch_order,
    branch_order_any,
    exclude_candidate,
    initial_state,
    pair_girth_ok,
    update_dist_s,
)
from girthscope.enum_core import search
from girthscope.verify import random_corpus
from _state_checks import (
    MarkRecorder,
    check_advance_keeps_parent,
    check_edge_state,
    select_edge,
    solution_bfs_levels,
    solution_vertices,
)


def seed_state(g, k, eid):
    """The single-edge state {eid}: the empty root advanced on eid, so the edges below eid are its root marks."""
    return advance(initial_state(g, k), eid)


def drive(g, k, edge_ids):
    """Seed on the first edge id, then advance through the rest."""
    st = seed_state(g, k, edge_ids[0])
    for e in edge_ids[1:]:
        st = advance(st, e)
    return st


def test_seed_state_bootstrap():
    k3 = complete_graph(3)  # edge ids: (0,1)=0, (0,2)=1, (1,2)=2
    st = seed_state(k3, 4, 0)
    assert st.solution == {0} and solution_vertices(st) == {0, 1}
    assert st.inner_cand == set() and st.outer_cand == {1, 2}
    assert st.get_dist(0, 1) == 1
    st2 = seed_state(k3, 4, 1)  # edge 0 is marked
    assert st2.outer_cand == {2}


def test_select_edge_rule():
    k3 = complete_graph(3)
    st = seed_state(k3, 3, 0)
    assert select_edge(st) == 1  # lowest-id outer: the edge (0,2)
    st.inner_cand.add(2)
    assert select_edge(st) == 2  # inner takes priority
    st.inner_cand.clear()
    st.outer_cand.clear()
    with pytest.raises(ValueError):
        select_edge(st)


def candidates_after(state, e):
    """(inner, outer) candidate sets of the child S + {e}."""
    child = advance(state, e)
    return child.inner_cand, child.outer_cand


def test_pair_girth_ok_examples():
    # an outer e is priced by advance: the back edges at its new vertex
    k3 = complete_graph(3)
    st = seed_state(k3, 4, 0)  # S={e01}; adding e12 makes e02 close a triangle
    inner, outer = candidates_after(st, 2)
    assert 1 not in inner and 1 not in outer  # cycle length 3 < 4
    st3 = seed_state(k3, 3, 0)
    inner, outer = candidates_after(st3, 2)
    assert 1 in inner  # 3 >= 3

    c4 = cycle_graph(4)  # edge ids: (0,1)=0, (1,2)=1, (2,3)=2, (0,3)=3
    st = drive(c4, 4, [0, 1])  # S={e01,e12}; adding e23 turns e30 inner
    inner, outer = candidates_after(st, 2)
    assert 3 in inner  # cycle length 4 >= 4


def test_pair_girth_ok_inner_choice():
    # diamond: 4-cycle plus chord; with the cycle in the solution the chord is
    # an inner candidate whose shortest closed cycle has length 3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    st = drive(g, 3, [0, 1, 2])
    assert st.inner_cand == {3, 4}
    assert pair_girth_ok(st, 3, 4)  # adding e03: chord cycle 0-2 stays length 3
    st4 = drive(g, 4, [0, 1, 2])
    assert st4.inner_cand == {3}  # the chord died as soon as 0..3 all joined


def test_update_dist_s_examples():
    k3 = complete_graph(3)
    st = drive(k3, 3, [0, 2])  # S = {e01, e12}
    assert st.get_dist(0, 2) == 2
    newdist = update_dist_s(st, 1)  # add the inner edge (0,2)
    assert newdist[0][2] == 1

    p3 = path_graph(3)
    st = seed_state(p3, 4, 0)
    newdist = update_dist_s(st, 1)  # outer edge (1,2)
    assert newdist[0][2] == 2 and newdist[2][2] == 0


def test_update_dist_s_monotone_on_inner():
    g = complete_graph(4)
    st = drive(g, 3, [0, 1, 3])  # S = {(0,1), (0,2), (1,2)}
    for e in sorted(st.inner_cand):
        nd = update_dist_s(st, e)
        verts = solution_vertices(st)
        for x in verts:
            for y in verts:
                assert nd[x][y] <= st.get_dist(x, y)


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
    assert st.inner_cand == {3} and st.outer_cand == set()


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
            enumerate_edges_fast(g, k, on_state=lambda st: check_edge_state(g, k, st))


@pytest.mark.parametrize("g,k", [
    (complete_graph(4), 3),
    (complete_graph(4), 4),
    (cycle_graph(5), 4),
    (petersen_graph(), 5),
    (Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)]), 4),
])
def test_transition_invariants(g, k):
    checked = 0

    def checking_advance(state, e, stats=None):
        nonlocal checked
        nxt = advance(state, e, stats)
        if not state.solution:  # a root child starts from no vertices: the rules below do not apply
            return nxt
        checked += 1
        was_inner = e in state.inner_cand
        verts, next_verts = solution_vertices(state), solution_vertices(nxt)
        # inner pick: outer candidates untouched, inner set strictly shrinks
        if was_inner:
            assert nxt.outer_cand == state.outer_cand
            assert nxt.inner_cand < state.inner_cand
            assert next_verts == verts
        else:
            assert len(next_verts) == len(verts) + 1
        # inner candidates never outnumber the solution's vertices
        assert len(nxt.inner_cand) <= len(next_verts)
        # removed outer candidates all touch the new solution's vertex set
        removed = state.outer_cand - nxt.outer_cand
        assert len(removed) <= len(next_verts)
        added = nxt.outer_cand - state.outer_cand
        if added:
            (new_vertex,) = next_verts - verts
            assert len(added) <= g.degree(new_vertex)
        return nxt

    search(initial_state(g, k), branch_order, checking_advance, exclude_candidate, None)
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
    advance(drive(k4, 3, [0, 1, 2]), 3, stats)  # inner: pair_girth_ok on 4 and 5
    assert stats.pair_checks == 2
    advance(drive(k4, 3, [0]), 1, stats)  # outer to vertex 2: the back edge 3
    assert stats.pair_checks == 3
    root = initial_state(k4, 3)
    two_edges = advance_any(advance_any(root, 0), 5)
    advance_any(two_edges, 1, stats)  # joins {0, 1} and {2, 3}: the edges 2, 3 and 4 between them
    assert stats.pair_checks == 6


def test_rejects_weighted_and_bad_k():
    g = Graph(2, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        enumerate_edges_fast(g, 4)
    with pytest.raises(ValidationError):
        enumerate_edges_fast(path_graph(2), 1)


def test_on_state_sees_the_empty_root_first():
    # the root is a state of its own: no vertices, every edge an outer candidate
    g = petersen_graph()
    seen = []

    def look(state):
        seen.append((sorted(state.solution), set(state.inner_cand), set(state.outer_cand)))

    enumerate_edges_fast(g, 5, on_state=look, limit=30)
    assert seen[0] == ([], set(), set(range(g.m)))
    assert [solution for solution, _, _ in seen[1:4]] == [[0], [0, 1], [0, 1, 2]]
    assert all(solution for solution, _, _ in seen[1:])


def test_advance_leaves_the_parent_untouched():
    for g, k in [(complete_graph(5), 4), (complete_graph(5), 3), (cycle_graph(5), 3)]:
        enumerate_edges_fast(
            g, k, on_state=lambda st: check_advance_keeps_parent(st, advance, exclude_candidate, branch_order)
        )


def test_inner_step_copies_exactly_the_rows_that_change():
    # adding {u, v} shortens d[x][y] only through x..u-v..y, so every other
    # row is shared with the parent by reference
    steps = copied_total = rows_total = 0

    def check(st):
        nonlocal steps, copied_total, rows_total
        for e in st.inner_cand:
            new = update_dist_s(st, e)
            copied = {x for x in new if new[x] is not st.dist[x]}
            changed = {x for x in st.dist if new[x] != st.dist[x]}
            assert copied == changed, f"edge {e} at S={sorted(st.solution)}"
            steps += 1
            copied_total += len(copied)
            rows_total += len(new)

    enumerate_edges_fast(complete_graph(6), 4, on_state=check)
    assert steps > 0 and copied_total < rows_total


def test_only_states_with_a_candidate_build_a_table(monkeypatch):
    # a leaf's table is never read during the run, so building it is skipped
    builds = branching = 0
    real_update, real_advance = edges_fast.update_dist_s, edges_fast.advance

    def counting_update(state, e):
        nonlocal builds
        builds += 1
        return real_update(state, e)

    def counting_advance(state, e, stats=None):
        nonlocal branching
        child = real_advance(state, e, stats)
        if child.inner_cand or child.outer_cand:
            branching += 1
        return child

    monkeypatch.setattr(edges_fast, "update_dist_s", counting_update)
    monkeypatch.setattr(edges_fast, "advance", counting_advance)
    stats = EdgeRunStats()
    enumerate_edges_fast(complete_graph(6), 4, stats=stats)
    assert builds == branching
    assert builds < stats.iterations


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

        def check(st):
            nonlocal steps
            for e in st.cand:
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

        enumerate_edges_fast(g, k, connectivity=connectivity, on_state=check)
        assert steps


def test_every_leaf_holds_no_table():
    # nothing reads a leaf's table: it never branches and is never offered to prune
    for g, k in [(complete_graph(6), 4), (petersen_graph(), 5), (cycle_graph(5), 3)]:
        leaves = []

        def collect(st):
            if st.solution and not st.cand:
                leaves.append(st)

        enumerate_edges_fast(g, k, on_state=collect)
        assert leaves
        for st in leaves:
            assert st.dist is None, f"S={sorted(st.solution)}"


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

    def look(st):
        # candidate sets shrink as siblings are branched on, so copy them now
        seen[frozenset(st.solution)] = (st, st.dist, set(st.inner_cand), set(st.outer_cand))

    enumerate_edges_fast(g, 7, connectivity="any", on_state=look)
    parent, dist, inner, outer = seen[frozenset({0, 1, 2, 3})]
    assert dist[0] == {0: 0, 1: 1, 2: 2} and dist[5] == {3: 2, 4: 1, 5: 0}
    assert inner == set() and outer == {4, 5}
    leaf, dist, inner, outer = seen[frozenset({0, 1, 2, 3, 4})]
    assert inner == outer == set()  # (0, 5) would close a 6-cycle, shorter than 7
    assert dist is None  # a leaf holds no table; the join's table is its parent's step
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
        enumerate_edges_fast(
            g, k, connectivity="any", limit=3000, on_state=lambda st: check_edge_state(g, k, st, "any")
        )


def test_any_variant_advance_leaves_the_parent_untouched():
    for g, k in [(complete_graph(5), 4), (complete_graph(5), 3), (Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)]), 3)]:
        enumerate_edges_fast(
            g,
            k,
            connectivity="any",
            on_state=lambda st: check_advance_keeps_parent(st, advance_any, exclude_candidate, branch_order_any),
        )


def test_any_variant_only_states_with_a_candidate_build_a_table(monkeypatch):
    builds = branching = 0
    real_update, real_advance = edges_fast.update_dist_s, edges_fast.advance_any

    def counting_update(state, e):
        nonlocal builds
        builds += 1
        return real_update(state, e)

    def counting_advance(state, e, stats=None):
        nonlocal branching
        child = real_advance(state, e, stats)
        if child.inner_cand or child.outer_cand:
            branching += 1
        return child

    monkeypatch.setattr(edges_fast, "update_dist_s", counting_update)
    monkeypatch.setattr(edges_fast, "advance_any", counting_advance)
    stats = EdgeRunStats()
    enumerate_edges_fast(complete_graph(5), 4, connectivity="any", stats=stats)
    assert builds == branching
    assert builds < stats.iterations


def test_any_variant_every_leaf_holds_no_table():
    for g, k in [(complete_graph(5), 4), (petersen_graph(), 7)]:
        leaves = []
        marks_of = MarkRecorder()

        def collect(st):
            marks = marks_of(st)
            if st.solution and not st.cand:
                leaves.append((st, marks))

        enumerate_edges_fast(g, k, connectivity="any", on_state=collect, limit=20000)
        assert leaves
        for st, marks in leaves:
            assert st.dist is None, f"S={sorted(st.solution)}"
            check_edge_state(g, k, st, "any", marks)
