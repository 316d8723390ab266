"""Fast induced-subgraph enumerator: incremental ops against their oracles."""

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
    enumerate_induced_fast,
    path_graph,
    petersen_graph,
)
from girthscope import induced_fast
from girthscope.enum_core import BaselineState, candidate_set_naive
from girthscope.induced_fast import (
    InducedEnumState,
    InducedRunStats,
    adopt_new_candidates,
    advance,
    initial_state,
)
from girthscope.verify import random_corpus
from _oracles import second_distance
from _state_checks import (
    DONE_EXCLUDED,
    GIRTH_EXCLUDED,
    check_advance_keeps_parent,
    check_induced_state,
    child_on,
    filter_old_candidates,
    induced_dist,
    induced_second,
    must_be_a_fan,
    observe,
    status,
)

# path 0..5 with two "ears" (7, 8 on {0, 3}) and a shortcut vertex 6 on
# {5, 7, 8}: at k=5 a path through the added vertex is sometimes shorter and
# sometimes longer than the old shortest one
REGIME_FIXTURE = Graph(
    9,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 7), (3, 7), (0, 8), (3, 8), (5, 6), (6, 7), (6, 8)],
)


def state_at(g, k, vertices):
    """Drive transitions reaching `vertices` (in order); each step excludes the candidates before it."""
    st = initial_state(g, k)
    for v in vertices:
        st = child_on(st, v, advance)
    return st


def test_initial_state():
    st = initial_state(cycle_graph(4), 5)
    assert st.cand == {0, 1, 2, 3} and not st.solution
    assert induced_dist(st, 0, 1) == 1 and induced_dist(st, 0, 2) == INFINITE
    assert induced_second(st, 0, 1) == INFINITE


def test_filter_old_candidates_examples():
    c4 = cycle_graph(4)
    st = state_at(c4, 5, [0])
    assert st.cand == {1, 3}
    assert induced_dist(st, 3, 1) == 2 and induced_second(st, 3, 1) == INFINITE
    assert filter_old_candidates(st, 1) == {3}

    st5 = state_at(c4, 5, [0, 1])
    assert st5.cand == {2, 3}
    assert induced_dist(st5, 3, 2) == 1 and induced_second(st5, 3, 2) == 3
    assert filter_old_candidates(st5, 2) == set()  # 1 + 3 < 5

    st4 = state_at(c4, 4, [0, 1])
    assert filter_old_candidates(st4, 2) == {3}  # 1 + 3 >= 4


def adopt_at(st, v):
    """adopt_new_candidates for v added to the state st."""
    return adopt_new_candidates(st.g, st.solution, st.first, v)


def test_adopt_new_candidates_examples():
    assert adopt_at(state_at(cycle_graph(4), 5, [0]), 1) == [2]
    assert adopt_at(state_at(path_graph(3), 5, [0]), 1) == [2]
    assert adopt_at(state_at(complete_graph(3), 5, [0]), 1) == []
    # a neighbour with an id below first is root-marked, one with a neighbour in S is attached
    assert adopt_at(state_at(path_graph(4), 5, [1]), 2) == [3]
    assert adopt_new_candidates(path_graph(4), frozenset({1, 2}), 1, 2) == []
    assert adopt_new_candidates(path_graph(4), frozenset({1, 2}), 1, 1) == []


def test_update_dist_examples():
    st = state_at(cycle_graph(4), 4, [0, 1])
    assert induced_dist(st, 2, 3) == 1  # the edge {2,3} inside the pair graph
    st = state_at(path_graph(3), 4, [0])
    assert induced_fast.update_dist(st, 1, [], [2])[2][0] == 2
    assert child_on(st, 1, advance).dist is None  # 2 adopts nothing: the child is a fan, with no table


def test_update_dist_never_lengthens():
    g = petersen_graph()
    st = state_at(g, 5, [0])
    for v in sorted(st.cand):
        child = child_on(st, v, advance)
        if child is None or child.dist is None:  # a leaf or a fan: no table
            continue
        for x in child.solution | child.cand:
            for u in child.cand:
                if x != u:
                    assert induced_dist(child, x, u) <= induced_dist(st, x, u)


def test_update_second_examples():
    st = state_at(cycle_graph(4), 4, [0, 1])
    assert induced_second(st, 2, 3) == 3  # first hops 1 (the edge) and 3 (via 1 and 0)
    assert induced_second(st, 3, 2) == 3
    st5 = state_at(cycle_graph(4), 5, [0])
    assert induced_second(st5, 1, 3) == INFINITE  # lone route, nothing after removing it


def test_statuses_and_done_exclusion():
    c4 = cycle_graph(4)
    st = state_at(c4, 5, [0])
    assert status(st, 0) == "in-solution"
    assert status(st, 1) == "candidate"
    assert status(st, 2) == "unreached"
    child = child_on(st, 3, advance)  # 1 comes before 3, so the child excludes it
    assert status(child, 1, marks={1}) == "done-excluded"
    assert child.cand == {2}
    # 1 is attached to S: marked, never adopted, so the one child, on 2, is
    # a leaf, and child is a fan, with no table
    assert adopt_at(child, 2) == []
    assert child.dist is None

    stg = state_at(c4, 5, [0, 1])  # adding 1 kills nothing; adding 2 girth-drops 3
    assert child_on(stg, 2, advance) is None  # a leaf is not built
    leaf = InducedEnumState(c4, 5, frozenset({0, 1, 2}), [], 0, {})
    assert status(leaf, 3) == "girth-excluded"
    assert not leaf.cand


def test_exclusions_are_absorbing_along_each_branch():
    # along any root-to-leaf path, both exclusion sets only grow, and an
    # excluded vertex never reappears as a candidate or solution member
    for g, k in [(complete_graph(4), 4), (petersen_graph(), 5), (cycle_graph(6), 4)]:
        shadow: list = []

        def check(st, done):
            girth = {v for v in range(g.n) if status(st, v, done) == GIRTH_EXCLUDED}
            assert done == {v for v in range(g.n) if status(st, v, done) == DONE_EXCLUDED}
            depth = len(st.solution)
            del shadow[depth:]
            if shadow:
                parent = shadow[-1]
                assert parent[0] <= girth
                assert parent[1] <= done
            assert not (girth | done) & (st.cand | st.solution)
            shadow.append((frozenset(girth), done))

        observe(induced_fast, g, k, check, limit=200)


def test_enumerate_counts():
    c4 = cycle_graph(4)
    assert enumerate_induced_fast(c4, 4) == 14
    assert enumerate_induced_fast(c4, 5) == 13
    assert enumerate_induced_fast(complete_graph(4), 3) == 16  # every subset qualifies
    assert enumerate_induced_fast(Graph(0, []), 3) == 1
    assert enumerate_induced_fast(Graph(1, []), 3) == 2


def test_petersen_matches_baseline_and_brute():
    g = petersen_graph()
    for k in (5, 6):
        fast = Collector()
        enumerate_induced_fast(g, k, fast)
        base = Collector()
        enumerate_baseline(g, EnumConfig(k=k), base)
        brute = brute_force_enumerate(g, EnumConfig(k=k))
        assert set(fast.solutions) == set(base.solutions) == set(brute)


def test_matches_oracles_on_corpus():
    corpus = random_corpus(25, 6, seed=606)
    for g in corpus:
        for k in (3, 4, 5, INFINITE):
            fast = Collector()
            enumerate_induced_fast(g, k, fast)
            assert set(fast.solutions) == set(brute_force_enumerate(g, EnumConfig(k=k)))


def test_emission_order_matches_baseline():
    # both engines branch in ascending id order, so the streams are identical
    for g in [cycle_graph(5), complete_graph(4), petersen_graph()]:
        for k in (4, 5):
            fast, base = Collector(), Collector()
            enumerate_induced_fast(g, k, fast)
            enumerate_baseline(g, EnumConfig(k=k), base)
            assert fast.solutions == base.solutions


def test_state_fidelity_on_random_corpus():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        for k in (3, 4, 5, INFINITE):
            observe(induced_fast, g, k, lambda st, marks: check_induced_state(g, k, st, marks))


def test_candidate_filter_agrees_with_girth_check_per_pair():
    # the O(1) test dist+second >= k decides exactly girth(G[S+{u,v}]) >= k
    from girthscope.girth import girth_unweighted
    from girthscope import induced_subgraph

    def check(st, marks):
        if not st.solution:  # the root asks no filter: v's neighbours above v attach through v alone
            return
        for v in st.cand:
            keep = filter_old_candidates(st, v)
            for u in st.cand - {v}:
                ok = girth_unweighted(induced_subgraph(st.g, st.solution | {u, v})) >= st.k
                attached = induced_dist(st, u, v) != INFINITE
                assert (u in keep) == (ok and attached)

    for g in [cycle_graph(5), complete_graph(4), cycle_graph(6)]:
        for k in (4, 5):
            observe(induced_fast, g, k, check, limit=40)


def test_filter_decides_by_dist_plus_second_distance():
    # at every state, the old candidate u survives adding v iff it is attached
    # and dist + second >= k, with second from the from-scratch oracle rather
    # than from the first-hop rule the filter itself uses
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    k = 5
    for g in (REGIME_FIXTURE, petersen_graph(), rand12):
        pairs = 0

        def check(st, marks):
            nonlocal pairs
            if not st.solution:  # the root asks no filter
                return
            for v in st.cand:
                keep = filter_old_candidates(st, v)
                for u in st.cand - {v}:
                    d = induced_dist(st, u, v)
                    expected = d != INFINITE and d + second_distance(g, st.solution, u, v) >= k
                    assert (u in keep) == expected, (sorted(st.solution), u, v)
                    pairs += 1

        observe(induced_fast, g, k, check)
        assert pairs
    fast = Collector()
    enumerate_induced_fast(REGIME_FIXTURE, k, fast)
    assert set(fast.solutions) == set(brute_force_enumerate(REGIME_FIXTURE, EnumConfig(k=k)))


def test_work_accounting_reported():
    # the filter decides few (candidate, added vertex) pairs per neighbourhood
    # vertex, and N[S] is every vertex of K_n for a nonempty S. The pair count
    # is the machine-independent proxy for work: K4-K6 read 0.18, 0.17, 0.15.
    max_pairs_per_neighbourhood_vertex = 0.2
    for n in (4, 5, 6):
        stats = InducedRunStats()
        count = enumerate_induced_fast(complete_graph(n), 3, stats=stats)
        assert stats.iterations == count
        ratio = stats.candidate_pairs / ((count - 1) * n)
        assert ratio <= max_pairs_per_neighbourhood_vertex, f"K_{n}: {ratio:.3f} pairs per neighbourhood vertex"


def test_limit_stop_and_include_empty():
    g = petersen_graph()
    assert enumerate_induced_fast(g, 5, limit=10) == 10
    full = enumerate_induced_fast(g, 5)
    assert enumerate_induced_fast(g, 5, include_empty=False) == full - 1

    def stopper(sol, ordinal):
        return False if ordinal == 2 else None

    assert enumerate_induced_fast(g, 5, stopper) == 3


def test_rejects_weighted_graphs():
    g = Graph(2, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        enumerate_induced_fast(g, 4)
    with pytest.raises(ValidationError):
        enumerate_induced_fast(path_graph(2), 2)


def holds_a_table(g, k, st, marks):
    """Does st hold a table? Asserts that it does exactly when it is no fan by the naive rule (must_be_a_fan)."""
    cfg = EnumConfig(k=k)
    naive = candidate_set_naive(g, BaselineState(set(st.solution), set(marks)), cfg)
    fan = must_be_a_fan(g, cfg, st, marks, naive)
    assert (st.dist is None) == fan, f"S={sorted(st.solution)}: fan {fan}, table {st.dist is not None}"
    return not fan


def test_dist_table_keeps_only_pairs_with_a_candidate_end():
    # solution x solution entries are never read, so they are not stored: a
    # solution row holds candidate columns only, and the table is bounded by
    # 2|S||cand| (both orientations of solution-candidate pairs) + |cand|^2
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (petersen_graph(), rand12):
        seen = 0

        def check(st, marks):
            nonlocal seen
            seen += 1
            if not holds_a_table(g, 5, st, marks):
                return
            for x in st.solution:
                assert not set(st.dist.get(x, ())) & st.solution, f"row {x} at S={sorted(st.solution)}"
            entries = sum(len(row) for row in st.dist.values())
            s, c = len(st.solution), len(st.cand)
            assert entries <= 2 * s * c + c * c, f"{entries} entries at S={sorted(st.solution)}"

        count = observe(induced_fast, g, 5, check)
        assert 0 < seen < count  # one state per emitted solution with a candidate; leaves are not built


def test_dist_table_has_candidate_rows_only():
    # every solution-candidate pair is read through the candidate's row, so a
    # solution vertex has no row and a step writes |cand| * (|S| + |cand|) entries
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (petersen_graph(), rand12):
        seen = 0

        def check(st, marks):
            nonlocal seen
            seen += 1
            if not holds_a_table(g, 5, st, marks):
                return
            assert not st.solution & set(st.dist), f"solution rows at S={sorted(st.solution)}"
            entries = sum(len(row) for row in st.dist.values())
            s, c = len(st.solution), len(st.cand)
            assert entries <= s * c + c * c, f"{entries} entries at S={sorted(st.solution)}"

        assert observe(induced_fast, g, 5, check) > seen > 0


def test_each_step_writes_exactly_the_candidate_rows():
    # no state is changed once built, so its rows are exactly its cand:
    # one per survivor and one per adopted vertex, and none for anything
    # else; a fan, whose one child is a leaf, writes none
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (petersen_graph(), rand12):
        seen = 0

        def check(st, marks):
            nonlocal seen
            seen += 1
            if holds_a_table(g, 5, st, marks):
                assert set(st.dist) == st.cand, f"S={sorted(st.solution)}"

        assert observe(induced_fast, g, 5, check) > seen > 0


def test_advance_leaves_the_parent_untouched():
    for g, k in [(petersen_graph(), 5), (REGIME_FIXTURE, 5), (complete_graph(5), 3), (cycle_graph(6), INFINITE)]:
        observe(induced_fast, g, k, lambda st, marks: check_advance_keeps_parent(st, advance))


def test_root_child_is_built_by_the_adoption_step(monkeypatch):
    # at the root v's unmarked neighbours attach through v alone: they reach
    # update_dist as adopted vertices, and no adoption scan runs there (the
    # fan test of a root child asks it for S + {v}, which is not empty)
    update_dist = induced_fast.update_dist
    adopt = induced_fast.adopt_new_candidates
    root_tables = 0

    def checked_adopt(g, sol, first, v):
        assert sol, f"adoption asked at the root for v={v}"
        return adopt(g, sol, first, v)

    def checked_update_dist(state, v, survivors, adopted):
        nonlocal root_tables
        if not state.solution:
            assert not survivors, f"root step for v={v} hands update_dist survivors {sorted(survivors)}"
            root_tables += 1
        return update_dist(state, v, survivors, adopted)

    monkeypatch.setattr(induced_fast, "adopt_new_candidates", checked_adopt)
    monkeypatch.setattr(induced_fast, "update_dist", checked_update_dist)
    for g in random_corpus(40, 12, 5) + [petersen_graph(), complete_graph(6)]:
        collected = Collector()
        enumerate_induced_fast(g, 5, collected)
        assert set(collected.solutions) == set(brute_force_enumerate(g, EnumConfig(k=5)))
    assert root_tables > 0
