"""Fast induced-subgraph enumerator: incremental ops against their oracles."""

from __future__ import annotations

import random

import pytest

from girthscope import (
    Collector,
    EnumConfig,
    Graph,
    INFINITE,
    InducedRunStats,
    ValidationError,
    brute_force_enumerate,
    complete_graph,
    cycle_graph,
    enumerate_baseline,
    enumerate_induced_fast,
    path_graph,
    petersen_graph,
    second_distance,
)
from girthscope.induced_fast import (
    adopt_new_candidates,
    advance,
    branch_order,
    exclude_candidate,
    initial_state,
)
from girthscope.verify import random_corpus
from _state_checks import (
    DONE_EXCLUDED,
    GIRTH_EXCLUDED,
    MarkRecorder,
    check_advance_keeps_parent,
    check_induced_state,
    filter_old_candidates,
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
    """Drive transitions along the leftmost branch reaching `vertices` (in order)."""
    st = initial_state(g, k)
    for v in vertices:
        st = advance(st, v)
    return st


def test_initial_state():
    st = initial_state(cycle_graph(4), 5)
    assert st.cand == {0, 1, 2, 3} and not st.solution
    assert st.get_dist(0, 1) == 1 and st.get_dist(0, 2) == INFINITE
    assert st.get_second(0, 1) == INFINITE


def test_filter_old_candidates_examples():
    c4 = cycle_graph(4)
    st = state_at(c4, 5, [0])
    assert st.cand == {1, 3}
    assert st.get_dist(3, 1) == 2 and st.get_second(3, 1) == INFINITE
    assert filter_old_candidates(st, 1) == {3}

    st5 = state_at(c4, 5, [0, 1])
    assert st5.cand == {2, 3}
    assert st5.get_dist(3, 2) == 1 and st5.get_second(3, 2) == 3
    assert filter_old_candidates(st5, 2) == set()  # 1 + 3 < 5

    st4 = state_at(c4, 4, [0, 1])
    assert filter_old_candidates(st4, 2) == {3}  # 1 + 3 >= 4


def test_adopt_new_candidates_examples():
    assert adopt_new_candidates(state_at(cycle_graph(4), 5, [0]), 1) == {2}
    assert adopt_new_candidates(state_at(path_graph(3), 5, [0]), 1) == {2}
    assert adopt_new_candidates(state_at(complete_graph(3), 5, [0]), 1) == set()


def test_update_dist_examples():
    st = state_at(cycle_graph(4), 4, [0, 1])
    assert st.get_dist(2, 3) == 1  # the edge {2,3} inside the pair graph
    st = state_at(path_graph(3), 4, [0, 1])
    assert st.get_dist(0, 2) == 2


def test_update_dist_never_lengthens():
    g = petersen_graph()
    st = state_at(g, 5, [0])
    for v in sorted(st.cand):
        child = advance(st, v)
        for x in child.solution | child.cand:
            for u in child.cand:
                if x != u:
                    assert child.get_dist(x, u) <= st.get_dist(x, u)


def test_update_second_examples():
    st = state_at(cycle_graph(4), 4, [0, 1])
    assert st.get_second(2, 3) == 3  # first hops 1 (the edge) and 3 (via 1 and 0)
    assert st.get_second(3, 2) == 3
    st5 = state_at(cycle_graph(4), 5, [0])
    assert st5.get_second(1, 3) == INFINITE  # lone route, nothing after removing it


def test_statuses_and_done_exclusion():
    c4 = cycle_graph(4)
    st = state_at(c4, 5, [0])
    assert status(st, 0) == "in-solution"
    assert status(st, 1) == "candidate"
    assert status(st, 2) == "unreached"
    exclude_candidate(st, 1)
    assert status(st, 1, marks={1}) == "done-excluded"
    assert st.cand == {3}
    assert st.get_dist(3, 1) == INFINITE  # out of scope once excluded
    assert advance(advance(st, 3), 2).cand == set()  # 1 is attached to S: marked, never adopted

    stg = state_at(c4, 5, [0, 1])  # adding 1 kills nothing; adding 2 girth-drops 3
    child = advance(stg, 2)
    assert status(child, 3) == "girth-excluded"
    assert child.cand == set()


def test_exclusions_are_absorbing_along_each_branch():
    # along any root-to-leaf path, both exclusion sets only grow, and an
    # excluded vertex never reappears as a candidate or solution member
    for g, k in [(complete_graph(4), 4), (petersen_graph(), 5), (cycle_graph(6), 4)]:
        shadow: list = []
        marks_of = MarkRecorder()

        def check(st):
            done = marks_of(st)
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

        enumerate_induced_fast(g, k, on_state=check, limit=200)


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
            enumerate_induced_fast(g, k, on_state=lambda st: check_induced_state(g, k, st))


def test_candidate_filter_agrees_with_girth_check_per_pair():
    # the O(1) test dist+second >= k decides exactly girth(G[S+{u,v}]) >= k
    from girthscope.girth import girth_unweighted
    from girthscope import induced_subgraph

    def check(st):
        for v in st.cand:
            keep = filter_old_candidates(st, v)
            for u in st.cand - {v}:
                ok = girth_unweighted(induced_subgraph(st.g, st.solution | {u, v})) >= st.k
                attached = st.get_dist(u, v) != INFINITE
                assert (u in keep) == (ok and attached)

    for g in [cycle_graph(5), complete_graph(4), cycle_graph(6)]:
        for k in (4, 5):
            enumerate_induced_fast(g, k, on_state=check, limit=40)


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

        def check(st):
            nonlocal pairs
            for v in st.cand:
                keep = filter_old_candidates(st, v)
                for u in st.cand - {v}:
                    d = st.get_dist(u, v)
                    expected = d != INFINITE and d + second_distance(g, st.solution, u, v) >= k
                    assert (u in keep) == expected, (sorted(st.solution), u, v)
                    pairs += 1

        enumerate_induced_fast(g, k, on_state=check)
        assert pairs
    fast = Collector()
    enumerate_induced_fast(REGIME_FIXTURE, k, fast)
    assert set(fast.solutions) == set(brute_force_enumerate(REGIME_FIXTURE, EnumConfig(k=k)))


def test_work_accounting_reported():
    # per-solution work tracks the closed neighborhood size; the constant is
    # printed for inspection, not asserted (wall-clock bounds are hardware
    # dependent and the pair count is the machine-independent proxy)
    for n in (4, 5, 6):
        stats = InducedRunStats()
        count = enumerate_induced_fast(complete_graph(n), 3, stats=stats)
        assert stats.iterations == count
        neighborhood_total = (count - 1) * n  # N[S] is everything for nonempty S of K_n
        ratio = stats.candidate_pairs / neighborhood_total
        print(
            f"K_{n} k=3: {count} solutions, {stats.candidate_pairs} candidate pairs touched, "
            f"{ratio:.2f} pairs per neighborhood vertex, max depth {stats.max_depth}"
        )


def test_limit_stop_and_include_empty():
    g = petersen_graph()
    assert enumerate_induced_fast(g, 5, limit=10) == 10
    full = enumerate_induced_fast(g, 5)
    assert enumerate_induced_fast(g, 5, include_empty=False) == full - 1

    def stopper(sol, ordinal):
        return False if ordinal == 2 else None

    assert enumerate_induced_fast(g, 5, stopper) == 3


def test_rejects_weighted_graphs():
    g = Graph(2, [(0, 1, 2)], weighted=True)
    with pytest.raises(ValidationError):
        enumerate_induced_fast(g, 4)
    with pytest.raises(ValidationError):
        enumerate_induced_fast(path_graph(2), 2)


def test_dist_table_keeps_only_pairs_with_a_candidate_end():
    # solution x solution entries are never read, so they are not stored: a
    # solution row holds candidate columns only, and the table is bounded by
    # 2|S||cand| (both orientations of solution-candidate pairs) + |cand|^2
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (petersen_graph(), rand12):
        seen = 0

        def check(st):
            nonlocal seen
            seen += 1
            for x in st.solution:
                assert not set(st.dist.get(x, ())) & st.solution, f"row {x} at S={sorted(st.solution)}"
            entries = sum(len(row) for row in st.dist.values())
            s, c = len(st.solution), len(st.cand)
            assert entries <= 2 * s * c + c * c, f"{entries} entries at S={sorted(st.solution)}"

        count = enumerate_induced_fast(g, 5, on_state=check)
        assert seen == count  # one state per emitted solution (the root emits the empty one)


def test_dist_table_has_candidate_rows_only():
    # every solution-candidate pair is read through the candidate's row, so a
    # solution vertex has no row and a step writes |cand| * (|S| + |cand|) entries
    rng = random.Random(12)
    n = 12
    rand12 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (petersen_graph(), rand12):
        seen = 0

        def check(st):
            nonlocal seen
            seen += 1
            assert not st.solution & set(st.dist), f"solution rows at S={sorted(st.solution)}"
            entries = sum(len(row) for row in st.dist.values())
            s, c = len(st.solution), len(st.cand)
            assert entries <= s * c + c * c, f"{entries} entries at S={sorted(st.solution)}"

        assert enumerate_induced_fast(g, 5, on_state=check) == seen


def test_advance_leaves_the_parent_untouched():
    for g, k in [(petersen_graph(), 5), (REGIME_FIXTURE, 5), (complete_graph(5), 3), (cycle_graph(6), INFINITE)]:
        enumerate_induced_fast(
            g, k, on_state=lambda st: check_advance_keeps_parent(st, advance, exclude_candidate, branch_order)
        )
