"""The search driver, the baseline binary-partition engine and the brute-force oracle."""

from __future__ import annotations

import random
import zlib
from types import SimpleNamespace

import pytest

from girthscope import (
    BudgetExceededError,
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
    enumerate_induced_fast,
    path_graph,
    petersen_graph,
)
from girthscope import edges_fast, induced_fast
from girthscope.enum_core import BaselineState, _solution_ok, candidate_set_naive, search
from girthscope.verify import random_corpus
from _oracles import independent_solutions
from _state_checks import observe


def run_baseline(g, cfg):
    sink = Collector()
    count = enumerate_baseline(g, cfg, sink)
    assert count == len(sink.solutions)
    return sink.solutions


def test_candidate_set_examples():
    c4 = cycle_graph(4)
    cfg5 = EnumConfig(k=5)
    assert candidate_set_naive(c4, BaselineState({0}, set()), cfg5) == {1, 3}
    assert candidate_set_naive(c4, BaselineState({0, 1, 2}, set()), cfg5) == set()
    assert candidate_set_naive(c4, BaselineState({0, 1, 2}, set()), EnumConfig(k=4)) == {3}


def test_candidate_set_respects_exclusions():
    c4 = cycle_graph(4)
    assert candidate_set_naive(c4, BaselineState({0}, {1}), EnumConfig(k=5)) == {3}


def test_enumerate_baseline_counts():
    assert enumerate_baseline(path_graph(3), EnumConfig(k=INFINITE)) == 7
    assert enumerate_baseline(complete_graph(3), EnumConfig(k=3)) == 8
    assert enumerate_baseline(complete_graph(3), EnumConfig(k=4)) == 7
    assert enumerate_baseline(complete_graph(3), EnumConfig(k=4, mode="edge")) == 7
    assert enumerate_baseline(cycle_graph(4), EnumConfig(k=5)) == 13
    assert enumerate_baseline(cycle_graph(4), EnumConfig(k=4)) == 14


def test_p3_solutions_explicit():
    sols = run_baseline(path_graph(3), EnumConfig(k=INFINITE))
    assert set(sols) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_k3_edge_solutions_exclude_triangle_at_k4():
    sols = run_baseline(complete_graph(3), EnumConfig(k=4, mode="edge"))
    assert frozenset({0, 1, 2}) not in sols
    assert len(sols) == 7


def test_brute_force_examples():
    k3 = complete_graph(3)
    got = brute_force_enumerate(k3, EnumConfig(k=4))
    assert set(got) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    # P_3 has two edges: the empty set, both singles, and the full path qualify
    assert len(brute_force_enumerate(path_graph(3), EnumConfig(k=3, mode="edge"))) == 4
    empty = Graph(0, [])
    assert brute_force_enumerate(empty, EnumConfig(k=3)) == [frozenset()]
    assert brute_force_enumerate(empty, EnumConfig(k=3, include_empty=False)) == []


def test_brute_force_budget_refusal():
    with pytest.raises(BudgetExceededError):
        brute_force_enumerate(complete_graph(25), EnumConfig(k=3), max_exponent=20)
    # raising the budget is allowed explicitly
    assert brute_force_enumerate(complete_graph(4), EnumConfig(k=3), max_exponent=4)


def test_brute_force_output_is_canonically_sorted():
    got = brute_force_enumerate(cycle_graph(4), EnumConfig(k=4))
    keys = [(len(s), sorted(s)) for s in got]
    assert keys == sorted(keys)


def test_brute_force_matches_fully_independent_filter():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(0, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        for k in (3, 4, INFINITE):
            for mode in ("induced", "edge"):
                for connectivity in ("connected", "any"):
                    cfg = EnumConfig(k=k, mode=mode, connectivity=connectivity)
                    assert set(brute_force_enumerate(g, cfg)) == independent_solutions(
                        g, k, mode, connectivity
                    )


@pytest.mark.parametrize("mode", ["induced", "edge"])
@pytest.mark.parametrize("connectivity", ["connected", "any"])
def test_baseline_equals_brute_force_on_corpus(mode, connectivity):
    corpus = random_corpus(20, 6, seed=404, max_m=7 if mode == "edge" else None)
    for g in corpus:
        for k in (3, 4, 5, 6, INFINITE):
            cfg = EnumConfig(k=k, mode=mode, connectivity=connectivity)
            assert set(run_baseline(g, cfg)) == set(brute_force_enumerate(g, cfg))


def test_every_emitted_solution_is_sound():
    corpus = random_corpus(10, 6, seed=77)
    for g in corpus:
        for cfg in (EnumConfig(k=4), EnumConfig(k=3, mode="edge"), EnumConfig(k=4, connectivity="any")):
            if cfg.mode == "edge" and g.m > 10:
                continue
            for sol in run_baseline(g, cfg):
                assert _solution_ok(g, set(sol), cfg)


def test_no_duplicates():
    for g in random_corpus(10, 6, seed=99):
        sols = run_baseline(g, EnumConfig(k=3))
        assert len(sols) == len(set(sols))


def test_monotone_girth_exclusion():
    # once adding w breaks the threshold, it breaks it for every superset too
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, edges)
        k = rng.choice([3, 4, 5])
        cfg = EnumConfig(k=k)
        verts = list(range(n))
        rng.shuffle(verts)
        w = verts[0]
        base = set(verts[1 : rng.randint(1, n)])
        if _solution_ok(g, base | {w}, EnumConfig(k=k, connectivity="any")):
            continue
        for extra in range(2):
            bigger = base | set(rng.sample(verts, min(n, len(base) + extra)))
            assert not _solution_ok(g, bigger | {w}, EnumConfig(k=k, connectivity="any"))


def test_empty_first_and_ordinals_increase():
    seen = []

    def sink(sol, ordinal):
        seen.append((ordinal, sol))

    enumerate_baseline(cycle_graph(4), EnumConfig(k=4), sink)
    assert seen[0] == (0, frozenset())
    assert [o for o, _ in seen] == list(range(len(seen)))


def test_include_empty_false():
    count = enumerate_baseline(cycle_graph(4), EnumConfig(k=4, include_empty=False))
    assert count == 13
    sink = Collector()
    enumerate_baseline(cycle_graph(4), EnumConfig(k=4, include_empty=False), sink)
    assert frozenset() not in sink.solutions


def test_sink_stop_signal_gives_partial_count():
    def sink(sol, ordinal):
        return False if ordinal == 4 else None

    count = enumerate_baseline(cycle_graph(4), EnumConfig(k=4), sink)
    assert count == 5  # the stopping solution was still delivered


def test_limit_truncates():
    assert enumerate_baseline(cycle_graph(4), EnumConfig(k=4, limit=6)) == 6
    assert enumerate_baseline(cycle_graph(4), EnumConfig(k=4, limit=0)) == 0


@pytest.mark.parametrize("run", [
    lambda g: enumerate_baseline(g, EnumConfig(k=4, limit=-1)),
    lambda g: enumerate_induced_fast(g, 4, limit=-1),
    lambda g: enumerate_edges_fast(g, 4, limit=-1),
], ids=["baseline", "induced_fast", "edges_fast"])
def test_every_engine_rejects_a_negative_limit(run):
    with pytest.raises(ValidationError, match="limit must be >= 0"):
        run(cycle_graph(5))


@pytest.mark.parametrize("run", [
    lambda g, sink: enumerate_baseline(g, EnumConfig(k=5, mode="induced"), sink),
    lambda g, sink: enumerate_baseline(g, EnumConfig(k=5, mode="edge"), sink),
    lambda g, sink: enumerate_induced_fast(g, 5, sink),
    lambda g, sink: enumerate_edges_fast(g, 5, sink),
    lambda g, sink: enumerate_edges_fast(g, 5, sink, connectivity="any"),
], ids=["baseline-induced", "baseline-edge", "induced_fast", "edges_fast", "edges_fast-any"])
def test_every_engine_emits_frozensets(run):
    # the driver hands each state's solution to the sink as it is, so every
    # engine must store it frozen
    seen = []
    count = run(cycle_graph(5), lambda solution, ordinal: seen.append(solution))
    assert count == len(seen) > 1
    assert all(type(solution) is frozenset for solution in seen)


def test_brute_force_limit_is_exact():
    g = cycle_graph(4)
    assert brute_force_enumerate(g, EnumConfig(k=4, limit=0)) == []
    assert len(brute_force_enumerate(g, EnumConfig(k=4, limit=3))) == 3
    with pytest.raises(ValidationError, match="limit must be >= 0"):
        brute_force_enumerate(g, EnumConfig(k=4, limit=-1))


def test_config_validation():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        enumerate_baseline(g, EnumConfig(k=2))
    with pytest.raises(ValidationError):
        enumerate_baseline(g, EnumConfig(k=4, mode="vertices"))
    with pytest.raises(ValidationError):
        enumerate_baseline(g, EnumConfig(k=4, limit=-1))


def test_deterministic_emission_order():
    a, b = Collector(), Collector()
    enumerate_baseline(cycle_graph(4), EnumConfig(k=4), a)
    enumerate_baseline(cycle_graph(4), EnumConfig(k=4), b)
    assert a.solutions == b.solutions


# --- observing a run through its transition ----------------------------------

# (engine, graph, k, connectivity, limit, pruned) -> (states shown, solutions
# emitted, CRC of the shown states' sorted solutions followed by the stream).
# The pruned run is extremal's (6, 4) search in the non-connected variant.
OBSERVED_RUNS = {
    "induced-petersen-5": ((induced_fast, petersen_graph(), 5, "connected", None, False), (329, 569, 191686708)),
    "edge-k5-4": ((edges_fast, complete_graph(5), 4, "connected", None, False), (167, 343, 3048397124)),
    "edge-any-k5-4-limit": ((edges_fast, complete_graph(5), 4, "any", 200, False), (93, 200, 2081641728)),
    "edge-any-k6-4-pruned": ((edges_fast, complete_graph(6), 4, "any", None, True), (372, 1335, 148440824)),
}


@pytest.mark.parametrize("name", sorted(OBSERVED_RUNS))
def test_observer_shows_the_root_then_each_built_child(name):
    # the root first, then every state advance builds in depth-first
    # preorder, and no leaf: a skipped, extra or reordered state changes the CRC
    (engine, g, k, connectivity, limit, pruned), expected = OBSERVED_RUNS[name]
    shown, stream = [], []
    best_size = -1

    def sink(solution, ordinal):
        nonlocal best_size
        stream.append(sorted(solution))
        best_size = max(best_size, len(solution))

    def prune(state, left):
        return len(state.solution) + left < best_size

    count = observe(
        engine,
        g,
        k,
        lambda state, marks: shown.append(sorted(state.solution)),
        sink,
        connectivity=connectivity,
        limit=limit,
        prune=prune if pruned else None,
    )
    assert count == len(stream)
    assert (len(shown), len(stream), zlib.crc32(repr((shown, stream)).encode())) == expected


# --- fans: states whose children are all leaves ------------------------------

def toy_candidates(solution):
    """A toy tree over 0..6: up to three elements, each 1 to 3 above the one before."""
    if len(solution) == 3:
        return []
    low = max(solution) + 1 if solution else 0
    return list(range(low, min(low + 3, 7)))


def toy_run(fans, *, limit=None, sink=None, prune=None):
    """search over the toy tree, whose states are fans when `fans` and their children are all leaves.

    Returns (count, stream, iterations, max_depth, fan states built, prune calls by solution).
    """
    stream, built, asked = [], [], {}

    def state(solution):
        branch = toy_candidates(solution)
        fan = fans and bool(solution) and not any(toy_candidates(solution | {y}) for y in branch)
        return SimpleNamespace(solution=solution, branch=branch, dist=None if fan else {})

    def advance(parent, i, solution, stats):
        assert solution == parent.solution | {parent.branch[i]}
        child = state(solution)
        if not child.branch:
            return None
        if child.dist is None:
            built.append(child)
        return child

    def record(solution, ordinal):
        stream.append(solution)
        return None if sink is None else sink(solution, ordinal)

    def asking(st, left):
        asked.setdefault(st.solution, []).append(left)
        return prune(st, left)

    stats = SimpleNamespace(iterations=0, max_depth=0)
    count = search(
        state(frozenset()), advance, record, limit=limit, prune=None if prune is None else asking, stats=stats
    )
    return count, stream, stats.iterations, stats.max_depth, built, asked


def test_toy_tree_has_fans_of_one_and_of_several_children():
    count, stream, _, _, built, _ = toy_run(True)
    assert count == len(stream) == len(set(stream))
    sizes = {len(fan.branch) for fan in built}
    assert 1 in sizes and max(sizes) > 1


def test_a_fan_emits_the_stream_of_its_unfanned_tree():
    # search emits a fan's children itself, in branch order, right after the
    # fan, counting each as an iteration one level below it
    assert toy_run(True)[:4] == toy_run(False)[:4]


def test_a_limit_inside_a_fan_stops_where_the_unfanned_run_stops():
    total = toy_run(False)[0]
    for limit in range(total + 2):
        assert toy_run(True, limit=limit)[:4] == toy_run(False, limit=limit)[:4], limit


def test_a_sink_stop_inside_a_fan_stops_the_run():
    def stop_at(last):
        return lambda solution, ordinal: ordinal != last

    _, full, _, _, built, _ = toy_run(True)
    fan_children = {fan.solution | {y} for fan in built for y in fan.branch}
    for last in range(len(full)):
        fanned = toy_run(True, sink=stop_at(last))
        assert fanned[0] == last + 1 and fanned[1] == full[: last + 1]
        assert fanned[:4] == toy_run(False, sink=stop_at(last))[:4]
    assert fan_children < set(full)


def test_the_prune_is_asked_once_per_fan():
    # a fan is offered to the prune when it is built, never again before its
    # children; a monotone prune that cuts some fans gives the unfanned stream
    kept = toy_run(True, prune=lambda st, left: False)
    built, asked = kept[4], kept[5]
    assert built
    for fan in built:
        assert asked[fan.solution] == [len(fan.branch)]
    with_one = lambda st, left: 1 in st.solution  # every child of a cut state holds 1 too
    cut = toy_run(True, prune=with_one)
    assert cut[:4] == toy_run(False, prune=with_one)[:4]
    assert any(1 in fan.solution for fan in cut[4]) and any(1 not in fan.solution for fan in cut[4])
