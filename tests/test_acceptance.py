"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every check is exact unless stated otherwise; the
speedup criterion asserts a conservative 10x lower bound rather than a
hardware-specific figure.
"""

from __future__ import annotations

import functools
import random

from girthscope import (
    Collector,
    EnumConfig,
    Graph,
    INFINITE,
    bench_compare,
    brute_force_enumerate,
    complete_graph,
    cycle_graph,
    densest_girth_graphs,
    enumerate_baseline,
    enumerate_edges_fast,
    enumerate_induced_fast,
    girth_unweighted,
    girth_weighted,
    induced_subgraph,
    path_graph,
    petersen_graph,
)
from girthscope import edges_fast, induced_fast
from girthscope.cli import EXIT_OK, run_cli
from girthscope.enum_core import search
from girthscope.girth import girth_of_adjacency
from girthscope.verify import all_connected_graphs, random_corpus
from _oracles import brute_girth
from _state_checks import (
    check_edge_state,
    check_induced_state,
    filter_old_candidates,
    induced_dist,
    inner_candidates,
    observe,
    outer_candidates,
)

THRESHOLDS = (3, 4, 5, 6, INFINITE)


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num}: FAIL ({description})")
                raise
            print(f"\ncriterion {num}: PASS ({description})")

        return run

    return wrap


def corpus_induced():
    return all_connected_graphs(5) + random_corpus(100, 6, seed=20240)


def corpus_edge():
    graphs = [g for g in corpus_induced() if g.m <= 7]
    graphs += [cycle_graph(4), complete_graph(4), complete_graph(3)]
    return graphs


@criterion(1, "induced oracle equivalence on exhaustive n<=5 and 100 random n<=6 graphs")
def test_criterion_1_oracle_equivalence_induced():
    for g in corpus_induced():
        for k in THRESHOLDS:
            cfg = EnumConfig(k=k)
            expected = set(brute_force_enumerate(g, cfg))
            fast, base = Collector(), Collector()
            enumerate_induced_fast(g, k, fast)
            enumerate_baseline(g, cfg, base)
            assert set(fast.solutions) == expected, (g.edges, k)
            assert set(base.solutions) == expected, (g.edges, k)


@criterion(2, "edge oracle equivalence on the m<=7 corpus plus C4/K4/K3 fixtures")
def test_criterion_2_oracle_equivalence_edge():
    for g in corpus_edge():
        for k in THRESHOLDS:
            cfg = EnumConfig(k=k, mode="edge")
            expected = set(brute_force_enumerate(g, cfg))
            fast, base = Collector(), Collector()
            enumerate_edges_fast(g, k, fast)
            enumerate_baseline(g, cfg, base)
            assert set(fast.solutions) == expected, (g.edges, k)
            assert set(base.solutions) == expected, (g.edges, k)


@criterion(3, "frozen fixture counts")
def test_criterion_3_fixture_counts():
    p3, k3, c4 = path_graph(3), complete_graph(3), cycle_graph(4)
    for runner in (
        lambda g, k, mode: enumerate_baseline(g, EnumConfig(k=k, mode=mode)),
        lambda g, k, mode: (enumerate_induced_fast if mode == "induced" else enumerate_edges_fast)(g, k),
    ):
        assert runner(p3, INFINITE, "induced") == 7
        assert runner(k3, 3, "induced") == 8
        assert runner(k3, 4, "induced") == 7
        assert runner(k3, 3, "edge") == 8
        assert runner(k3, 4, "edge") == 7
        assert runner(c4, 4, "induced") == 14
        assert runner(c4, 5, "induced") == 13


@criterion(4, "incremental state tables equal from-scratch oracles (C4, K4, Petersen prefix)")
def test_criterion_4_state_fidelity():
    fixtures = [
        (cycle_graph(4), (4, 5), None),
        (complete_graph(4), (3, 4), None),
        (petersen_graph(), (5, 6), 10_000),
    ]
    for g, ks, limit in fixtures:
        for k in ks:
            observe(induced_fast, g, k, lambda st, marks: check_induced_state(g, k, st, marks), limit=limit)
            observe(edges_fast, g, k, lambda st, marks: check_edge_state(g, k, st, marks), limit=limit)


@criterion(5, "per-transition invariants: inner-candidate bound, inner-step stability, O(1) girth test")
def test_criterion_5_transition_invariants():
    # inner candidates never outnumber solution vertices; an inner step leaves
    # outer candidates untouched and strictly shrinks the inner set
    def checking_advance(state, i, solution, stats=None):
        # the child may draw on the candidates from position i on: e and the rest
        pre_inner = frozenset(state.branch[i : state.n_inner])
        pre_outer = frozenset(state.branch[max(i, state.n_inner) :])
        nxt = edges_fast.advance(state, i, solution, stats)
        inner, outer = (inner_candidates(nxt), outer_candidates(nxt)) if nxt is not None else (set(), set())
        assert len(inner) <= len({x for e in solution for x in g.endpoints(e)})
        if i < state.n_inner:
            assert outer == pre_outer
            assert inner < pre_inner
        checked.append(state.branch[i])
        if nxt is not None and nxt.dist is None:  # a fan: search emits its children without advance
            fan_children.update(solution | {y} for y in nxt.branch)
        return nxt

    def count_fanned(solution, ordinal):
        nonlocal fanned
        fanned += solution in fan_children

    for g, ks in [(cycle_graph(4), (4,)), (complete_graph(4), (3, 4)), (petersen_graph(), (5,))]:
        for k in ks:
            checked: list[int] = []
            fan_children: set[frozenset[int]] = set()
            fanned = 0
            count = search(
                edges_fast.initial_state(g, k),
                checking_advance,
                count_fanned,
                include_empty=False,
                limit=20_000,
            )
            assert fanned > 0
            assert len(checked) + fanned == count == enumerate_edges_fast(g, k, include_empty=False, limit=20_000)

    # the induced candidate filter agrees with a from-scratch girth check on every
    # (candidate, added-vertex) pair the filter ever decides
    def check_filter(st, marks):
        if not st.solution:  # the root asks no filter
            return
        for v in st.cand:
            keep = filter_old_candidates(st, v)
            for u in st.cand - {v}:
                fresh = girth_unweighted(induced_subgraph(st.g, st.solution | {u, v})) >= st.k
                attached = induced_dist(st, u, v) != INFINITE
                assert (u in keep) == (fresh and attached), (st.solution, u, v)

    for g, ks, limit in [
        (cycle_graph(4), (4, 5), None),
        (complete_graph(4), (3, 4), None),
        (petersen_graph(), (5,), 300),
    ]:
        for k in ks:
            observe(induced_fast, g, k, check_filter, limit=limit)


@criterion(6, "extremal edge counts (4,4)->4 (5,4)->6 (5,5)->5 (6,4)->9")
def test_criterion_6_extremal_values():
    for n, k, expected in [(4, 4, 4), (5, 4, 6), (5, 5, 5), (6, 4, 9)]:
        result = densest_girth_graphs(n, k)
        assert result.complete
        assert result.max_edges == expected, (n, k, result.max_edges)
        brute = brute_force_enumerate(complete_graph(n), EnumConfig(k=k, mode="edge"))
        assert max(len(s) for s in brute) == expected
        for witness in result.witnesses:
            wg = Graph(n, list(witness))
            assert len(witness) == expected and girth_unweighted(wg) >= k


@criterion(7, "fast edge enumeration at least 10x faster than brute force on K7, k=4")
def test_criterion_7_speedup():
    report = bench_compare(complete_graph(7), 4, mode="edge", graph_desc="K_7")
    print(
        f"\n  K_7 k=4 edge: fast {report.fast_count} in {report.fast_seconds:.2f}s, "
        f"brute {report.brute_count} in {report.brute_seconds:.2f}s, "
        f"speedup {report.speedup:.1f}x"
    )
    assert report.ok, "engine counts disagree"
    assert report.speedup >= 10.0, f"speedup {report.speedup:.1f}x below the 10x bound"


def criterion_8_graphs():
    rng = random.Random(9090)
    graphs = [cycle_graph(n) for n in range(3, 10)]
    graphs += [complete_graph(n) for n in (2, 3, 4, 5)]
    graphs += [path_graph(n) for n in (1, 4, 10)]
    graphs.append(petersen_graph())
    for _ in range(40):
        n = rng.randint(1, 10)
        p = 0.25 if n > 8 else rng.choice([0.3, 0.5])
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    return graphs


@criterion(8, "girth oracles agree with brute-force shortest cycles")
def test_criterion_8_girth_oracles():
    for g in criterion_8_graphs():
        assert girth_unweighted(g) == brute_girth(g), g.edges
        assert girth_weighted(g) == girth_unweighted(g), g.edges  # unit weights agree
    # hand-computable weighted cycles: the lone cycle's weight is the girth
    assert girth_weighted(cycle_graph(4, [1, 1, 1, 5])) == 8
    assert girth_weighted(cycle_graph(3, [1, 2, 3])) == 6
    assert girth_weighted(cycle_graph(5, [2, 3, 4, 5, 6])) == 20


def test_bounded_girth_tells_whether_the_girth_reaches_k():
    # brute force asks girth_of_adjacency only whether the girth reaches k:
    # starting its bound at k must give the same verdict as the exact girth,
    # and the exact girth itself whenever that is below k
    for g in criterion_8_graphs():
        adj = [g.neighbors(v) for v in range(g.n)]
        girth = girth_unweighted(g)
        for k in (3, 4, 5, 6, 7, INFINITE):
            bounded = girth_of_adjacency(adj, k)
            assert (bounded >= k) == (girth >= k), (g.edges, k)
            assert bounded == min(girth, k), (g.edges, k)


@criterion(9, "byte-identical output across repeated enum invocations")
def test_criterion_9_determinism(tmp_path):
    graph = tmp_path / "petersen.txt"
    g = petersen_graph()
    graph.write_text("\n".join(f"{u} {v}" for u, v, _ in g.edges) + "\n")
    for args in (
        ["enum", "--graph", str(graph), "-k", "5", "--mode", "induced"],
        ["enum", "--graph", str(graph), "-k", "5", "--mode", "edge", "--limit", "2000"],
        ["enum", "--graph", str(graph), "-k", "6", "--mode", "induced", "--connectivity", "any"],  # the baseline
    ):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.out"
            assert run_cli(args + ["--output", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0]
