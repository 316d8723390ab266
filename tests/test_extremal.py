"""Weighted / non-connected variants and the densest girth-k search."""

from __future__ import annotations

import zlib
from collections import Counter
from types import SimpleNamespace

import pytest

from girthscope import (
    Collector,
    EnumConfig,
    Graph,
    INFINITE,
    ValidationError,
    brute_force_enumerate,
    complete_graph,
    densest_girth_graphs,
    enumerate_baseline,
    enumerate_edges_fast,
    format_extremal_report,
    girth_unweighted,
    path_graph,
)
from girthscope import edges_fast, extremal
from girthscope.edges_fast import EdgeRunStats
from girthscope.extremal import reduce_up_to_isomorphism
from girthscope.verify import all_connected_graphs, random_corpus
from _oracles import brute_reduce_up_to_isomorphism


def weighted_triangle(w1, w2, w3):
    return Graph(3, [(0, 1, w1), (1, 2, w2), (0, 2, w3)])


def test_variant_examples():
    assert enumerate_baseline(weighted_triangle(1, 1, 1), EnumConfig(k=4)) == 7
    assert enumerate_baseline(weighted_triangle(2, 2, 2), EnumConfig(k=6)) == 8
    assert enumerate_baseline(path_graph(3), EnumConfig(k=3, connectivity="any")) == 8


def test_doubled_weights_at_double_threshold_match_unweighted():
    # every cycle weighs twice its length, so the weighted girth test at 2k
    # is the unweighted one at k, and the stream must be the same
    corpus = random_corpus(12, 6, seed=808)
    for g in corpus:
        gw = Graph(g.n, [(u, v, 2) for u, v, _ in g.edges])
        assert gw.weighted == (g.m > 0)
        for k in (3, 4, 5):
            for mode in ("induced", "edge"):
                plain, weighted = Collector(), Collector()
                enumerate_baseline(g, EnumConfig(k=k, mode=mode), plain)
                enumerate_baseline(gw, EnumConfig(k=2 * k, mode=mode), weighted)
                assert plain.solutions == weighted.solutions


def test_weighted_brute_equivalence():
    corpus = random_corpus(10, 5, seed=809, weighted=True)
    for g in corpus:
        for k in (3, 5, 7):
            for mode in ("induced", "edge"):
                cfg = EnumConfig(k=k, mode=mode)
                got = Collector()
                enumerate_baseline(g, cfg, got)
                assert set(got.solutions) == set(brute_force_enumerate(g, cfg))


def test_non_connected_equals_brute_without_connectivity():
    corpus = random_corpus(12, 6, seed=810, max_m=7)
    for g in corpus:
        for k in (3, 4, INFINITE):
            for mode in ("induced", "edge"):
                cfg = EnumConfig(k=k, mode=mode, connectivity="any")
                got = Collector()
                enumerate_baseline(g, cfg, got)
                assert set(got.solutions) == set(brute_force_enumerate(g, cfg))


def brute_max_edges(n, k, connected_only):
    g = complete_graph(n)
    cfg = EnumConfig(k=k, mode="edge", connectivity="connected" if connected_only else "any")
    return max(len(s) for s in brute_force_enumerate(g, cfg))


@pytest.mark.parametrize("n,k,expected", [(4, 4, 4), (5, 4, 6), (5, 5, 5), (6, 4, 9)])
def test_densest_examples(n, k, expected):
    result = densest_girth_graphs(n, k)
    assert result.max_edges == expected
    assert result.complete
    assert brute_max_edges(n, k, connected_only=True) == expected
    for witness in result.witnesses:
        assert len(witness) == expected
        wg = Graph(n, list(witness))
        assert girth_unweighted(wg) >= k


def test_densest_pruned_matches_unpruned_witness_sets():
    for n in (4, 5, 6):
        for k in (4, 5, 6):
            result = densest_girth_graphs(n, k)
            best, witnesses = -1, set()

            def sink(sol, ordinal):
                nonlocal best, witnesses
                if len(sol) > best:
                    best, witnesses = len(sol), {sol}
                elif len(sol) == best:
                    witnesses.add(sol)

            g = complete_graph(n)
            enumerate_edges_fast(g, k, sink)
            assert result.max_edges == best
            assert {tuple(g.endpoints(e) for e in sorted(w)) for w in witnesses} == set(result.witnesses)


def test_densest_witness_counts():
    # labeled extremal graphs: 3 four-cycles on 4 vertices, 10 K_{2,3} on 5,
    # 12 five-cycles on 5, 10 K_{3,3} on 6
    assert len(densest_girth_graphs(4, 4).witnesses) == 3
    assert len(densest_girth_graphs(5, 4).witnesses) == 10
    assert len(densest_girth_graphs(5, 5).witnesses) == 12
    assert len(densest_girth_graphs(6, 4).witnesses) == 10


def test_densest_spanning_trees_at_k_infinite():
    result = densest_girth_graphs(5, INFINITE)
    assert result.max_edges == 4
    assert len(result.witnesses) == 125  # labeled trees on 5 vertices


def test_densest_isomorphism_reduction():
    result = densest_girth_graphs(5, 5, reduce_isomorphic=True)
    assert len(result.witnesses) == 1  # every witness is a relabeled 5-cycle
    result = densest_girth_graphs(5, 4, reduce_isomorphic=True)
    assert len(result.witnesses) == 1  # likewise K_{2,3}
    # K10 and K_{4,4}: every vertex of K_n, and every vertex of a side of
    # K_{a,b}, is a twin of the others, so their forms stay fast past n = 8
    result = densest_girth_graphs(10, 3, reduce_isomorphic=True)
    assert (result.max_edges, len(result.witnesses)) == (45, 1)
    result = densest_girth_graphs(8, 4, reduce_isomorphic=True)
    assert (result.max_edges, len(result.witnesses)) == (16, 1)


def test_densest_non_connected_variant():
    got = densest_girth_graphs(5, 4, connected_only=False)
    assert got.max_edges == 4 + 2 == brute_max_edges(5, 4, connected_only=False)
    assert not got.connected_only


def baseline_any_search(n, k):
    """The non-connected search as it ran on the baseline engine: (max_edges, explored, witnesses)."""
    g = complete_graph(n)
    best, witnesses = -1, []

    def sink(sol, ordinal):
        nonlocal best, witnesses
        if len(sol) > best:
            best, witnesses = len(sol), [sol]
        elif len(sol) == best:
            witnesses.append(sol)

    def prune_any(state, left):
        return len(state.solution) + left < best

    explored = enumerate_baseline(g, EnumConfig(k=k, mode="edge", connectivity="any"), sink, prune=prune_any)
    return best, explored, sorted(tuple(g.endpoints(e) for e in sorted(w)) for w in witnesses)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_non_connected_search_explores_the_baseline_tree(n, k):
    got = densest_girth_graphs(n, k, connected_only=False)
    assert (got.max_edges, got.explored, got.witnesses) == baseline_any_search(n, k)


# densest n-vertex graphs, n = 1..7: triangle-free ones have floor(n^2/4)
# edges (Mantel); girth >= 5 ones follow OEIS A006856
MANTEL = [n * n // 4 for n in range(1, 8)]
A006856 = [0, 1, 2, 3, 5, 6, 8]


@pytest.mark.parametrize("n", range(1, 8))
def test_non_connected_maxima_match_known_values(n):
    assert densest_girth_graphs(n, 4, connected_only=False).max_edges == MANTEL[n - 1]
    assert densest_girth_graphs(n, 5, connected_only=False).max_edges == A006856[n - 1]


def fresh_pairs_by_scan(state, n, edges):
    """Unmarked pairs of vertices outside V(S), by scanning the root marks as the prune once did."""
    d = state.dist
    if d is None:  # a state without a table: V(S) from its solution
        d = {x for e in state.solution for x in edges[e][:2]}
    fresh = n - len(d)
    pairs = fresh * (fresh - 1) // 2
    for eid in range(state.first + 1):
        u, v, _ = edges[eid]
        if u not in d and v not in d:
            pairs -= 1
    return pairs


@pytest.mark.parametrize("n", range(2, 8))  # K_1 has no edge, so nothing is asked
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_connected_prune_counts_fresh_pairs_as_the_root_mark_scan(n, k, monkeypatch):
    # the prune counts the unmarked fresh pairs as C(n - |V(S)| - min V(S), 2);
    # on every state it is asked about, that count must equal the scan's, and
    # its verdict must be the one the scan's count gives
    edges = complete_graph(n).edges
    engine = extremal.enumerate_edges_fast
    asked = 0

    def checked_engine(g, threshold, sink=None, *, prune, **kwargs):
        best = -1

        def tracking_sink(solution, ordinal):
            nonlocal best
            best = max(best, len(solution))
            return sink(solution, ordinal)

        def checked_prune(state, left):
            nonlocal asked
            asked += 1
            d = state.dist
            if d is None:
                d = {x for e in state.solution for x in edges[e][:2]}
            fresh = n - len(d) - (min(d) if d else 0)
            scanned = fresh_pairs_by_scan(state, n, edges)
            assert fresh * (fresh - 1) // 2 == scanned
            live = len(state.solution) + left
            verdict = prune(state, left)
            assert verdict == (live + scanned < best)
            return verdict

        return engine(g, threshold, tracking_sink, prune=checked_prune, **kwargs)

    monkeypatch.setattr(extremal, "enumerate_edges_fast", checked_engine)
    densest_girth_graphs(n, k)
    assert asked > 0


# connected search on K_n: (max_edges, explored, witness count, crc32 of the
# sorted witness list's repr)
CONNECTED_SEARCHES = {
    (5, 4): (6, 207, 10, 2482787208),
    (6, 4): (9, 1388, 10, 3102815179),
    (6, 5): (6, 2508, 420, 1629740444),
    (7, 4): (12, 15798, 35, 1798344752),
    (7, 5): (8, 31853, 1260, 532820118),
    (7, 6): (7, 28394, 2880, 4063514657),
}


@pytest.mark.parametrize("n,k", sorted(CONNECTED_SEARCHES))
def test_connected_search_explores_a_fixed_tree(n, k):
    r = densest_girth_graphs(n, k)
    got = (r.max_edges, r.explored, len(r.witnesses), zlib.crc32(repr(r.witnesses).encode()))
    assert got == CONNECTED_SEARCHES[n, k]


def emitted_stream(n, k, connected_only, monkeypatch):
    """(result, crc32 of every solution the engine emitted, in order, as sorted edge ids)."""
    engine = extremal.enumerate_edges_fast
    crc = 0

    def recording_engine(g, threshold, sink=None, **kwargs):
        def recording_sink(solution, ordinal):
            nonlocal crc
            crc = zlib.crc32(repr(sorted(solution)).encode(), crc)
            return sink(solution, ordinal)

        return engine(g, threshold, recording_sink, **kwargs)

    monkeypatch.setattr(extremal, "enumerate_edges_fast", recording_engine)
    return densest_girth_graphs(n, k, connected_only=connected_only), crc


# (n, k, connected_only): (explored, crc32 of the ordered emitted stream),
# recorded before cut states emitted their remaining children unbuilt
PRUNED_STREAMS = {
    (6, 4, True): (1388, 564234690),
    (7, 5, True): (31853, 2583043381),
    (6, 4, False): (1335, 2560867752),
    (6, 5, False): (2971, 1081768919),
}


@pytest.mark.parametrize("n,k,connected_only", sorted(PRUNED_STREAMS))
def test_pruned_search_emits_a_fixed_stream(n, k, connected_only, monkeypatch):
    result, crc = emitted_stream(n, k, connected_only, monkeypatch)
    assert (result.explored, crc) == PRUNED_STREAMS[n, k, connected_only]


@pytest.mark.parametrize(
    "n,k,connected_only,expected",
    [(7, 5, True, (8, 31853, 1260, 532820118)), (6, 4, False, (9, 1335, 10, 3102815179))],
)
def test_cut_states_emit_their_remaining_children_unbuilt(n, k, connected_only, expected, monkeypatch):
    # once a state's prune cuts on the candidates it has left, its remaining
    # children are emitted, not built: at most 0.7 of the emitted states are
    # built, where building every child would give explored - 1. iterations
    # still counts every emitted state, the picks only the children advance
    # is asked for and the one child of each fan, counted when the fan is
    # built, whether or not the prune then cuts it.
    built = fans = 0
    stats = EdgeRunStats()
    engine = extremal.enumerate_edges_fast

    def counting(step):
        def counted(*args):
            nonlocal built, fans
            built += 1
            child = step(*args)
            if child is not None and child.dist is None:
                assert len(child.branch) == 1
                fans += 1
            return child

        return counted

    monkeypatch.setattr(edges_fast, "advance", counting(edges_fast.advance))
    monkeypatch.setattr(edges_fast, "advance_any", counting(edges_fast.advance_any))
    monkeypatch.setattr(extremal, "enumerate_edges_fast", lambda *args, **kwargs: engine(*args, stats=stats, **kwargs))
    r = densest_girth_graphs(n, k, connected_only=connected_only)
    assert (r.max_edges, r.explored, len(r.witnesses), zlib.crc32(repr(r.witnesses).encode())) == expected
    assert built <= 0.7 * r.explored
    assert stats.iterations == r.explored
    assert fans > 0
    assert stats.inner_picks + stats.outer_picks == built + fans


def prune_bound(solution, first, left, n, edges, connected):
    """The extremal prune's reachable size, from the `left` live candidates and, if connected, the root-mark scan."""
    live = len(solution) + left
    if not connected:
        return live
    state = SimpleNamespace(dist=dict.fromkeys(x for e in solution for x in edges[e][:2]), first=first)
    return live + fresh_pairs_by_scan(state, n, edges)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("connected", [True, False])
def test_extremal_prune_bounds_are_monotone(n, k, connected, monkeypatch):
    # search emits a cut state's remaining children unbuilt, which is sound
    # only if no child's bound exceeds its parent's on the candidates the
    # parent has left when the child is built; walk the unpruned tree. A
    # fan's children, which search emits without advance, are checked
    # against the fan the same way.
    g = complete_graph(n)
    name = "advance" if connected else "advance_any"
    step = getattr(edges_fast, name)
    children = 0

    def checked_step(state, i, solution, stats=None):
        nonlocal children
        children += 1
        parent_bound = prune_bound(state.solution, state.first, len(state.branch) - i, n, g.edges, connected)
        child = step(state, i, solution, stats)
        if child is not None:
            left, first = len(child.branch), child.first
        else:  # a leaf, which is not built, has no candidate left
            left, first = 0, state.first if state.solution else state.branch[i]
        assert prune_bound(solution, first, left, n, g.edges, connected) <= parent_bound
        if child is not None and child.dist is None:
            for j, y in enumerate(child.branch):
                children += 1
                fan_bound = prune_bound(solution, first, len(child.branch) - j, n, g.edges, connected)
                assert prune_bound(solution | {y}, first, 0, n, g.edges, connected) <= fan_bound
        return child

    monkeypatch.setattr(edges_fast, name, checked_step)
    explored = enumerate_edges_fast(g, k, connectivity="connected" if connected else "any")
    assert children == explored - 1


def test_densest_budget_flags_incomplete():
    result = densest_girth_graphs(6, 4, limit=50)
    assert not result.complete
    assert result.explored == 50
    assert densest_girth_graphs(6, 4, limit=10**9).complete


@pytest.mark.parametrize("connected_only", [True, False])
def test_densest_limit_is_the_engines_limit(connected_only):
    with pytest.raises(ValidationError, match="limit must be >= 0"):
        densest_girth_graphs(5, 4, limit=-1, connected_only=connected_only)
    result = densest_girth_graphs(5, 4, limit=0, connected_only=connected_only)
    assert result.explored == 0 and not result.complete


def test_densest_trivial_sizes():
    r = densest_girth_graphs(1, 3)
    assert r.max_edges == 0 and r.witnesses == [()]
    r = densest_girth_graphs(2, 3)
    assert r.max_edges == 1


def test_report_format():
    text = format_extremal_report(densest_girth_graphs(5, 5))
    lines = text.splitlines()
    assert "n=5" in lines and "k=5" in lines and "max_edges=5" in lines
    assert sum(1 for line in lines if line.startswith("witness: ")) == 12
    assert "complete=true" in lines
    inf_text = format_extremal_report(densest_girth_graphs(3, INFINITE))
    assert "k=inf" in inf_text.splitlines()


def test_reduce_up_to_isomorphism_direct():
    square = ((0, 1), (1, 2), (2, 3), (0, 3))
    relabeled = ((0, 2), (1, 2), (1, 3), (0, 3))
    kept = reduce_up_to_isomorphism([square, relabeled], 4)
    assert kept == [square]


def test_connected_graph_corpus_has_one_graph_per_class():
    # connected graphs on n unlabelled vertices (OEIS A001349), the atlas's
    # connected counts that test_atlas pins
    counts = Counter(g.n for g in all_connected_graphs(6))
    assert [counts[n] for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


# every densest search with n <= 7 and k = 3-7 but (7,5) and (7,6), where the
# n! oracle alone takes 4-15 s per connectivity
ORACLE_SEARCHES = [(n, k) for n in range(1, 8) for k in range(3, 8) if (n, k) not in ((7, 5), (7, 6))]


def test_reduction_keeps_what_the_permutation_oracle_keeps():
    # the two connectivities often find the same witnesses (trees, cycles),
    # and the oracle's answer on a list is asked once
    oracle = {}
    for n, k in ORACLE_SEARCHES:
        for connected_only in (True, False):
            labelled = densest_girth_graphs(n, k, connected_only=connected_only).witnesses
            if (n, *labelled) not in oracle:
                oracle[n, *labelled] = brute_reduce_up_to_isomorphism(labelled, n)
            assert reduce_up_to_isomorphism(labelled, n) == oracle[n, *labelled], (n, k, connected_only)
