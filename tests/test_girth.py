"""Girth computations and the pair/second distance oracles."""

from __future__ import annotations

import random

import pytest

from girthscope import (
    Graph,
    INFINITE,
    complete_graph,
    cycle_graph,
    girth_unweighted,
    girth_weighted,
    path_graph,
    petersen_graph,
)
from girthscope.verify import random_graph
from _oracles import (
    brute_girth,
    fw_pair_distance,
    min_cycle_through_pair,
    min_cycle_through_vertex,
    pair_distance,
    path_second_distance,
    second_distance,
)


def structured_corpus():
    graphs = [complete_graph(n) for n in (2, 3, 4, 5)]
    graphs += [cycle_graph(n) for n in range(3, 10)]
    graphs += [path_graph(n) for n in (1, 2, 5, 10)]
    graphs.append(petersen_graph())
    graphs.append(Graph(0, []))
    return graphs


def test_girth_examples():
    assert girth_unweighted(cycle_graph(5)) == 5
    assert girth_unweighted(complete_graph(4)) == 3
    assert girth_unweighted(path_graph(6)) == INFINITE
    assert girth_unweighted(Graph(4, [(0, 1), (1, 2), (0, 3)])) == INFINITE  # a tree
    assert girth_unweighted(petersen_graph()) == 5


def test_girth_matches_brute_force_on_corpus():
    rng = random.Random(17)
    graphs = structured_corpus()
    graphs += [random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6])) for _ in range(60)]
    graphs += [random_graph(rng, rng.randint(9, 12), 0.2) for _ in range(12)]
    for g in graphs:
        assert girth_unweighted(g) == brute_girth(g), g.edges


def test_girth_matches_networkx():
    # networkx is an independent oracle, used by the tests only
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    graphs = structured_corpus()
    graphs += [random_graph(rng, rng.randint(1, 30), rng.choice([0.03, 0.08, 0.15, 0.4])) for _ in range(120)]
    acyclic = 0
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.endpoints(e) for e in range(g.m))
        expected = nx.girth(h)
        acyclic += expected == INFINITE
        assert girth_unweighted(g) == expected, g.edges
    assert acyclic >= 10  # forests, whose girth is INFINITE, are covered too


def test_weighted_girth_examples():
    tri = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert girth_weighted(tri) == 6
    assert girth_weighted(cycle_graph(4)) == girth_unweighted(cycle_graph(4)) == 4
    assert girth_weighted(cycle_graph(4, [1, 1, 1, 5])) == 8


def test_weighted_girth_agrees_on_unit_weights():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        assert girth_weighted(g) == girth_unweighted(g)


def test_weighted_girth_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), 0.5, weighted=True)
        assert girth_weighted(g) == brute_girth(g), g.edges


def test_weighted_girth_does_not_count_single_edges_twice():
    # one edge, no cycle: a naive all-pairs formulation would report weight 2
    assert girth_weighted(Graph(2, [(0, 1, 2)])) == INFINITE
    assert girth_weighted(path_graph(4)) == INFINITE


def test_pair_distance_examples():
    c4 = cycle_graph(4)
    assert pair_distance(c4, {0}, 1, 3) == 2
    assert pair_distance(c4, {0, 1}, 2, 3) == 1
    assert pair_distance(path_graph(3), set(), 0, 2) == INFINITE


def test_pair_distance_requires_distinct_vertices():
    with pytest.raises(ValueError):
        pair_distance(cycle_graph(4), set(), 1, 1)


def test_pair_distance_matches_floyd_warshall():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        verts = list(range(g.n))
        u, w = rng.sample(verts, 2)
        members = {v for v in verts if v not in (u, w) and rng.random() < 0.6}
        assert pair_distance(g, members, u, w) == fw_pair_distance(g, members, u, w)


def test_second_distance_examples():
    c4 = cycle_graph(4)
    assert second_distance(c4, {0}, 1, 3) == INFINITE
    assert second_distance(c4, {0, 1}, 2, 3) == 3
    assert second_distance(complete_graph(3), set(), 0, 1) == INFINITE


def test_second_distance_preconditions():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError):
        second_distance(c4, {0}, 1, 1)
    with pytest.raises(ValueError):
        second_distance(c4, {0}, 0, 2)


def _random_query(rng, max_n=7):
    g = random_graph(rng, rng.randint(2, max_n), rng.choice([0.4, 0.6, 0.8]))
    u, w = rng.sample(range(g.n), 2)
    members = {v for v in range(g.n) if v not in (u, w) and rng.random() < 0.6}
    return g, members, u, w


def test_second_distance_matches_path_enumeration():
    rng = random.Random(31)
    for _ in range(120):
        g, members, u, w = _random_query(rng)
        assert second_distance(g, members, u, w) == path_second_distance(g, members, u, w), (
            g.edges,
            members,
            u,
            w,
        )


def test_second_distance_is_tie_break_independent():
    rng = random.Random(37)
    for _ in range(120):
        g, members, u, w = _random_query(rng)
        asc = path_second_distance(g, members, u, w, descending=False)
        desc = path_second_distance(g, members, u, w, descending=True)
        assert asc == desc
        assert second_distance(g, members, u, w) == asc


def test_pair_distance_never_exceeds_second_distance():
    rng = random.Random(41)
    for _ in range(100):
        g, members, u, w = _random_query(rng)
        assert pair_distance(g, members, u, w) <= second_distance(g, members, u, w)


def test_cycle_witness_when_both_distances_finite():
    # The shortest and second-shortest routes differ in their first edge, so
    # their union carries a cycle through u no longer than their sum. A cycle
    # through BOTH endpoints need not exist: with edges (0,1) (0,2) (0,3)
    # (1,2), members {0,1}, u=2, w=3, both distances are finite (2 and 3) yet
    # every 2-3 path crosses the cut vertex 0.
    rng = random.Random(43)
    seen = 0
    pair_cycles = 0
    for _ in range(300):
        g, members, u, w = _random_query(rng, max_n=6)
        d = pair_distance(g, members, u, w)
        s = second_distance(g, members, u, w)
        if d == INFINITE or s == INFINITE:
            continue
        seen += 1
        assert min_cycle_through_vertex(g, members, u, w) <= d + s
        if min_cycle_through_pair(g, members, u, w) != INFINITE:
            pair_cycles += 1
    assert seen > 30 and pair_cycles > 10
