"""Every graph on at most 7 vertices as a test corpus: the networkx graph atlas.

networkx ships the atlas, all 1,253 graphs with at most 7 vertices,
disconnected ones included, so the corpus needs no download; the package
itself stays stdlib-only. These runs compare what the engines emit and read
no state, so they check the engines independently of the state checks.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from girthscope import (
    INFINITE,
    Collector,
    EnumConfig,
    Graph,
    brute_force_enumerate,
    enumerate_baseline,
    enumerate_edges_fast,
    enumerate_induced_fast,
)
from girthscope.extremal import canonical_form
from girthscope.verify import VERIFY_MAX_M

nx = pytest.importorskip("networkx")

THRESHOLDS = (3, 4, 5, 6, 7, INFINITE)


def atlas_graphs() -> list[Graph]:
    """The atlas in its own order, each as a Graph with its edges sorted."""
    return [
        Graph(a.number_of_nodes(), sorted(tuple(sorted(e)) for e in a.edges())) for a in nx.graph_atlas_g()
    ]


ATLAS = atlas_graphs()


def solutions(engine, *args, **kwargs):
    sink = Collector()
    engine(*args, sink, **kwargs)
    return sink.solutions


def canonical(stream):
    """The stream in brute force's order; a repeated solution stays in it twice."""
    return sorted(stream, key=lambda s: (len(s), sorted(s)))


def test_atlas_is_every_graph_on_at_most_seven_vertices():
    # a changed atlas would change the corpus unnoticed; these are the
    # numbers of connected graphs on 1 to 7 vertices
    connected = Counter(
        a.number_of_nodes() for a in nx.graph_atlas_g() if a.number_of_nodes() and nx.is_connected(a)
    )
    assert [connected[n] for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert len(ATLAS) == 1253 and ATLAS[0].n == 0


def test_induced_engine_equals_brute_force_on_the_atlas():
    runs = 0
    for g in ATLAS[1:]:
        for k in THRESHOLDS:
            fast = solutions(enumerate_induced_fast, g, k)
            assert canonical(fast) == brute_force_enumerate(g, EnumConfig(k=k)), (g.n, g.edges, k)
            runs += 1
    assert runs == 7512


@pytest.mark.parametrize("connectivity", ["connected", "any"])
def test_edge_engine_equals_the_baseline_on_the_atlas(connectivity):
    # the non-connected variant branches in ascending id, as the baseline
    # does, so there the streams match in order
    runs = 0
    for g in ATLAS:
        if g.m > VERIFY_MAX_M:
            continue
        for k in THRESHOLDS:
            cfg = EnumConfig(k=k, mode="edge", connectivity=connectivity)
            fast = solutions(enumerate_edges_fast, g, k, connectivity=connectivity)
            base = solutions(enumerate_baseline, g, cfg)
            if connectivity == "any":
                assert fast == base, (g.n, g.edges, k)
            assert canonical(fast) == canonical(base) == brute_force_enumerate(g, cfg), (g.n, g.edges, k)
            runs += 1
    assert runs == 1638


def test_canonical_form_tells_the_atlas_graphs_apart():
    # the atlas holds one graph per isomorphism class, so its 1,253 graphs
    # must get 1,253 forms (with n, which tells the edgeless graphs apart),
    # and a relabelled copy must get its graph's form
    forms = set()
    for g in ATLAS:
        edges = [(u, v) for u, v, _ in g.edges]
        form = canonical_form(edges, g.n)
        forms.add((g.n, form))
        for seed in range(3):
            perm = random.Random(seed).sample(range(g.n), g.n)
            assert canonical_form([(perm[u], perm[v]) for u, v in edges], g.n) == form, (g.n, edges, seed)
    assert len(forms) == len(ATLAS) == 1253
