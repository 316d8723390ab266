"""Property-based differential tests: fast = baseline = brute force on random graphs.

Each example draws a random simple graph and a girth threshold, runs every
engine that covers the mode (edge mode with and without connectivity),
compares the solution sets, and checks every live state of the fast engine
against its from-scratch oracle. Examples are drawn from pinned seeds and
no example database is written, so runs are reproducible.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, seed, settings, strategies as st

from girthscope import (
    INFINITE,
    Collector,
    EnumConfig,
    Graph,
    brute_force_enumerate,
    enumerate_baseline,
    enumerate_edges_fast,
)
from girthscope import edges_fast, induced_fast
from _state_checks import check_edge_state, check_induced_state, observe

# Each test draws its examples from a pinned seed, so that editing a test's
# text leaves the graphs it runs on as they are; derandomize alone would
# derive the seed from that text.
EXAMPLE_SEEDS = {
    "test_induced_engines_agree": 0x98b1dcd8093241bb0ed5e95a8cd64e818199482b3373aec6c188739a0000012639bde699d193d40891c188fd3e62aca5,
    "test_edge_engines_agree": 0x957235aec53e0bd5e8995a6477b5796ee4cff6666af9d26f9286859c24aaadf2e6de03ddae2cd4cace5198229906d96e,
    "test_edge_engines_agree_without_connectivity": 0x9f373766c955013990f6ab4fcf483b3898fd87144d4795b920a0f03497907c34940bdf65b5d4b49f2527e1a9e309bb2c,
    "test_root_marks_are_the_ids_below_first[edge]": 0xf2c23500221e5331632fd6cacdc13ef90420401bd3ca7516c7814d97f2610e6d24e94480b2b765652ac84c183c8b6a2d,
    "test_root_marks_are_the_ids_below_first[edge-any]": 0xd663b30d11e4af482759270029f785e4a0dcda275bd135f9c195b178436a3eeadb27a2b93f4e5eb4c0f88c14c21e7373,
    "test_root_marks_are_the_ids_below_first[induced]": 0x5934a8f232c785cc75d2594fa5e87b6c900ff38afa2de30e10ec32c2d406bda8ab072d05a1c8a39a31e5c5932727dcd9,
}
THRESHOLDS = st.sampled_from([3, 4, 5, 6, 7, INFINITE])
# brute force in edge mode filters 2^m subsets; this keeps one example small
EDGE_MODE_MAX_M = 10


@st.composite
def simple_graphs(draw, max_n=7, max_m=None):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)) if pairs else []
    return Graph(n, sorted(picked))


def solutions(engine, *args, **kwargs):
    sink = Collector()
    engine(*args, sink, **kwargs)
    return sink.solutions


@seed(EXAMPLE_SEEDS["test_induced_engines_agree"])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(simple_graphs(), THRESHOLDS)
def test_induced_engines_agree(g, k):
    fast = solutions(observe, induced_fast, g, k, lambda state, marks: check_induced_state(g, k, state, marks))
    base = solutions(enumerate_baseline, g, EnumConfig(k=k))
    assert len(set(fast)) == len(fast)
    assert set(fast) == set(base) == set(brute_force_enumerate(g, EnumConfig(k=k)))
    assert fast == base  # both branch in ascending id order, so the streams match


@seed(EXAMPLE_SEEDS["test_edge_engines_agree"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(simple_graphs(max_m=EDGE_MODE_MAX_M), THRESHOLDS)
def test_edge_engines_agree(g, k):
    cfg = EnumConfig(k=k, mode="edge")
    fast = solutions(observe, edges_fast, g, k, lambda state, marks: check_edge_state(g, k, state, marks))
    base = solutions(enumerate_baseline, g, cfg)
    assert len(set(fast)) == len(fast)
    assert set(fast) == set(base) == set(brute_force_enumerate(g, cfg))
    assert solutions(enumerate_edges_fast, g, k) == fast  # repeated runs give the same stream


@seed(EXAMPLE_SEEDS["test_edge_engines_agree_without_connectivity"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(simple_graphs(max_m=EDGE_MODE_MAX_M), THRESHOLDS)
def test_edge_engines_agree_without_connectivity(g, k):
    cfg = EnumConfig(k=k, mode="edge", connectivity="any")
    fast = solutions(
        observe, edges_fast, g, k, lambda state, marks: check_edge_state(g, k, state, marks, "any"), connectivity="any"
    )
    assert len(set(fast)) == len(fast)
    assert fast == solutions(enumerate_baseline, g, cfg)  # both branch in ascending id order
    assert set(fast) == set(brute_force_enumerate(g, cfg))


# (engine module, connectivity) per engine and edge variant
ROOT_BOUND_RUNS = {
    "induced": (induced_fast, "connected"),
    "edge": (edges_fast, "connected"),
    "edge-any": (edges_fast, "any"),
}


@pytest.mark.parametrize("variant", sorted(ROOT_BOUND_RUNS))
def test_root_marks_are_the_ids_below_first(variant):
    # the engines keep the root marks as one bound, first: the root must
    # branch on every element in ascending id, and below it first must be
    # min(S), with every candidate's id above it; only the states with a
    # candidate are built, and each of those is checked
    engine, connectivity = ROOT_BOUND_RUNS[variant]

    @seed(EXAMPLE_SEEDS[f"test_root_marks_are_the_ids_below_first[{variant}]"])
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(g=simple_graphs(max_m=EDGE_MODE_MAX_M), k=THRESHOLDS)
    def run(g, k):
        total = g.m if engine is edges_fast else g.n
        below_root = 0

        def check(state, marks):
            nonlocal below_root
            if not state.solution:
                assert state.first == -1 and state.branch == list(range(total))
                return
            below_root += 1
            assert state.branch, f"S={sorted(state.solution)} was built without a candidate"
            assert state.first == min(state.solution)
            assert all(x > state.first for x in state.branch), f"cand {state.branch} at S={sorted(state.solution)}"

        count = observe(engine, g, k, check, connectivity=connectivity)
        assert below_root + 1 <= count

    run()
