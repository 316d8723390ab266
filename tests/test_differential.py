"""Property-based differential tests: fast = baseline = brute force on random graphs.

Each example draws a random simple graph and a girth threshold, runs every
engine that covers the mode (edge mode with and without connectivity),
compares the solution sets, and checks every live state of the fast engine
against its from-scratch oracle. Examples are
derandomized and no example database is written, so runs are reproducible.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
from _state_checks import check_edge_state, check_induced_state

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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(simple_graphs(), THRESHOLDS)
def test_induced_engines_agree(g, k):
    fast = solutions(enumerate_induced_fast, g, k, on_state=lambda state: check_induced_state(g, k, state))
    base = solutions(enumerate_baseline, g, EnumConfig(k=k))
    assert len(set(fast)) == len(fast)
    assert set(fast) == set(base) == set(brute_force_enumerate(g, EnumConfig(k=k)))
    assert fast == base  # both branch in ascending id order, so the streams match


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(simple_graphs(max_m=EDGE_MODE_MAX_M), THRESHOLDS)
def test_edge_engines_agree(g, k):
    cfg = EnumConfig(k=k, mode="edge")
    fast = solutions(enumerate_edges_fast, g, k, on_state=lambda state: check_edge_state(g, k, state))
    base = solutions(enumerate_baseline, g, cfg)
    assert len(set(fast)) == len(fast)
    assert set(fast) == set(base) == set(brute_force_enumerate(g, cfg))
    assert solutions(enumerate_edges_fast, g, k) == fast  # repeated runs give the same stream


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(simple_graphs(max_m=EDGE_MODE_MAX_M), THRESHOLDS)
def test_edge_engines_agree_without_connectivity(g, k):
    cfg = EnumConfig(k=k, mode="edge", connectivity="any")
    fast = solutions(
        enumerate_edges_fast, g, k, connectivity="any", on_state=lambda state: check_edge_state(g, k, state, "any")
    )
    assert len(set(fast)) == len(fast)
    assert fast == solutions(enumerate_baseline, g, cfg)  # both branch in ascending id order
    assert set(fast) == set(brute_force_enumerate(g, cfg))


# (engine, engine options) per engine and edge variant
ROOT_BOUND_RUNS = {
    "induced": (enumerate_induced_fast, {}),
    "edge": (enumerate_edges_fast, {"connectivity": "connected"}),
    "edge-any": (enumerate_edges_fast, {"connectivity": "any"}),
}


@pytest.mark.parametrize("variant", sorted(ROOT_BOUND_RUNS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(g=simple_graphs(max_m=EDGE_MODE_MAX_M), k=THRESHOLDS)
def test_root_marks_are_the_ids_below_first(variant, g, k):
    # the engines keep the root marks as one bound, first: the root must
    # branch on every element in ascending id, and below it first must be
    # min(S), with every candidate's id above it; only the states with a
    # candidate are built, and each of those is checked
    engine, kwargs = ROOT_BOUND_RUNS[variant]
    total = g.m if kwargs else g.n
    below_root = 0

    def check(state):
        nonlocal below_root
        if not state.solution:
            assert state.first == -1 and state.branch == list(range(total))
            return
        below_root += 1
        assert state.branch, f"S={sorted(state.solution)} was built without a candidate"
        assert state.first == min(state.solution)
        assert all(x > state.first for x in state.branch), f"cand {state.branch} at S={sorted(state.solution)}"

    count = engine(g, k, None, on_state=check, **kwargs)
    assert below_root + 1 <= count
