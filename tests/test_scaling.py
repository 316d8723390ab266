"""Per-solution work of the fast engines does not grow with the input graph.

On a perfect matching every solution is tiny, so anything a state copies
that scales with n or m shows up directly. On random graphs the solutions
grow with n, and the induced engine's work per solution stays within the
paper's O(n) bound. The checks count sizes and work, not time.
"""

from __future__ import annotations

import random

import pytest

from girthscope import Graph, enumerate_edges_fast, enumerate_induced_fast
from girthscope import induced_fast
from _state_checks import MarkRecorder


def perfect_matching(m: int) -> Graph:
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


@pytest.mark.parametrize(
    "engine, solutions_per_edge",
    [
        (enumerate_induced_fast, 3),  # empty, two vertices and the edge
        (enumerate_edges_fast, 1),  # empty and the edge
    ],
)
def test_state_sets_do_not_grow_with_the_graph(engine, solutions_per_edge):
    # every container a state below the root holds stays as small at m=4000
    # as at m=500; only what it shares with the root by reference (the graph,
    # the root marks) may grow, and so do the marks it inherits, which it
    # holds as no set of its own
    largest, inherited = {}, {}
    for m in (500, 4000):
        root = []
        sizes = []
        marks_of = MarkRecorder()

        def look(st):
            inherited[m] = max(inherited.get(m, 0), len(marks_of(st)))
            if not st.solution:
                root.append(st)
                return
            for name in type(st).__slots__:
                value = getattr(st, name)
                if value is not getattr(root[0], name) and hasattr(value, "__len__"):
                    sizes.append(len(value))

        count = engine(perfect_matching(m), 5, on_state=look)
        assert count == 1 + solutions_per_edge * m
        largest[m] = max(sizes)
    assert largest[500] == largest[4000]
    assert inherited[4000] > inherited[500]


# work per solution over n on the smallest family member below (n = 8: 1.14),
# rounded up; n = 12, 16, 20 measure 0.96, 0.85 and 0.77
INDUCED_WORK_PER_SOLUTION_AND_VERTEX = 1.2


def test_induced_work_per_solution_is_linear_in_n(monkeypatch):
    # work = table entries written + old candidates the filter scans + v's
    # neighbours the adopt step scans, summed over every step of the run
    work = 0
    update_dist = induced_fast.update_dist
    adopt_new_candidates = induced_fast.adopt_new_candidates

    def counted_update_dist(state, v, survivors, adopted):
        nonlocal work
        table = update_dist(state, v, survivors, adopted)
        work += sum(len(row) for row in table.values())
        return table

    def counted_adopt(state, v):
        nonlocal work
        work += len(state.cand) + state.g.degree(v)
        return adopt_new_candidates(state, v)

    monkeypatch.setattr(induced_fast, "update_dist", counted_update_dist)
    monkeypatch.setattr(induced_fast, "adopt_new_candidates", counted_adopt)
    ratios = {}
    for n in (8, 12, 16, 20):
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        work = solutions = 0
        for _ in range(4):
            solutions += enumerate_induced_fast(Graph(n, rng.sample(pairs, 3 * n // 2)), 5)
        ratios[n] = work / solutions / n
    print("induced work per solution / n:", {n: round(r, 3) for n, r in ratios.items()})
    assert all(r <= INDUCED_WORK_PER_SOLUTION_AND_VERTEX for r in ratios.values()), ratios
