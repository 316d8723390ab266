"""Per-solution work of the fast engines does not grow with the input graph.

On a perfect matching every solution is tiny, so anything a state copies
that scales with n or m shows up directly. On random graphs the solutions
grow with n, and the induced engine's work per solution stays within the
paper's O(n) bound. The checks count sizes and work, not time.
"""

from __future__ import annotations

import random

import pytest

from girthscope import Graph, edges_fast, enumerate_induced_fast, induced_fast
from _state_checks import observe


def disjoint_paths(count: int, length: int) -> Graph:
    """`count` vertex-disjoint paths of `length` edges each; length 1 is a perfect matching."""
    size = length + 1
    return Graph(count * size, [(size * c + i, size * c + i + 1) for c in range(count) for i in range(length)])


@pytest.mark.parametrize(
    "engine, path_edges, solutions_per_edge",
    [
        # on each edge: two vertices and the edge
        pytest.param(induced_fast, 1, 3, id="enumerate_induced_fast-3"),
        # on each path: three edges, two pairs and the whole path
        pytest.param(edges_fast, 3, 2, id="enumerate_edges_fast-2"),
    ],
)
def test_state_sets_do_not_grow_with_the_graph(engine, path_edges, solutions_per_edge):
    # every container a state below the root holds stays as small with 4000
    # paths as with 500; only what it shares with the root by reference (the
    # graph, the root marks) may grow, and so do the marks it inherits, which
    # it holds as no set of its own. Only a state with a candidate is built,
    # so the edge engine, which builds none below the root on a matching,
    # runs on paths of three edges
    largest, inherited = {}, {}
    for m in (500, 4000):
        root = []
        sizes = []

        def look(st, marks):
            inherited[m] = max(inherited.get(m, 0), len(marks))
            if not st.solution:
                root.append(st)
                return
            for name in type(st).__slots__:
                value = getattr(st, name)
                if value is not getattr(root[0], name) and hasattr(value, "__len__"):
                    sizes.append(len(value))

        count = observe(engine, disjoint_paths(m, path_edges), 5, look)
        assert count == 1 + solutions_per_edge * path_edges * m
        largest[m] = max(sizes)
    assert largest[500] == largest[4000]
    assert inherited[4000] > inherited[500]


# work per solution over n on the smallest family member below (n = 8: 0.93
# before fans skipped their tables, 0.86 since), rounded up; n = 12, 16, 20
# measure 0.74, 0.68 and 0.60
INDUCED_WORK_PER_SOLUTION_AND_VERTEX = 1.2


def test_induced_work_per_solution_is_linear_in_n(monkeypatch):
    # work = table entries written + old candidates the filter scans + the
    # neighbours the adopt step scans, for v and for a fan test's one
    # candidate, summed over every step of the run
    work = 0
    update_dist = induced_fast.update_dist
    split_old_candidates = induced_fast._split_old_candidates
    adopt_new_candidates = induced_fast.adopt_new_candidates

    def counted_update_dist(state, v, survivors, adopted):
        nonlocal work
        table = update_dist(state, v, survivors, adopted)
        work += sum(len(row) for row in table.values())
        return table

    def counted_split(state, i):
        nonlocal work
        work += len(state.branch) - i - 1  # the candidates after v, which the filter scans
        return split_old_candidates(state, i)

    def counted_adopt(g, sol, first, v):
        nonlocal work
        work += g.degree(v)
        return adopt_new_candidates(g, sol, first, v)

    monkeypatch.setattr(induced_fast, "update_dist", counted_update_dist)
    monkeypatch.setattr(induced_fast, "_split_old_candidates", counted_split)
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
