"""Per-solution work of the fast engines does not grow with the input graph.

On a perfect matching every solution is tiny, so anything a state copies
that scales with n or m shows up directly. The check counts sizes, not time.
"""

from __future__ import annotations

import pytest

from girthscope import Graph, enumerate_edges_fast, enumerate_induced_fast


def perfect_matching(m: int) -> Graph:
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


@pytest.mark.parametrize(
    "engine, copied_marks, solutions_per_edge",
    [
        (enumerate_induced_fast, "local_done", 3),  # empty, two vertices and the edge
        (enumerate_edges_fast, "local_blocked", 1),  # empty and the edge
    ],
)
def test_copied_exclusion_marks_do_not_grow_with_the_graph(engine, copied_marks, solutions_per_edge):
    largest = {}
    for m in (500, 4000):
        sizes = []
        count = engine(perfect_matching(m), 5, on_state=lambda st: sizes.append(len(getattr(st, copied_marks))))
        assert count == 1 + solutions_per_edge * m
        largest[m] = max(sizes)
    assert largest[500] == largest[4000]
