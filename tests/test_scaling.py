"""Per-solution work of the fast engines does not grow with the input graph.

On a perfect matching every solution is tiny, so anything a state copies
that scales with n or m shows up directly. The check counts sizes, not time.
"""

from __future__ import annotations

import pytest

from girthscope import Graph, enumerate_edges_fast, enumerate_induced_fast
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
