"""Graph construction, parsing, subgraph views, connectivity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from girthscope import (
    GirthscopeError,
    Graph,
    ParseError,
    ValidationError,
    complete_graph,
    cycle_graph,
    edge_subgraph,
    induced_subgraph,
    is_connected,
    parse_dimacs,
    parse_edge_list,
    path_graph,
    petersen_graph,
    to_edge_list,
)
from _oracles import brute_girth, union_find_connected


def same_structure(a: Graph, b: Graph) -> bool:
    """Equality up to edge-id order (vertex ids still matter)."""
    return a.n == b.n and a.weighted == b.weighted and sorted(a.edges) == sorted(b.edges)


def test_parse_path_graph():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g == path_graph(3)


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert same_structure(g, complete_graph(3))
    # edge ids follow input order
    assert g.edges == ((0, 1, 1), (1, 2, 1), (0, 2, 1))


def test_parse_rejects_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("0 0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_edge_list("0 1\n1 0")


def test_parse_rejects_bad_weight():
    with pytest.raises(ValidationError, match="weight"):
        parse_edge_list("0 1 0", weighted=True)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 3 oops\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\nnot an edge line at all")


@pytest.mark.parametrize("parse, text, rule", [
    (parse_edge_list, "a b\nb b", "self-loop"),
    (parse_edge_list, "a b\nb a", "duplicate"),
    (lambda t: parse_edge_list(t, weighted=True), "a b 1\nb c 0", "weight"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 3 3", "self-loop"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 1", "duplicate"),
    (lambda t: parse_dimacs(t, weighted=True), "p edge 3 2\ne 1 2 1\ne 2 3 0", "weight"),
])
def test_parse_edge_rule_errors_name_their_line(parse, text, rule):
    with pytest.raises(ValidationError, match=rule) as info:
        parse(text)
    # the rejected edge is always on the last line
    assert str(info.value).startswith(f"line {len(text.splitlines())}:")


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n\n0 1  # first\n1 2\n2 0\n")
    assert same_structure(g, complete_graph(3))


def test_parse_renumbers_by_first_appearance():
    g = parse_edge_list("10 30\n30 20")
    # 10 -> 0, 30 -> 1, 20 -> 2
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_parse_weighted():
    g = parse_edge_list("0 1 2\n1 2 5\n0 2", weighted=True)
    assert g.weighted
    assert [w for _, _, w in g.edges] == [2, 5, 1]


def test_unweighted_parse_rejects_weight_column():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2")


def test_graph_rejects_out_of_range_endpoints_and_weights():
    with pytest.raises(ValidationError):
        Graph(2, [(0, 2)])
    for w in (0, -1):
        with pytest.raises(ValidationError, match="weight"):
            Graph(2, [(0, 1, w)])


def test_graph_is_weighted_iff_some_weight_is_not_one():
    assert Graph(3, [(0, 1, 2)]).weighted
    assert Graph(3, [(0, 1), (1, 2, 3)]).weighted
    assert not Graph(2, [(0, 1, 1)]).weighted
    assert not Graph(3, [(0, 1), (1, 2, 1)]).weighted
    # the weights decide equality; the flag follows from them
    assert Graph(2, [(0, 1, 1)]) == Graph(2, [(0, 1)]) != Graph(2, [(0, 1, 2)])


@pytest.mark.parametrize("n, edges, as_list", [
    (True, [], False),
    (2, [(0, 1, True)], True),
    (2, [(0, 1, True)], False),
    (2, [(False, 1)], False),
    (2, [(0, True)], False),
])
def test_graph_rejects_bools_as_ints(n, edges, as_list):
    # as_list: the edge items are lists, which take the Sequence check
    with pytest.raises(ValidationError):
        Graph(n, [list(e) for e in edges] if as_list else edges)


@pytest.mark.parametrize("item", [(0, 1, 1, 1), (0,), 5, (0.5, 1), ("0", 1)])
def test_graph_rejects_malformed_edge_items(item):
    # a wrong arity, a non-sequence, a float or a string endpoint is a typed error, not a crash
    with pytest.raises(ValidationError):
        Graph(2, [item])


@pytest.mark.parametrize("n", [2.5, "3", None])
def test_graph_rejects_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(ValidationError):
        Graph(n, [])


def test_empty_graph_is_legal():
    g = parse_edge_list("")
    assert g.n == 0 and g.m == 0
    assert is_connected(g)


def test_round_trip_random_graphs():
    # serialize(parse(text)) reparses to the identical Graph, ids included
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 8)
        weighted = rng.random() < 0.5
        lines = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    lines.append(f"{u} {v} {rng.randint(1, 9)}" if weighted else f"{u} {v}")
        rng.shuffle(lines)
        g = parse_edge_list("\n".join(lines), weighted=weighted)
        assert parse_edge_list(to_edge_list(g), weighted=weighted) == g


def test_round_trip_renumbers_what_is_not_in_first_appearance_order():
    # the parser numbers vertices by first appearance: an isolated vertex is
    # lost, and vertices first seen out of id order come back renumbered
    assert parse_edge_list(to_edge_list(Graph(3, [(1, 2)]))) == Graph(2, [(0, 1)])
    assert parse_edge_list(to_edge_list(Graph(3, [(0, 2), (0, 1)]))) == Graph(3, [(0, 1), (0, 2)])


def test_dimacs_parse_and_validation():
    g = parse_dimacs("c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert g == path_graph(4)
    with pytest.raises(ValidationError):
        parse_dimacs("p edge 3 1\ne 1 1\n")
    with pytest.raises(ValidationError, match="declares"):
        parse_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    # isolated vertices come from the header
    g = parse_dimacs("p edge 5 1\ne 1 2\n")
    assert g.n == 5 and g.m == 1


def test_induced_subgraph_examples():
    k3 = complete_graph(3)
    assert induced_subgraph(k3, {0, 1}) == Graph(2, [(0, 1)])
    c4 = cycle_graph(4)
    assert induced_subgraph(c4, {0, 2}) == Graph(2, [])
    assert induced_subgraph(complete_graph(4), {0, 1, 2}) == complete_graph(3)


def test_induced_subgraph_identity_and_range_check():
    g = petersen_graph()
    assert induced_subgraph(g, range(g.n)) == g
    with pytest.raises(ValidationError):
        induced_subgraph(g, {0, 99})


def test_edge_subgraph_examples():
    k3 = complete_graph(3)
    sub = edge_subgraph(k3, {0})
    assert sub.n == 2 and sub.m == 1
    assert edge_subgraph(k3, set()).n == 0
    c4 = cycle_graph(4)
    assert edge_subgraph(c4, {0, 1}) == path_graph(3)
    with pytest.raises(ValidationError):
        edge_subgraph(k3, {7})


def test_edge_subgraph_covers_non_isolated_vertices():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        sub = edge_subgraph(g, range(g.m))
        assert sub.n == len({x for u, v, _ in g.edges for x in (u, v)})


def test_is_connected_examples():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(0, []))
    assert is_connected(Graph(1, []))


def test_is_connected_matches_union_find():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(0, 20)
        p = rng.choice([0.05, 0.1, 0.3])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        assert is_connected(g) == union_find_connected(g)


def test_generators():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert brute_girth(g) == 5
    assert brute_girth(cycle_graph(6)) == 6
    assert complete_graph(4).m == 6


def test_adjacency_is_sorted_and_symmetric():
    g = petersen_graph()
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        for nb, eid in g.adj[v]:
            assert (v, eid) in [(x, e) for x, e in g.adj[nb]]


def test_graphs_are_shareable_values():
    g = complete_graph(3)
    assert g == complete_graph(3)
    assert hash(g) == hash(complete_graph(3))
    assert g != path_graph(3)


# lines built from both formats' tokens and small numbers, so that examples
# get past the first line check and some parse
PARSER_TOKEN = st.one_of(st.sampled_from(["p", "edge", "e", "c", "#", "-1", "2.5", "1_0"]), st.text(max_size=3))
PARSER_LINE = st.one_of(
    st.lists(PARSER_TOKEN, max_size=4),
    st.tuples(st.sampled_from(["p edge", "e", ""]), st.lists(st.integers(-1, 5).map(str), max_size=4)).map(
        lambda head_nums: [head_nums[0], *head_nums[1]]
    ),
).map(" ".join)
PARSER_TEXT = st.one_of(st.text(), st.lists(PARSER_LINE, max_size=8).map("\n".join))


# the seed derandomize derived from this test's text; pinned so that an edit
# leaves its examples as they are
@seed(0x664d9d4d8c4d84c642bc4ef00ce54600626adc64fc2018fd0ee3c3de4559606e480b94f2460762d28da48c798d5284f2)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(PARSER_TEXT, st.booleans())
def test_parsers_raise_only_girthscope_errors(text, weighted):
    for parse in (parse_edge_list, parse_dimacs):
        try:
            parse(text, weighted=weighted)
        except GirthscopeError:
            pass
