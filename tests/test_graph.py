import networkx as nx
import pytest
from hypothesis import given

from cograph_bei import (
    Graph,
    GraphParseError,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    is_complete,
    is_connected,
    join,
    max_degree,
    parse_graph,
    path_graph,
    to_edgelist,
    to_graph6,
)

from strategies import graphs


def test_graph_basic_validation():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate collapses silently
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighbors(1) == frozenset({0, 2})
    same = Graph(3, [(2, 1), (0, 1)])  # other order and orientation
    assert same == g and hash(same) == hash(g)
    assert Graph(4, g.edges()) != g
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="positive"):
        Graph(0)


def test_parse_edgelist_examples():
    assert parse_graph("n 2\n1 2", "edgelist") == complete_graph(2)
    assert parse_graph("n 3\n1 2\n2 3", "edgelist") == path_graph(3)
    # comments, blank lines, duplicate edges
    text = "# a path\n\nn 3\n1 2  # first edge\n2 3\n2 3\n"
    assert parse_graph(text, "edgelist") == path_graph(3)
    # isolated vertices survive via the header
    assert parse_graph("n 4\n1 2", "edgelist").n == 4


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("1 2", "header"),
        ("n x", "header"),
        ("", "header"),
        ("n 3\n1 2 3", "expected 'u v'"),
        ("n 3\n0 2", "out of range"),
        ("n 3\n1 4", "out of range"),
        ("n 3\n2 2", "loop"),
        ("n 3\na b", "non-integer"),
    ],
)
def test_parse_edgelist_errors(text, pattern):
    with pytest.raises(GraphParseError, match=pattern):
        parse_graph(text, "edgelist")


def test_parse_graph6_k3():
    assert parse_graph("Bw", "graph6") == complete_graph(3)
    assert to_graph6(complete_graph(3)) == "Bw"
    assert parse_graph(">>graph6<<Bw", "graph6") == complete_graph(3)


def test_parse_graph6_errors():
    with pytest.raises(GraphParseError):
        parse_graph("", "graph6")
    with pytest.raises(GraphParseError, match="long-form"):
        parse_graph("~??", "graph6")
    with pytest.raises(GraphParseError, match="expected"):
        parse_graph("Bww", "graph6")  # stray trailing character
    with pytest.raises(GraphParseError, match="expected"):
        parse_graph("D", "graph6")  # missing body


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


@given(graphs(max_n=20))
def test_graph6_round_trip_against_networkx(g):
    encoded = to_graph6(g)
    # independent decoder
    h = nx.from_graph6_bytes(encoded.encode("ascii"))
    assert h.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
    # independent encoder
    expected = nx.to_graph6_bytes(_to_nx(g), header=False).decode("ascii").strip()
    assert encoded == expected
    assert parse_graph(encoded, "graph6") == g


@given(graphs())
def test_edgelist_round_trip(g):
    assert parse_graph(to_edgelist(g), "edgelist") == g


@given(graphs())
def test_json_round_trip(g):
    d = graph_to_json_dict(g)
    assert d["edges"] == sorted(d["edges"])
    assert graph_from_json_dict(d) == g


def test_complement_examples():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(path_graph(3)) == Graph(3, [(0, 2)])


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(graphs(max_n=8), graphs(max_n=8))
def test_join_via_complement_identity(g, h):
    assert join(g, h) == complement(disjoint_union(complement(g), complement(h)))


@given(graphs())
def test_complement_disconnected_implies_connected(g):
    if g.n >= 2 and not is_connected(complement(g)):
        assert is_connected(g)


def test_disjoint_union_examples():
    assert disjoint_union(complete_graph(1), complete_graph(1)) == empty_graph(2)
    g = disjoint_union(path_graph(3), path_graph(2))
    assert g.n == 5 and g.edge_count == 3
    assert [len(c) for c in connected_components(g)] == [3, 2]
    three = disjoint_union(complete_graph(2), empty_graph(1), path_graph(3))
    assert three == Graph(6, [(0, 1), (3, 4), (4, 5)])
    assert disjoint_union(three) == three


@given(graphs(max_n=6), graphs(max_n=6))
def test_disjoint_union_adds_components(g, h):
    u = disjoint_union(g, h)
    assert len(connected_components(u)) == len(connected_components(g)) + len(
        connected_components(h)
    )


def test_join_examples():
    assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
    p3 = join(complete_graph(1), empty_graph(2))
    assert p3.edge_count == 2 and max_degree(p3) == 2


def test_connected_components_examples():
    assert connected_components(complete_graph(3)) == [frozenset({0, 1, 2})]
    assert connected_components(empty_graph(3)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]


def test_induced_subgraph_examples():
    assert induced_subgraph(complete_graph(4), {0, 1, 2}) == complete_graph(3)
    g = cycle_graph(5)
    assert induced_subgraph(g, range(g.n)) == g
    assert induced_subgraph(g, {0, 1, 2, 3}) == path_graph(4)
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(g, {0, 7})


def test_max_degree_and_is_complete():
    assert max_degree(complete_graph(4)) == 3
    assert max_degree(path_graph(3)) == 2
    assert max_degree(empty_graph(4)) == 0
    assert is_complete(complete_graph(5))
    assert not is_complete(path_graph(3))
    assert is_complete(complete_graph(1))
