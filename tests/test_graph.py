import sys
import time
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from cograph_bei import (
    Graph,
    GraphParseError,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_to_json_dict,
    is_connected,
    join,
    max_degree,
    parse_graph,
    path_graph,
    to_edgelist,
    to_graph6,
)
from cograph_bei import graph as graph_module
from cograph_bei.graph import _bits, _parse_edgelist_bulk, _parse_edgelist_lines

from reference import connected_components, to_nx
from strategies import graphs


def test_graph_basic_validation():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate collapses silently
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighbors(1) == frozenset({0, 2})
    same = Graph(3, [(2, 1), (0, 1)])  # other order and orientation
    assert same == g and hash(same) == hash(g)
    assert Graph(4, g.edges()) != g
    assert type(g.neighbors(0)) is frozenset and g.neighbors(0) == frozenset({1})
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.has_edge(1, 2) and g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert not g.has_edge(0, 3) and not g.has_edge(0, -1)
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(3)
    with pytest.raises(ValueError, match="out of range"):
        g.degree(-1)
    for h in (g, path_graph(5), cycle_graph(6), Graph(4), complete_graph(3), Graph(1)):
        back = complement(complement(h))
        assert back == h and hash(back) == hash(h)
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
        ("n 3\n1 +2", "line 2: non-integer endpoint in '1 \\+2'"),
        ("n 3\n1 0_2", "line 2: non-integer endpoint in '1 0_2'"),
        # a line is quoted whole up to 60 characters, cut after them
        pytest.param("n 3\n1 " + "x" * 58, "endpoint in '1 x{58}'$", id="60-characters"),
        pytest.param("n 3\n1 " + "x" * 59, "endpoint in '1 x{58}'\\.\\.\\.$", id="61-characters"),
        # a decimal endpoint past int()'s digit limit is out of range
        pytest.param("n 3\n1 " + "9" * 5000, "out of range 1\\.\\.3 in '1 9{58}'\\.\\.\\.$",
                     id="5000-digits"),
        # only \n, \r\n and \r end a line; a form feed inside a line separates tokens
        pytest.param("n 3\n1 2\x0c\n1 x\n", "^line 3: non-integer endpoint in '1 x'$",
                     id="formfeed-ends-no-line"),
        pytest.param("n 3\n1\x0c2\n1 x", "^line 3: non-integer endpoint in '1 x'$",
                     id="formfeed-between-endpoints"),
        pytest.param("n 3\r\n1 2\r1 x", "^line 3: non-integer endpoint in '1 x'$", id="crlf-and-cr"),
    ],
)
def test_parse_edgelist_errors(text, pattern):
    with pytest.raises(GraphParseError, match=pattern):
        parse_graph(text, "edgelist")


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_edgelist_splitlines_breaks_are_whitespace(sep):
    # str.splitlines() ends a line at each of these; the edge-list format does not
    with pytest.raises(GraphParseError, match="^line 3: non-integer"):
        parse_graph(f"n 3\n1 2{sep}\n1 x", "edgelist")
    assert parse_graph(f"n 3\n1{sep}2\n2 3{sep}", "edgelist") == path_graph(3)


@pytest.mark.parametrize(
    "count", ["9" * 4000, "9" * 5000, str(sys.maxsize + 1)],
    ids=["4000-digits", "5000-digits", "maxsize-plus-one"],
)
def test_parse_edgelist_count_past_any_index(count):
    # 4000 digits overflow an index; 5000 are more than int() converts
    with pytest.raises(GraphParseError) as info:
        parse_graph(f"n {count}\n1 2\n", "edgelist")
    assert str(info.value) == f"line 1: vertex count exceeds {sys.maxsize}"


def test_the_line_loop_ignores_a_lifted_digit_limit():
    # the CLI lifts Python's limit on int() digits while it runs; a token
    # past the default limit must still be out of range, not converted in
    # time quadratic in its length
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(GraphParseError, match="^line 2: endpoint out of range 1..3"):
            parse_graph("n 3\n1 " + "0" * 5000 + "2\n", "edgelist")
        with pytest.raises(GraphParseError, match="^line 1: vertex count exceeds"):
            parse_graph("n " + "0" * 5000 + "3\n1 2\n", "edgelist")
    finally:
        sys.set_int_max_str_digits(saved)


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


@given(graphs(max_n=20))
def test_graph6_round_trip_against_networkx(g):
    encoded = to_graph6(g)
    # independent decoder
    h = nx.from_graph6_bytes(encoded.encode("ascii"))
    assert h.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
    # independent encoder
    expected = nx.to_graph6_bytes(to_nx(g), header=False).decode("ascii").strip()
    assert encoded == expected
    assert parse_graph(encoded, "graph6") == g


@given(graphs())
def test_edgelist_round_trip(g):
    assert parse_graph(to_edgelist(g), "edgelist") == g


@given(graphs())
def test_json_round_trip(g):
    d = graph_to_json_dict(g)
    assert d["edges"] == sorted(d["edges"])
    assert Graph(d["n"], ((u - 1, v - 1) for u, v in d["edges"])) == g


def test_complement_examples():
    assert complement(complete_graph(3)) == Graph(3)
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
    assert disjoint_union(complete_graph(1), complete_graph(1)) == Graph(2)
    g = disjoint_union(path_graph(3), path_graph(2))
    assert g.n == 5 and g.edge_count == 3
    assert [len(c) for c in connected_components(g)] == [3, 2]
    three = disjoint_union(complete_graph(2), Graph(1), path_graph(3))
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
    p3 = join(complete_graph(1), Graph(2))
    assert p3.edge_count == 2 and max_degree(p3) == 2


def test_connected_components_examples():
    assert connected_components(complete_graph(3)) == [frozenset({0, 1, 2})]
    assert connected_components(Graph(3)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]


def test_max_degree_and_is_complete():
    assert max_degree(complete_graph(4)) == 3
    assert max_degree(path_graph(3)) == 2
    assert max_degree(Graph(4)) == 0
    # complete means every one of the n(n-1)/2 pairs is an edge
    assert complete_graph(5).edge_count == 10
    assert complete_graph(1).edge_count == 0
    assert path_graph(3).edge_count < 3


# The edge-list forms of complement, disjoint union and join that the
# mask-built ones replaced, kept as independent references.


def _complement_by_edges(g):
    full = (1 << g.n) - 1
    return Graph(
        g.n,
        ((u, v) for u, m in enumerate(g._adj) for v in _bits(full & ~m >> u + 1 << u + 1)),
    )


def _disjoint_union_by_edges(*graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def _join_by_edges(g, h):
    edges = g.edges()
    edges.extend((u + g.n, v + g.n) for u, v in h.edges())
    edges.extend((u, v + g.n) for u in range(g.n) for v in range(h.n))
    return Graph(g.n + h.n, edges)


def _assert_same_graph(built, reference):
    """built has symmetric, loop-free masks and is indistinguishable from
    the graph Graph(n, edges) makes of its edges."""
    adj = built._adj
    assert type(adj) is tuple and len(adj) == built.n
    for u, m in enumerate(adj):
        assert 0 <= m < 1 << built.n and not m >> u & 1
        assert all(adj[v] >> u & 1 for v in _bits(m))
    twin = Graph(built.n, built.edges())
    assert built == twin == reference and hash(built) == hash(twin) == hash(reference)
    assert built.edges() == twin.edges() == reference.edges()
    assert repr(built) == repr(twin) == repr(reference)


@given(graphs(max_n=10))
def test_complement_matches_the_edge_built_one(g):
    _assert_same_graph(complement(g), _complement_by_edges(g))


@given(st.lists(graphs(max_n=5), max_size=4))
@example([])
@example([Graph(1)])
@example([Graph(2, [(0, 1)])])
def test_disjoint_union_matches_the_edge_built_one(gs):
    if not gs:
        for build in (disjoint_union, _disjoint_union_by_edges):
            with pytest.raises(ValueError, match="^vertex count must be positive, got 0$"):
                build()
        return
    _assert_same_graph(disjoint_union(*gs), _disjoint_union_by_edges(*gs))


@given(graphs(max_n=6), graphs(max_n=6))
def test_join_matches_the_edge_built_one(g, h):
    _assert_same_graph(join(g, h), _join_by_edges(g, h))


# The bulk edge-list parser against the line loop it falls back to.  The
# bulk path may give up on any text (None), but when it returns a graph
# it must be the line loop's; parse_graph must always agree with the loop.


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return f"GraphParseError: {exc}"


def _assert_parsers_agree(text):
    """parse_graph gives the line loop's graph or error, and the bulk path
    that graph or None; returns the bulk path's answer."""
    expected = _outcome(_parse_edgelist_lines, text)
    assert _outcome(lambda t: parse_graph(t, "edgelist"), text) == expected
    bulk = _parse_edgelist_bulk(text)
    if bulk is not None:
        assert isinstance(expected, Graph)
        _assert_same_graph(bulk, expected)
    return bulk


# (text, whether the bulk path itself parses it)
_PARSE_CASES = [
    ("# a path\nn 3\n1 2\n2 3\n", False),
    ("n 3\n1 2\n\n2 3\n", False),  # blank line between edges
    ("\n \nn 3\n\n1 2\n2 3\n\n\n", True),  # blank lines only around the edges
    ("n 3\r\n1 2\r\n2 3\r\n", True),
    ("n 3\r1 2\r2 3", True),
    ("n 3\n1\t2  \n\t2 3\t", True),  # tabs, trailing spaces, no final line end
    ("n 1\n", True),
    ("n 1", True),
    ("n 3\n", False),  # more vertices than the payload could touch
    ("# one\n# two\nn 2\n1 2\n", False),
    ("n 3\n1 2\n2 1\n1 2\n2 3\n", True),  # duplicate edges
    ("n 3\n1 2\n2 2\n", False),
    ("n 3\n1 2\n0 3\n", False),
    ("n 3\n1 2\n1 4\n", False),
    ("n 3\n01 2\n2 3\n", False),  # accepted by the line loop
    ("n 03\n1 2\n", True),
    ("n 3\n١ ٢\n2 3\n", False),  # Arabic-Indic digits
    ("n 3\n１ ２\n2 3\n", False),  # full-width digits
    ("n ３\n1 2\n", False),
    ("n 3\n1\xa02\n2 3\n", False),
    ("n 3\n1\x0c2\n2 3\n", False),
    ("n 3\n1 2 3\n", False),
    ("n 3\n1 +2\n", False),
    ("n 3\n1 2 # edge\n", False),
    ("n 0\n", False),
    ("n 3 4\n1 2\n", False),
    ("", False),
    ("1 2\n", False),
]


@pytest.mark.parametrize("text,bulk_parses", _PARSE_CASES)
def test_bulk_parser_agrees_with_the_line_loop(text, bulk_parses):
    assert (_assert_parsers_agree(text) is not None) == bulk_parses


# lines the bulk path must not accept; each replaces one edge line
_FAULTS = ["# comment", "", "   ", "1 1", "0 1", "301 1", "01 2", "١ 2", "１ 2",
           "1\xa02", "1\x0c2", "1 2 3", "1", "a b", "-1 2", "1 2\x85"]


def test_a_fault_in_a_later_chunk_reaches_the_line_loop():
    # about 80 KB of payload: three chunks of the bulk path
    n = 300
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1, 4)]
    lines = [f"{u} {v}" for u, v in pairs]
    assert len("\n".join(lines)) > 2 * graph_module._CHUNK_CHARS
    text = f"n {n}\n" + "\n".join(lines) + "\n"
    assert _assert_parsers_agree(text) == Graph(n, [(u - 1, v - 1) for u, v in pairs])
    for at in (len(lines) // 2, len(lines) - 2):  # the middle chunk, the last one
        for fault in _FAULTS:
            faulty = lines[:at] + [fault] + lines[at + 1:]
            assert _parse_edgelist_bulk(f"n {n}\n" + "\n".join(faulty) + "\n") is None


@st.composite
def edgelist_texts(draw):
    """A random edge list, maybe with extra tabs and spaces, maybe with one
    fault; and whether the bulk path should parse it itself."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda p: p[0] != p[1]), max_size=12))
    spaced = draw(st.booleans())
    sep = draw(st.sampled_from(["\t", "  ", " \t "])) if spaced else " "
    lines = [f"n {n}"] + [f"{u}{sep}{v}" for u, v in pairs]
    if spaced:
        lines = [draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))
                 for line in lines]
    faulty = draw(st.booleans())
    if faulty:
        fault = draw(st.sampled_from(_FAULTS + [f"{n} {n}", f"{n + 1} 1", f"0{n} 1"]))
        lines.insert(draw(st.integers(0, len(lines))), fault)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text, not faulty and n <= 2 * len(pairs) + 1


@given(edgelist_texts())
def test_bulk_parser_agrees_with_the_line_loop_on_random_texts(case):
    text, bulk_parses = case
    bulk = _assert_parsers_agree(text)
    if bulk_parses:
        assert bulk is not None


@pytest.mark.parametrize("count", ["100000000000", "100000"])
def test_a_large_header_count_allocates_nothing_before_a_bad_line(count):
    # the count is neither allocated nor looped over: the bad line decides
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(GraphParseError) as info:
            parse_graph(f"n {count}\n1 x\n", "edgelist")
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 2: non-integer endpoint in '1 x'"
    assert elapsed < 0.5 and peak < 1 << 20
