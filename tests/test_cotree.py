from itertools import combinations, permutations

import pytest
from hypothesis import given

from cograph_bei import (
    CotreeError,
    Graph,
    Join,
    Leaf,
    P4Witness,
    Union,
    build_cotree,
    complete_graph,
    cotree_to_json_dict,
    counterexample_base,
    cycle_graph,
    path_graph,
    reg_cograph,
    summarize_cotree,
)

from reference import cotree_to_graph, find_induced_p4, is_simplicial
from strategies import cograph_classes, graphs, permute_graph


def assert_valid_witness(g: Graph, w: P4Witness):
    a, b, c, d = w.vertices()
    assert len({a, b, c, d}) == 4
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    target = set(h.edges())
    for perm in permutations(range(g.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in target for u, v in g.edges()):
            return True
    return False


def quadruple_scan(g: Graph):
    """Reference witness search: every quadruple in lexicographic order."""
    for quad in combinations(range(g.n), 4):
        deg = [0, 0, 0, 0]
        m = 0
        for i, j in combinations(range(4), 2):
            if g.has_edge(quad[i], quad[j]):
                deg[i] += 1
                deg[j] += 1
                m += 1
        if m != 3 or sorted(deg) != [1, 1, 2, 2]:
            continue
        start = min(i for i in range(4) if deg[i] == 1)
        path = [start]
        prev = -1
        while len(path) < 4:
            cur = path[-1]
            nxt = next(
                i
                for i in range(4)
                if i != prev and i != cur and g.has_edge(quad[cur], quad[i])
            )
            prev, path = cur, path + [nxt]
        return P4Witness(*(quad[i] for i in path))
    return None


def test_build_cotree_examples():
    k2 = build_cotree(complete_graph(2))
    assert k2 == Join((Leaf(0), Leaf(1)))

    p3 = build_cotree(path_graph(3))
    assert isinstance(p3, Join)
    assert summarize_cotree(p3).key == summarize_cotree(
        Join((Leaf(0), Union((Leaf(1), Leaf(2)))))
    ).key
    assert sorted(v for v in _leaf_labels(p3)) == [0, 1, 2]

    assert build_cotree(path_graph(4)) == P4Witness(0, 1, 2, 3)
    assert build_cotree(complete_graph(1)) == Leaf(0)
    assert build_cotree(Graph(3)) == Union((Leaf(0), Leaf(1), Leaf(2)))


def _leaf_labels(t):
    if isinstance(t, Leaf):
        return [t.v]
    out = []
    for c in t.children:
        out.extend(_leaf_labels(c))
    return out


def test_find_induced_p4_examples():
    assert find_induced_p4(complete_graph(4)) is None
    w = find_induced_p4(cycle_graph(5))
    assert w == P4Witness(0, 1, 2, 3)
    assert_valid_witness(cycle_graph(5), w)


@given(graphs())
def test_recognition_matches_p4_search(g):
    result = build_cotree(g)
    witness = find_induced_p4(g)
    if isinstance(result, P4Witness):
        assert witness is not None
        assert_valid_witness(g, result)
        assert_valid_witness(g, witness)
    else:
        assert witness is None
        assert cotree_to_graph(result) == g


def test_recognition_matches_p4_search_exhaustive_small():
    # every labeled graph on up to 6 vertices
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, (p for i, p in enumerate(pairs) if (mask >> i) & 1))
            witness = find_induced_p4(g)
            assert witness == quadruple_scan(g)
            got_tree = not isinstance(build_cotree(g), P4Witness)
            assert got_tree == (witness is None)


@given(graphs(max_n=10))
def test_find_induced_p4_matches_quadruple_scan(g):
    assert find_induced_p4(g) == quadruple_scan(g)


def test_twin_star_witness_with_the_hub_labelled_last():
    # leaves 0..159, hub 160, pendant path 160-161-162: every induced P4
    # is leaf-hub-161-162, and the quadruple scan meets the first one
    # only after C(162, 3) quadruples
    m = 160
    hub = m
    g = Graph(m + 3, [(x, hub) for x in range(m)] + [(hub, m + 1), (m + 1, m + 2)])
    expected = P4Witness(0, hub, m + 1, m + 2)
    assert find_induced_p4(g) == expected
    assert build_cotree(g) == expected


def test_round_trip_on_all_small_cographs():
    for n in range(1, 9):
        for t in cograph_classes(n):
            g = cotree_to_graph(t)
            rebuilt = build_cotree(g)
            assert not isinstance(rebuilt, P4Witness)
            assert cotree_to_graph(rebuilt) == g
            assert summarize_cotree(rebuilt).key == summarize_cotree(t).key


def test_cotree_to_graph_examples():
    assert cotree_to_graph(Join((Leaf(0), Leaf(1)))) == complete_graph(2)
    assert cotree_to_graph(Union((Leaf(0), Leaf(1), Leaf(2)))) == Graph(3)


def test_cotree_to_graph_validation():
    with pytest.raises(CotreeError, match="at least 2"):
        cotree_to_graph(Union((Leaf(0),)))
    with pytest.raises(CotreeError, match="alternate"):
        cotree_to_graph(Union((Union((Leaf(0), Leaf(1))), Leaf(2))))
    with pytest.raises(CotreeError, match="alternate"):
        cotree_to_graph(Join((Join((Leaf(0), Leaf(1))), Leaf(2))))
    with pytest.raises(CotreeError, match="labels"):
        cotree_to_graph(Join((Leaf(0), Leaf(2))))
    with pytest.raises(CotreeError, match="labels"):
        cotree_to_graph(Join((Leaf(0), Leaf(0))))


def test_canonical_key_examples():
    k2 = summarize_cotree(Join((Leaf(0), Leaf(1)))).key
    assert summarize_cotree(Join((Leaf(5), Leaf(9)))).key == k2
    p3 = build_cotree(path_graph(3))
    k3 = build_cotree(complete_graph(3))
    assert summarize_cotree(p3).key != summarize_cotree(k3).key
    assert summarize_cotree(p3).key == b"J(L,U(L,L))"


@given(graphs(max_n=7))
def test_canonical_key_is_label_independent(g):
    t = build_cotree(g)
    if isinstance(t, P4Witness):
        return
    perm = list(range(g.n))[::-1]
    t2 = build_cotree(permute_graph(g, perm))
    assert summarize_cotree(t).key == summarize_cotree(t2).key


def test_canonical_key_separates_iso_classes_up_to_6():
    # distinct keys within each n must mean non-isomorphic graphs, and
    # every graph must be isomorphic to itself under relabeling
    for n in range(1, 7):
        reps = [(summarize_cotree(t).key, cotree_to_graph(t)) for t in cograph_classes(n)]
        keys = [k for k, _ in reps]
        assert len(set(keys)) == len(keys)
        for i, (ki, gi) in enumerate(reps):
            for kj, gj in reps[i + 1:]:
                assert ki != kj
                assert not brute_force_isomorphic(gi, gj)


def test_is_simplicial_examples():
    base, _, _ = counterexample_base()
    assert is_simplicial(base, 0)  # neighborhood {7}
    assert is_simplicial(base, 1)  # neighborhood {5}
    p3 = path_graph(3)
    assert not is_simplicial(p3, 1)  # center: {0, 2} not adjacent
    assert is_simplicial(p3, 0)
    with pytest.raises(ValueError, match="out of range"):
        is_simplicial(p3, 3)


def test_exactly_one_of_graph_and_complement_connected():
    from cograph_bei import complement, is_connected

    for n in range(2, 8):
        for t in cograph_classes(n):
            g = cotree_to_graph(t)
            assert is_connected(g) != is_connected(complement(g))
            # root kind agrees with connectivity
            assert is_connected(g) == (not isinstance(t, Union))


def test_cotree_json_form():
    leaf = {"kind": "leaf", "v": 1}
    assert cotree_to_json_dict(Leaf(0)) == leaf
    assert cotree_to_json_dict(build_cotree(path_graph(3))) == {
        "kind": "join",
        "children": [
            {"kind": "union", "children": [leaf, {"kind": "leaf", "v": 3}]},
            {"kind": "leaf", "v": 2},
        ],
    }


# Ten thousand levels: far past the default recursion limit, so any walker
# that spends a Python frame per cotree level raises RecursionError.
DEEP_LEVELS = 10_000


def _level_kind(i: int) -> str:
    return "union" if i % 2 else "join"


def test_every_wrapper_handles_a_deep_cotree():
    # Level i puts the tree so far beside (union) or under (join) leaf i;
    # the expected values follow the leaf/union/join rules level by level.
    t = Leaf(0)
    reg, alpha, indep, cliques, key = 0, 1, 1, 1, b"L"
    for i in range(1, DEEP_LEVELS + 1):
        kind = _level_kind(i)
        complete = isinstance(t, Leaf)
        t = (Union if kind == "union" else Join)((t, Leaf(i)))
        tag = b"U" if kind == "union" else b"J"
        key = tag + b"(" + b",".join(sorted([key, b"L"])) + b")"
        if kind == "union":
            alpha, cliques = alpha + 1, cliques + 1
        else:
            reg, indep = (1 if complete else max(2, reg)), indep + 1
    assert reg_cograph(t) == reg == 2
    s = summarize_cotree(t)
    assert (s.size, s.reg, s.alpha, s.num_max_indep, s.num_max_cliques, s.key) == (
        DEEP_LEVELS + 1, reg, alpha, indep, cliques, key)

    d = cotree_to_json_dict(t)
    for i in range(DEEP_LEVELS, 0, -1):
        assert d.keys() == {"kind", "children"} and d["kind"] == _level_kind(i)
        assert len(d["children"]) == 2 and d["children"][1] == {"kind": "leaf", "v": i + 1}
        d = d["children"][0]
    assert d == {"kind": "leaf", "v": 1}
