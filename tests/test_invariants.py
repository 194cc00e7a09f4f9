from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given

from cograph_bei import (
    Graph,
    InvariantReport,
    Join,
    Leaf,
    Union,
    alpha_cotree,
    build_cotree,
    complement,
    complete_graph,
    count_max_cliques_cotree,
    count_max_indep_cotree,
    cotree_to_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    oracle_longest_induced_path,
    oracle_maximal_independent_sets,
    path_graph,
)

from strategies import cograph_classes, cographs, graphs


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _dual(t):
    """Swap union and join nodes; represents the complement cograph."""
    if isinstance(t, Leaf):
        return t
    kind = Join if isinstance(t, Union) else Union
    return kind(tuple(_dual(c) for c in t.children))


def test_recursion_examples():
    for n in range(1, 6):
        kn = build_cotree(complete_graph(n))
        assert alpha_cotree(kn) == 1
        assert count_max_indep_cotree(kn) == n
        assert count_max_cliques_cotree(kn) == 1
    p3 = build_cotree(path_graph(3))
    assert alpha_cotree(p3) == 2
    assert count_max_indep_cotree(p3) == 2
    assert count_max_cliques_cotree(p3) == 2
    two_p3 = build_cotree(disjoint_union(path_graph(3), path_graph(3)))
    assert alpha_cotree(two_p3) == 4
    assert count_max_indep_cotree(two_p3) == 4
    en = build_cotree(empty_graph(5))
    assert count_max_cliques_cotree(en) == 5


def test_oracle_examples():
    assert oracle_maximal_independent_sets(complete_graph(3)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    assert oracle_maximal_independent_sets(path_graph(3)) == [
        frozenset({1}),
        frozenset({0, 2}),
    ]
    with pytest.raises(ValueError, match="limited"):
        oracle_maximal_independent_sets(empty_graph(21))


def test_recursions_match_oracles_small():
    for n in range(1, 7):
        for t in cograph_classes(n):
            g = cotree_to_graph(t)
            indep = oracle_maximal_independent_sets(g)
            cliques = oracle_maximal_independent_sets(complement(g))
            assert alpha_cotree(t) == max(len(s) for s in indep)
            assert count_max_indep_cotree(t) == len(indep)
            assert count_max_cliques_cotree(t) == len(cliques)


def test_clique_count_is_complement_dual():
    for n in range(1, 8):
        for t in cograph_classes(n):
            assert count_max_cliques_cotree(t) == count_max_indep_cotree(_dual(t))


def test_alpha_at_most_clique_count():
    for n in range(1, 8):
        for t in cograph_classes(n):
            assert alpha_cotree(t) <= count_max_cliques_cotree(t)


@given(cographs(max_n=6), cographs(max_n=6))
def test_union_and_join_recurrences(g, h):
    tg, th = build_cotree(g), build_cotree(h)
    tu = build_cotree(disjoint_union(g, h))
    tj = build_cotree(join(g, h))
    assert count_max_indep_cotree(tu) == count_max_indep_cotree(tg) * count_max_indep_cotree(th)
    assert count_max_indep_cotree(tj) == count_max_indep_cotree(tg) + count_max_indep_cotree(th)
    assert alpha_cotree(tu) == alpha_cotree(tg) + alpha_cotree(th)
    assert alpha_cotree(tj) == max(alpha_cotree(tg), alpha_cotree(th))


def _recursive_longest_induced_path(g):
    # the recursive DFS the oracle replaced, with no bound
    adj = g._adj
    best = 0

    def extend(last, length, in_path, forbidden):
        nonlocal best
        best = max(best, length)
        for w in range(g.n):
            if adj[last] >> w & 1 and not (in_path | forbidden) >> w & 1:
                extend(w, length + 1, in_path | 1 << w, forbidden | adj[last])

    for start in range(g.n):
        extend(start, 0, 1 << start, 0)
    return best


@given(graphs(max_n=10))
def test_longest_induced_path_matches_the_recursive_search(g):
    assert oracle_longest_induced_path(g) == _recursive_longest_induced_path(g)


def test_longest_induced_path_on_every_small_labelled_graph():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, (p for i, p in enumerate(pairs) if code >> i & 1))
            assert oracle_longest_induced_path(g) == _recursive_longest_induced_path(g)


def test_longest_induced_path_on_paths_cycles_and_complements():
    # long paths are where the bound prunes deepest
    for n in range(1, 13):
        bases = [(path_graph(n), n - 1)]
        if n >= 3:
            bases.append((cycle_graph(n), 1 if n == 3 else n - 2))
        for g, ell in bases:
            assert oracle_longest_induced_path(g) == _recursive_longest_induced_path(g) == ell
            co_g = complement(g)
            assert oracle_longest_induced_path(co_g) == _recursive_longest_induced_path(co_g)


def test_longest_induced_path_examples():
    assert oracle_longest_induced_path(path_graph(4)) == 3
    assert oracle_longest_induced_path(cycle_graph(5)) == 3
    assert oracle_longest_induced_path(empty_graph(3)) == 0
    assert oracle_longest_induced_path(complete_graph(6)) == 1
    with pytest.raises(ValueError, match="limited"):
        oracle_longest_induced_path(empty_graph(13))


@given(graphs(max_n=10))
def test_independent_sets_match_networkx_cliques_of_complement(g):
    cliques = nx.find_cliques(nx.complement(_to_networkx(g)))
    expected = sorted(map(frozenset, cliques), key=lambda s: (len(s), sorted(s)))
    assert oracle_maximal_independent_sets(g) == expected


@given(graphs(max_n=8))
def test_longest_induced_path_matches_subset_brute_force(g):
    # a vertex set induces a path iff it is connected with k - 1 edges
    # and maximum degree at most 2
    h = _to_networkx(g)
    best = 0
    for k in range(2, g.n + 1):
        for vs in combinations(range(g.n), k):
            sub = h.subgraph(vs)
            if (sub.number_of_edges() == k - 1 and max(d for _, d in sub.degree) <= 2
                    and nx.is_connected(sub)):
                best = k - 1
    assert oracle_longest_induced_path(g) == best


@given(cographs())
def test_cograph_induced_paths_are_short(g):
    ell = oracle_longest_induced_path(g)
    assert ell <= 2
    if g.edge_count:
        assert ell >= 1


def test_invariant_report():
    rep = InvariantReport(alpha=2, num_max_indep=2, num_max_cliques=2, max_degree=2)
    assert rep.to_json_dict() == {
        "alpha": "2",
        "num_max_indep": "2",
        "num_max_cliques": "2",
        "max_degree": "2",
    }
