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
    build_cotree,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    join,
    oracle_longest_induced_path,
    oracle_maximal_independent_sets,
    path_graph,
    summarize_cotree,
)

from reference import cotree_to_graph, to_nx
from strategies import cograph_classes, cographs, graphs


def _dual(t):
    """Swap union and join nodes; represents the complement cograph."""
    if isinstance(t, Leaf):
        return t
    kind = Join if isinstance(t, Union) else Union
    return kind(tuple(_dual(c) for c in t.children))


def _alpha_indep_cliques(t):
    s = summarize_cotree(t)
    return s.alpha, s.num_max_indep, s.num_max_cliques


def test_recursion_examples():
    for n in range(1, 6):
        assert _alpha_indep_cliques(build_cotree(complete_graph(n))) == (1, n, 1)
    assert _alpha_indep_cliques(build_cotree(path_graph(3))) == (2, 2, 2)
    two_p3 = build_cotree(disjoint_union(path_graph(3), path_graph(3)))
    assert _alpha_indep_cliques(two_p3)[:2] == (4, 4)
    assert summarize_cotree(build_cotree(Graph(5))).num_max_cliques == 5


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
        oracle_maximal_independent_sets(Graph(21))


def test_recursions_match_oracles_small():
    for n in range(1, 7):
        for t in cograph_classes(n):
            g = cotree_to_graph(t)
            indep = oracle_maximal_independent_sets(g)
            cliques = oracle_maximal_independent_sets(complement(g))
            assert _alpha_indep_cliques(t) == (
                max(len(s) for s in indep), len(indep), len(cliques))


def test_clique_count_is_complement_dual():
    for n in range(1, 8):
        for t in cograph_classes(n):
            assert summarize_cotree(t).num_max_cliques == summarize_cotree(_dual(t)).num_max_indep


def test_alpha_at_most_clique_count():
    for n in range(1, 8):
        for t in cograph_classes(n):
            s = summarize_cotree(t)
            assert s.alpha <= s.num_max_cliques


@given(cographs(max_n=6), cographs(max_n=6))
def test_union_and_join_recurrences(g, h):
    sg, sh, su, sj = (
        summarize_cotree(build_cotree(x)) for x in (g, h, disjoint_union(g, h), join(g, h))
    )
    assert su.num_max_indep == sg.num_max_indep * sh.num_max_indep
    assert sj.num_max_indep == sg.num_max_indep + sh.num_max_indep
    assert su.alpha == sg.alpha + sh.alpha
    assert sj.alpha == max(sg.alpha, sh.alpha)


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
    assert oracle_longest_induced_path(Graph(3)) == 0
    assert oracle_longest_induced_path(complete_graph(6)) == 1
    with pytest.raises(ValueError, match="limited"):
        oracle_longest_induced_path(Graph(13))


@given(graphs(max_n=10))
def test_independent_sets_match_networkx_cliques_of_complement(g):
    cliques = nx.find_cliques(nx.complement(to_nx(g)))
    expected = sorted(map(frozenset, cliques), key=lambda s: (len(s), sorted(s)))
    assert oracle_maximal_independent_sets(g) == expected


@given(graphs(max_n=8))
def test_longest_induced_path_matches_subset_brute_force(g):
    # a vertex set induces a path iff it is connected with k - 1 edges
    # and maximum degree at most 2
    h = to_nx(g)
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
