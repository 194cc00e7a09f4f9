import pytest
from hypothesis import given

from cograph_bei import (
    Graph,
    Join,
    Leaf,
    NotACographError,
    P4Witness,
    Union,
    bounds_report,
    build_cotree,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    has_universal_vertex,
    is_extremal_characterized,
    join,
    oracle_longest_induced_path,
    order_bound,
    path_graph,
    reg_cograph,
    summarize_cotree,
)

from reference import cotree_to_graph, reg_of
from strategies import cograph_classes, cographs, permute_graph


def test_reg_examples():
    assert reg_of(complete_graph(1)) == 0
    assert reg_of(complete_graph(2)) == 1
    assert reg_of(path_graph(3)) == 2
    assert reg_of(complete_graph(5)) == 1
    two_p3 = disjoint_union(path_graph(3), path_graph(3))
    assert reg_of(two_p3) == 4
    assert reg_of(cone(two_p3)) == 4


@given(cographs(max_n=6), cographs(max_n=6))
def test_reg_additive_under_disjoint_union(g, h):
    assert reg_of(disjoint_union(g, h)) == reg_of(g) + reg_of(h)


@given(cographs(max_n=7))
def test_reg_is_label_independent(g):
    # relabeling permutes cotree children, so this also covers
    # child-order independence of the recursion
    perm = list(range(g.n))[::-1]
    relabeled = permute_graph(g, perm)
    assert reg_of(relabeled) == reg_of(g)


@given(cographs(max_n=6), cographs(max_n=6))
def test_reg_join_rule(g, h):
    joined = reg_of(join(g, h))
    if all(x.edge_count == x.n * (x.n - 1) // 2 for x in (g, h)):
        assert joined == 1
    else:
        assert joined == max(reg_of(g), reg_of(h), 2)


@given(cographs(max_n=7))
def test_reg_cone_invariance(g):
    c = cone(g)
    if g.edge_count == g.n * (g.n - 1) // 2:
        assert reg_of(c) == 1
    else:
        assert reg_of(c) == max(reg_of(g), 2)
    assert has_universal_vertex(c)


def test_order_bound_examples():
    assert order_bound(6, False) == (2, 0, 4)
    assert order_bound(6, True) == (2, 0, 3)
    assert order_bound(7, False) == (3, 2, 4)
    assert order_bound(7, True) == (3, 2, 4)  # no refinement when a = 2
    assert order_bound(1, True) == (1, 2, 0)
    assert order_bound(2, True) == (1, 1, 1)  # no refinement when k = 1
    with pytest.raises(ValueError):
        order_bound(0, False)


def test_order_bound_decomposition_is_unique():
    for n in range(1, 100):
        k, a, _ = order_bound(n, False)
        assert n == 3 * k - a and k >= 1 and a in (0, 1, 2)


def test_bounds_report_examples():
    two_p3 = disjoint_union(path_graph(3), path_graph(3))
    rep = bounds_report(two_p3)
    assert rep.reg == 4 and rep.order_bound == 4 and rep.tight_order_bound
    assert rep.bound_maxdeg is None  # disconnected
    assert rep.lower_bound_ell == 2

    rep = bounds_report(complete_graph(1))
    assert rep.reg == 0 and rep.lower_bound_ell == 0 and rep.upper_matsuda == 0
    assert rep.bound_i == 1 and rep.bound_alpha == 1 and rep.bound_c == 1

    rep = bounds_report(cone(two_p3))
    assert rep.n == 7 and rep.reg == 4
    assert rep.bound_maxdeg == 6  # the apex
    assert rep.reg <= rep.bound_maxdeg


def test_bounds_report_sandwich_on_all_small_cographs():
    for n in range(1, 8):
        for t in cograph_classes(n):
            rep = bounds_report(cotree_to_graph(t))
            assert rep.lower_bound_ell == oracle_longest_induced_path(cotree_to_graph(t))
            upper = min(rep.order_bound, rep.bound_i, rep.bound_alpha, rep.bound_c,
                        rep.upper_matsuda)
            assert rep.lower_bound_ell <= rep.reg <= upper
            if rep.bound_maxdeg is not None:
                assert rep.reg <= rep.bound_maxdeg


def test_bounds_report_beyond_path_oracle_guard():
    # 14 vertices is past the exhaustive induced-path search
    g = path_graph(2)
    for _ in range(4):
        g = disjoint_union(g, path_graph(3))
    assert g.n == 14
    rep = bounds_report(g)
    assert rep.lower_bound_ell == 2
    assert rep.reg == 9 and rep.order_bound == 9
    # edgeless and union-of-cliques cases of the structural rule
    assert bounds_report(Graph(15)).lower_bound_ell == 0
    assert bounds_report(disjoint_union(complete_graph(7), complete_graph(7))).lower_bound_ell == 1


def test_bounds_report_rejects_non_cograph():
    with pytest.raises(NotACographError) as exc:
        bounds_report(path_graph(4))
    assert exc.value.witness == P4Witness(0, 1, 2, 3)
    assert "induce a P4" in str(exc.value)


def test_extremal_characterization_examples():
    two_p3 = disjoint_union(path_graph(3), path_graph(3))
    assert is_extremal_characterized(build_cotree(two_p3))
    p3_p2 = disjoint_union(path_graph(3), path_graph(2))
    assert is_extremal_characterized(build_cotree(p3_p2))
    assert not is_extremal_characterized(build_cotree(complete_graph(6)))
    assert is_extremal_characterized(build_cotree(path_graph(2)))  # n=2, a=1
    assert is_extremal_characterized(build_cotree(path_graph(3)))  # n=3, a=0
    assert not is_extremal_characterized(build_cotree(Graph(3)))
    # n = 8 has a = 1, so four single edges carry too many P2 components
    four_p2 = disjoint_union(
        disjoint_union(path_graph(2), path_graph(2)),
        disjoint_union(path_graph(2), path_graph(2)),
    )
    assert not is_extremal_characterized(build_cotree(four_p2))
    with pytest.raises(ValueError, match="a in"):
        is_extremal_characterized(build_cotree(disjoint_union(path_graph(2), path_graph(2))))


def test_extremal_characterization_matches_tightness():
    # equality holders of the 2k - a cap are exactly the characterized family
    for n in range(1, 9):
        k, a, cap = order_bound(n, False)
        if a == 2:
            continue
        for t in cograph_classes(n):
            assert (reg_cograph(t) == cap) == is_extremal_characterized(t)


# The family written out as a structural rule: every component is a
# single edge or a 2-edge path, with exactly a single edges.
P2_KEY = summarize_cotree(Join((Leaf(0), Leaf(1)))).key
P3_KEY = summarize_cotree(Join((Leaf(0), Union((Leaf(1), Leaf(2)))))).key


def structural_rule(t):
    components = t.children if isinstance(t, Union) else (t,)
    keys = [summarize_cotree(c).key for c in components]
    a = order_bound(summarize_cotree(t).size, False)[1]
    return all(key in (P2_KEY, P3_KEY) for key in keys) and keys.count(P2_KEY) == a


def test_extremal_characterization_matches_the_structural_rule():
    matches = 0
    for n in range(1, 10):
        if order_bound(n, False)[1] == 2:
            continue
        for t in cograph_classes(n):
            expected = structural_rule(t)
            assert is_extremal_characterized(t) == expected
            matches += expected
    assert matches == 6  # one class for each n in 2, 3, 5, 6, 8, 9


def test_has_universal_vertex_examples():
    assert has_universal_vertex(path_graph(3))
    assert not has_universal_vertex(disjoint_union(path_graph(2), path_graph(2)))
    assert has_universal_vertex(complete_graph(1))
    assert not has_universal_vertex(cycle_graph(4))
