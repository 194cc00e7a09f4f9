import pytest

from cograph_bei import (
    P4Witness,
    build_cotree,
    complete_graph,
    cone,
    connected_with_reg,
    disjoint_union,
    has_universal_vertex,
    is_connected,
    max_reg_cograph,
    order_bound,
    path_graph,
    reg_cograph,
)

from reference import reg_of



def test_max_reg_cograph_examples():
    assert max_reg_cograph(6) == disjoint_union(path_graph(3), path_graph(3))
    assert max_reg_cograph(5) == disjoint_union(path_graph(3), path_graph(2))
    assert max_reg_cograph(4) == disjoint_union(path_graph(2), path_graph(2))
    with pytest.raises(ValueError):
        max_reg_cograph(1)


def test_max_reg_cograph_attains_the_cap():
    for n in range(2, 31):
        g = max_reg_cograph(n)
        assert g.n == n
        t = build_cotree(g)
        assert not isinstance(t, P4Witness)
        assert reg_cograph(t) == order_bound(n, False)[2]


def test_cone_examples():
    assert cone(complete_graph(1)) == complete_graph(2)
    g = cone(disjoint_union(path_graph(3), path_graph(3)))
    assert g.n == 7 and is_connected(g)
    assert g.degree(6) == 6  # apex is the last vertex
    assert reg_of(g) == 4
    assert has_universal_vertex(g)


def test_connected_with_reg_examples():
    assert connected_with_reg(1) == complete_graph(2)
    g4 = connected_with_reg(4)
    assert g4.n == 7 and reg_of(g4) == 4
    g3 = connected_with_reg(3)
    assert g3.n == 6 and reg_of(g3) == 3
    with pytest.raises(ValueError):
        connected_with_reg(0)


def test_connected_with_reg_hits_every_value():
    for r in range(1, 21):
        g = connected_with_reg(r)
        t = build_cotree(g)
        assert not isinstance(t, P4Witness)
        assert is_connected(g)
        assert reg_cograph(t) == r


def test_connected_with_reg_matches_the_explicit_parts():
    # cones over r/2 two-edge paths (even r) or (r-1)/2 of them plus an edge
    p3, p2 = path_graph(3), path_graph(2)
    assert connected_with_reg(1) == complete_graph(2)
    for r in range(2, 301):
        parts = [p3] * (r // 2) + [p2] * (r % 2)
        assert connected_with_reg(r) == cone(disjoint_union(*parts))
