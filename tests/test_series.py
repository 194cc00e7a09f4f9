import pytest
from hypothesis import given, strategies as st

from cograph_bei import (
    HilbertSeries,
    IntPoly,
    build_chain,
    complete_graph,
    counterexample_base,
    find_induced_p4,
    glue_graphs,
    is_simplicial,
    path_graph,
    poly_mul,
    series_glue,
)


def schoolbook_mul(a, b):
    """Independent reference: dict-of-degree accumulation."""
    acc = {}
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            acc[i + j] = acc.get(i + j, 0) + ca * cb
    out = [0] * (max(acc, default=-1) + 1)
    for d, c in acc.items():
        out[d] = c
    while out and out[-1] == 0:
        out.pop()
    return out


small_polys = st.lists(st.integers(-9, 9), max_size=6)


def test_poly_basics():
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly([1, 2, 0]).coeffs == (1, 2)
    assert IntPoly([]).degree == -1
    assert IntPoly([3]).degree == 0
    with pytest.raises(TypeError):
        IntPoly([1.5])


def test_poly_mul_examples():
    one_plus = IntPoly([1, 1])
    one_minus = IntPoly([1, -1])
    assert poly_mul(one_plus, one_minus) == IntPoly([1, 0, -1])
    p = IntPoly([3, 0, 2])
    assert poly_mul(p, IntPoly([1])) == p
    base = IntPoly([1, 7, 17, 13])
    assert poly_mul(base, base) == IntPoly([1, 14, 83, 264, 471, 442, 169])
    assert poly_mul(base, base).coeffs == tuple(schoolbook_mul([1, 7, 17, 13], [1, 7, 17, 13]))


@given(small_polys, small_polys)
def test_poly_mul_matches_schoolbook(a, b):
    assert poly_mul(IntPoly(a), IntPoly(b)).coeffs == tuple(schoolbook_mul(a, b))


@given(small_polys, small_polys)
def test_poly_mul_degree_adds(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if p and q:
        assert (p * q).degree == p.degree + q.degree


def test_poly_pow():
    base = IntPoly([1, 1])
    assert base ** 0 == IntPoly([1])
    assert base ** 3 == IntPoly([1, 3, 3, 1])


@given(small_polys)
def test_divide_by_one_minus_t_inverts_multiplication(q_coeffs):
    q = IntPoly(q_coeffs)
    p = q * IntPoly([1, -1])
    if p:
        assert p.divide_by_one_minus_t() == q
    nondiv = IntPoly([1, 1])
    with pytest.raises(ValueError, match="divisible"):
        nondiv.divide_by_one_minus_t()


def test_series_reduction():
    # (1 - t) * (1 + t) / (1-t)^3 reduces to (1 + t) / (1-t)^2
    h = HilbertSeries(IntPoly([1, 0, -1]), 3)
    assert h.numerator == IntPoly([1, 1])
    assert h.denom_exp == 2
    assert h.numerator.evaluate(1) != 0
    # already reduced input is untouched
    h2 = HilbertSeries(h.numerator, h.denom_exp)
    assert h2 == h
    with pytest.raises(ValueError, match="nonzero"):
        HilbertSeries(IntPoly([]), 2)
    with pytest.raises(ValueError, match="reduce"):
        HilbertSeries(IntPoly([1, -1]), 0)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=5), st.integers(0, 4))
def test_series_reduction_preserves_the_rational_function(coeffs, extra):
    num = IntPoly([1] + coeffs)
    reduced = HilbertSeries(num, 6)
    # padding numerator and denominator with (1-t)^extra changes nothing
    padded = HilbertSeries(num * IntPoly([1, -1]) ** extra, 6 + extra)
    assert padded == reduced
    assert padded.numerator.evaluate(1) != 0


def test_series_glue_examples():
    _, base, _ = counterexample_base()
    glued = series_glue(base, base)
    assert glued.numerator == IntPoly([1, 7, 17, 13]) ** 2
    assert glued.denom_exp == 16
    # the one-vertex graph contributes 1 / (1-t)^2, an identity for gluing
    point = HilbertSeries(IntPoly([1]), 2)
    assert series_glue(base, point) == base
    with pytest.raises(ValueError, match="at least 2"):
        series_glue(HilbertSeries(IntPoly([1]), 0), HilbertSeries(IntPoly([1]), 1))


@given(st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_series_glue_commutative_associative(a, b, c):
    def mk(coeffs):
        p = IntPoly([1] + coeffs)  # constant term 1 keeps it nonzero
        return HilbertSeries(p, 5)

    ha, hb, hc = mk(a), mk(b), mk(c)
    assert series_glue(ha, hb) == series_glue(hb, ha)
    assert series_glue(series_glue(ha, hb), hc) == series_glue(ha, series_glue(hb, hc))


def test_counterexample_base_facts():
    g, series, reg = counterexample_base()
    assert g.n == 8
    expected = {(0, 7), (1, 5), (2, 6), (2, 7), (3, 4), (3, 7),
                (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)}
    assert set(g.edges()) == expected
    assert reg == 4
    assert series == HilbertSeries(IntPoly([1, 7, 17, 13]), 9)
    assert series.h_degree == 3
    assert is_simplicial(g, 0) and is_simplicial(g, 1)
    witness = find_induced_p4(g)
    assert witness is not None
    a, b, c, d = witness.vertices()
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))


def test_glue_graphs_examples():
    p3 = glue_graphs(complete_graph(2), 1, complete_graph(2), 0)
    assert p3 == path_graph(3)

    base, _, _ = counterexample_base()
    doubled = glue_graphs(base, 0, base, 0)
    assert doubled.n == 15
    expected = [
        [1, 8], [1, 15], [2, 6], [3, 7], [3, 8], [4, 5], [4, 8],
        [5, 6], [5, 7], [6, 7], [6, 8], [7, 8],
        [9, 13], [10, 14], [10, 15], [11, 12], [11, 15],
        [12, 13], [12, 14], [13, 14], [13, 15], [14, 15],
    ]
    assert [[u + 1, v + 1] for u, v in doubled.edges()] == sorted(expected)


def test_glue_graphs_rejects_bad_vertices():
    base, _, _ = counterexample_base()
    assert not is_simplicial(base, 7)
    with pytest.raises(ValueError, match="simplicial"):
        glue_graphs(base, 7, base, 0)
    with pytest.raises(ValueError, match="simplicial"):
        glue_graphs(base, 0, base, 7)
    with pytest.raises(ValueError, match="out of range"):
        glue_graphs(base, 8, base, 0)


def test_build_chain_small():
    rep = build_chain(1)
    assert (rep.reg, rep.h_degree, rep.gap, rep.n_vertices) == (4, 3, 1, 8)
    rep = build_chain(2)
    assert (rep.reg, rep.h_degree, rep.gap, rep.n_vertices) == (8, 6, 2, 15)
    assert rep.series.denom_exp == 16
    with pytest.raises(ValueError):
        build_chain(0)


def test_build_chain_growth():
    base = IntPoly([1, 7, 17, 13])
    base_graph = counterexample_base()[0]
    glued, free_end = base_graph, 1
    for k in range(1, 6):
        rep = build_chain(k)
        # reference: glue one copy at a time along free vertices
        if k > 1:
            glued, free_end = glue_graphs(glued, free_end, base_graph, 0), glued.n
        assert rep.graph == glued
        assert rep.gap == k
        assert rep.n_vertices == 7 * k + 1
        assert rep.series.denom_exp == 7 * k + 2
        assert rep.h_degree == 3 * k
        assert rep.series.numerator == base ** k
        assert all(c > 0 for c in rep.series.numerator.coeffs)


def test_chain_report_json():
    rep = build_chain(1)
    d = rep.to_json_dict()
    assert d["k"] == 1 and d["n_vertices"] == 8 and d["gap"] == 1
    assert d["series"]["numerator"] == ["1", "7", "17", "13"]
    assert d["series"]["denom_exp"] == 9
    assert d["graph"]["n"] == 8
