"""Shared hypothesis strategies for random graphs and cographs."""

from itertools import combinations

from hypothesis import strategies as st

from cograph_bei import Graph, enumerate_cotrees

from reference import cotree_to_graph

_CLASS_CACHE = {}


def cograph_classes(n):
    if n not in _CLASS_CACHE:
        _CLASS_CACHE[n] = tuple(enumerate_cotrees(n))
    return _CLASS_CACHE[n]


def permute_graph(g: Graph, perm) -> Graph:
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Uniform-ish random graph from an edge bitmask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, (p for i, p in enumerate(pairs) if (mask >> i) & 1))


@st.composite
def cotrees(draw, min_n=1, max_n=8):
    """A canonical cotree drawn from the enumerated isomorphism classes."""
    n = draw(st.integers(min_n, max_n))
    return draw(st.sampled_from(cograph_classes(n)))


@st.composite
def cographs(draw, min_n=1, max_n=8):
    """A cograph with shuffled vertex labels."""
    t = draw(cotrees(min_n, max_n))
    g = cotree_to_graph(t)
    perm = draw(st.permutations(range(g.n)))
    return permute_graph(g, perm)
