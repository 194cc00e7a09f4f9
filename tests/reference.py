"""Reference implementations that only the tests use.

Each builds its answer the plain way, so the tests can hold the
package's mask-based code against it: a cotree expanded into an edge
list, the whole-graph P4 search, the component partition as vertex
sets, the simplicial-vertex test, gluing at a free vertex by relabeled
edges, and polynomial powers by repeated squaring.  The helpers at the
end are shared by several test modules.
"""

import networkx as nx

from cograph_bei import CotreeError, Graph, IntPoly, Join, build_cotree, reg_cograph
from cograph_bei.cotree import _find_p4_within, _fold
from cograph_bei.graph import _bits, _components_within


def cotree_to_graph(t) -> Graph:
    """Rebuild the graph a cotree represents, preserving leaf labels.

    The leaf labels must be exactly 0..n-1.  Invariant violations
    (nodes with fewer than two children, a union child of a union, a
    join child of a join, bad labels) raise :class:`CotreeError`.
    """
    edges = []

    def merge(x, parts) -> list:
        if len(parts) < 2:
            raise CotreeError("internal cotree nodes need at least 2 children")
        kind = type(x)
        for c in x.children:
            if isinstance(c, kind):
                raise CotreeError("union/join nodes must alternate")
        if isinstance(x, Join):
            for i, p in enumerate(parts):
                for q in parts[i + 1:]:
                    edges.extend((u, v) for u in p for v in q)
        return [v for p in parts for v in p]

    labels = _fold(t, lambda x: [x.v], merge)
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise CotreeError(f"leaf labels must be exactly 0..{n - 1}, got {sorted(labels)}")
    return Graph(n, edges)


def find_induced_p4(g: Graph):
    """First induced P4 in lexicographic quadruple order, or None."""
    return _find_p4_within(g, (1 << g.n) - 1)


def connected_components(g: Graph) -> list:
    """Partition of the vertices into components, ordered by minimum vertex."""
    return [frozenset(_bits(c)) for c in _components_within(g, (1 << g.n) - 1, complemented=False)]


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff the neighborhood of v induces a complete subgraph."""
    nbrs = g._mask(v)
    return all(nbrs & ~g._adj[u] == 1 << u for u in _bits(nbrs))


def glue_graphs(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Identify v2 of g2 with v1 of g1; both must be simplicial.

    The result has n1 + n2 - 1 vertices: g1 keeps its labels and the
    remaining g2 vertices follow in increasing order.  A non-simplicial
    gluing vertex raises ValueError, since the regularity and Hilbert
    series gluing rules require a vertex that is free on both sides.
    """
    for g, v, side in ((g1, v1, "first"), (g2, v2, "second")):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for the {side} graph")
        if not is_simplicial(g, v):
            raise ValueError(
                f"vertex {v} of the {side} graph is not simplicial; "
                "gluing requires a free vertex on both sides"
            )
    relabel = {}
    nxt = g1.n
    for w in range(g2.n):
        if w == v2:
            relabel[w] = v1
        else:
            relabel[w] = nxt
            nxt += 1
    edges = list(g1.edges())
    edges.extend((relabel[u], relabel[w]) for u, w in g2.edges())
    return Graph(g1.n + g2.n - 1, edges)


def poly_pow(p: IntPoly, exp: int) -> IntPoly:
    """p to the power exp, by repeated squaring."""
    if exp < 0:
        raise ValueError("negative powers are not polynomials")
    result = IntPoly((1,))
    base = p
    while exp:
        if exp & 1:
            result = result * base
        base = base * base
        exp >>= 1
    return result


def reg_of(g: Graph) -> int:
    """reg(S/J_G) of a cograph g, through its cotree."""
    return reg_cograph(build_cotree(g))


def to_nx(g: Graph) -> nx.Graph:
    """g as a networkx graph on the same vertices."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
