"""Cotree decomposition of cographs, with induced-P4 certificates.

A cograph (P4-free graph) decomposes recursively: a single vertex is a
leaf, a disconnected cograph is the disjoint union of its components,
and a connected cograph on at least two vertices is the join of the
complements of the components of its complement (Corneil, Lerchs and
Burlingham, 1981).  The recursion tree is the cotree.  It is unique up
to reordering children, which makes a sorted encoding of the tree a
canonical form deciding cograph isomorphism.
"""

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .graph import Graph, _components_within

__all__ = [
    "Cotree",
    "CotreeError",
    "CotreeSummary",
    "Join",
    "Leaf",
    "P4Witness",
    "Union",
    "build_cotree",
    "canonical_key",
    "cotree_from_json_dict",
    "cotree_leaves",
    "cotree_size",
    "cotree_to_graph",
    "cotree_to_json_dict",
    "find_induced_p4",
    "is_simplicial",
    "summarize_cotree",
]


@dataclass(frozen=True)
class Leaf:
    v: int


@dataclass(frozen=True)
class Union:
    children: tuple


@dataclass(frozen=True)
class Join:
    children: tuple


Cotree = Leaf | Union | Join


@dataclass(frozen=True)
class P4Witness:
    """An induced path a-b-c-d: edges ab, bc, cd; non-edges ac, ad, bd."""

    a: int
    b: int
    c: int
    d: int

    def vertices(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


class CotreeError(ValueError):
    """Raised when a tree violates the cotree invariants."""


# ---------------------------------------------------------------------------
# recognition


def _find_p4_within(g: Graph, vs) -> P4Witness | None:
    for quad in combinations(sorted(vs), 4):
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


def find_induced_p4(g: Graph) -> P4Witness | None:
    """First induced P4 in lexicographic quadruple order, or None."""
    return _find_p4_within(g, range(g.n))


def build_cotree(g: Graph):
    """Decompose g into a cotree, or certify failure with an induced P4.

    Returns a :class:`Cotree` whose reconstruction equals g when g is a
    cograph, else a :class:`P4Witness`.  The decomposition follows the
    complement-reducible characterization: disconnected pieces become
    union nodes, pieces with disconnected complement become join nodes.
    The witness comes from the first piece, depth first, that splits
    neither way.
    """
    preorder = []
    stack = [frozenset(range(g.n))]
    while stack:
        vs = stack.pop()
        if len(vs) == 1:
            preorder.append(Leaf(next(iter(vs))))
            continue
        comps = _components_within(g, vs, complemented=False)
        if len(comps) > 1:
            kind = Union
        else:
            comps = _components_within(g, vs, complemented=True)
            if len(comps) > 1:
                kind = Join
            else:
                witness = _find_p4_within(g, vs)
                assert witness is not None, "connected co-connected graph must contain a P4"
                return witness
        preorder.append((kind, len(comps)))
        stack.extend(reversed(comps))
    return _from_preorder(preorder)


def _from_preorder(preorder: list) -> Cotree:
    """The tree listed in preorder, each node a Leaf or (class, child count)."""
    built = []
    for item in reversed(preorder):
        if isinstance(item, Leaf):
            built.append(item)
        else:
            kind, k = item
            built.append(kind(tuple(built.pop() for _ in range(k))))
    return built[0]


# ---------------------------------------------------------------------------
# the fold: every walk over a cotree goes through ``_postorder``, which
# keeps its own stack, so cotrees of any depth are safe


def _postorder(t: Cotree) -> list:
    """Every node of t, each after all of its children, children in order."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (Union, Join)):
            stack.extend(node.children)
        elif not isinstance(node, Leaf):
            raise CotreeError(f"not a cotree node: {node!r}")
    out.reverse()
    return out


def _fold(t: Cotree, leaf, node):
    """Fold t bottom-up: ``leaf(x)`` for leaves, ``node(x, child_values)`` else."""
    values = []
    for x in _postorder(t):
        if isinstance(x, Leaf):
            values.append(leaf(x))
        else:
            cut = len(values) - len(x.children)
            parts = values[cut:]
            del values[cut:]
            values.append(node(x, parts))
    return values[0]


@dataclass(frozen=True)
class CotreeSummary:
    """Size, reg(S/J_G), alpha(G), i(G), c(G), the longest induced path
    length ell and the canonical key of a cotree, from one fold."""

    size: int
    reg: int
    alpha: int
    num_max_indep: int
    num_max_cliques: int
    ell: int
    key: bytes


def _summary_node(x, parts) -> tuple:
    sizes, regs, alphas, indeps, cliques, ells, keys = zip(*parts)
    key = b",".join(sorted(keys))
    if isinstance(x, Union):
        return (sum(sizes), sum(regs), sum(alphas), prod(indeps), sum(cliques), max(ells),
                b"U(" + key + b")")
    # A join of leaves only is a complete graph; any other join has a
    # union child, whose two non-adjacent vertices and a vertex of
    # another child induce a 2-edge path.
    complete = all(isinstance(c, Leaf) for c in x.children)
    return (sum(sizes), 1 if complete else max(2, *regs), max(alphas), sum(indeps),
            prod(cliques), 1 if complete else 2, b"J(" + key + b")")


def summarize_cotree(t: Cotree) -> CotreeSummary:
    """Size, regularity, invariants, ell and canonical key of t in one pass."""
    return CotreeSummary(*_fold(t, lambda x: (1, 0, 1, 1, 1, 0, b"L"), _summary_node))


def cotree_leaves(t: Cotree) -> list:
    return [x.v for x in _postorder(t) if isinstance(x, Leaf)]


def cotree_size(t: Cotree) -> int:
    return summarize_cotree(t).size


def cotree_to_graph(t: Cotree) -> Graph:
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


def canonical_key(t: Cotree) -> bytes:
    """Label-independent encoding; equal keys mean isomorphic cographs.

    Leaves map to a fixed token and internal nodes encode their kind
    plus the lexicographically sorted child keys, so the key does not
    depend on leaf labels or child order.
    """
    return summarize_cotree(t).key


# ---------------------------------------------------------------------------
# free vertices


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff the neighborhood of v induces a complete subgraph."""
    nbrs = g.neighbors(v)
    return all(g.has_edge(u, w) for u, w in combinations(sorted(nbrs), 2))


# ---------------------------------------------------------------------------
# JSON


def cotree_to_json_dict(t: Cotree) -> dict:
    return _fold(
        t,
        lambda x: {"kind": "leaf", "v": x.v + 1},
        lambda x, parts: {"kind": "union" if isinstance(x, Union) else "join", "children": parts},
    )


def cotree_from_json_dict(d: dict) -> Cotree:
    preorder = []
    stack = [d]
    while stack:
        d = stack.pop()
        try:
            kind = d["kind"]
        except (TypeError, KeyError):
            raise CotreeError("cotree JSON needs a 'kind' field")
        if kind == "leaf":
            v = d.get("v")
            if not isinstance(v, int) or v < 1:
                raise CotreeError("leaf JSON needs a positive integer 'v'")
            preorder.append(Leaf(v - 1))
        elif kind in ("union", "join"):
            children = list(d.get("children", ()))
            if len(children) < 2:
                raise CotreeError(f"{kind} node needs at least 2 children")
            preorder.append((Union if kind == "union" else Join, len(children)))
            stack.extend(reversed(children))
        else:
            raise CotreeError(f"unknown cotree node kind {kind!r}")
    return _from_preorder(preorder)
