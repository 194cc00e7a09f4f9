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
from math import prod

from .graph import Graph, _bits, _components_within

__all__ = [
    "Cotree",
    "CotreeError",
    "CotreeSummary",
    "Join",
    "Leaf",
    "P4Witness",
    "Union",
    "build_cotree",
    "cotree_to_json_dict",
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


def _find_p4_within(g: Graph, vs: int) -> P4Witness | None:
    """The lex-first induced P4 inside the vertex mask vs, or None.

    Each triple a < b < c is extended by the lowest fourth vertex d > c
    that completes an induced P4.  Three vertices of a P4 induce either
    a 2-edge path x-y-z, which d extends at one end (adjacent to exactly
    one of x and z, not to y), or an edge xy plus a vertex z, which d
    links to one end of the edge.  The path is walked from its smaller
    end.
    """
    adj = g._adj
    for a in _bits(vs):
        for b in _bits(vs >> a + 1 << a + 1):
            if adj[a] >> b & 1:
                # an edge ab: a triangle abc extends to no P4
                cs = ~(adj[a] & adj[b])
            else:
                # a non-edge ab: an edgeless triple extends to no P4
                cs = adj[a] | adj[b]
            for c in _bits(cs & vs >> b + 1 << b + 1):
                ab, ac, bc = adj[a] >> b & 1, adj[a] >> c & 1, adj[b] >> c & 1
                two_edges = ab + ac + bc == 2
                if two_edges:
                    x, y, z = (b, a, c) if not bc else (a, b, c) if not ac else (a, c, b)
                    ds = (adj[x] ^ adj[z]) & ~adj[y]
                else:
                    x, y, z = (a, b, c) if ab else (a, c, b) if ac else (b, c, a)
                    ds = adj[z] & (adj[x] ^ adj[y])
                ds &= vs >> c + 1 << c + 1
                if not ds:
                    continue
                d = (ds & -ds).bit_length() - 1
                if two_edges:
                    path = (d, x, y, z) if adj[x] >> d & 1 else (x, y, z, d)
                else:
                    path = (z, d, x, y) if adj[x] >> d & 1 else (z, d, y, x)
                return P4Witness(*(path if path[0] < path[3] else path[::-1]))
    return None


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
    stack = [(1 << g.n) - 1]  # vertex masks of the pieces still to split
    while stack:
        vs = stack.pop()
        if not vs & (vs - 1):
            preorder.append(Leaf(vs.bit_length() - 1))
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
    length ell and the canonical key of a cotree, from one fold.

    The key encodes each node's kind and its sorted child keys, so it
    does not depend on leaf labels or child order: equal keys mean
    isomorphic cographs.
    """

    size: int
    reg: int
    alpha: int
    num_max_indep: int
    num_max_cliques: int
    ell: int
    key: bytes


_LEAF_SUMMARY = (1, 0, 1, 1, 1, 0, b"L")


def _summary_rule(union: bool, parts) -> tuple:
    """A union's (``union`` true) or join's summary tuple, from its children's."""
    sizes, regs, alphas, indeps, cliques, ells, keys = zip(*parts)
    key = b",".join(sorted(keys))
    if union:
        return (sum(sizes), sum(regs), sum(alphas), prod(indeps), sum(cliques), max(ells),
                b"U(" + key + b")")
    # A join of leaves only is a complete graph; any other join has a
    # union child, whose two non-adjacent vertices and a vertex of
    # another child induce a 2-edge path.
    complete = max(sizes) == 1
    return (sum(sizes), 1 if complete else max(2, *regs), max(alphas), sum(indeps),
            prod(cliques), 1 if complete else 2, b"J(" + key + b")")


def summarize_cotree(t: Cotree) -> CotreeSummary:
    """Size, regularity, invariants, ell and canonical key of t in one pass."""
    return CotreeSummary(*_fold(t, lambda x: _LEAF_SUMMARY,
                                lambda x, parts: _summary_rule(isinstance(x, Union), parts)))


# ---------------------------------------------------------------------------
# JSON


def cotree_to_json_dict(t: Cotree) -> dict:
    return _fold(
        t,
        lambda x: {"kind": "leaf", "v": x.v + 1},
        lambda x, parts: {"kind": "union" if isinstance(x, Union) else "join", "children": parts},
    )
