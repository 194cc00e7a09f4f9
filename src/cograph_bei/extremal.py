"""Generators for cographs of maximal regularity.

Writing n = 3k - a with a in {0, 1, 2}, a disjoint union of 2-edge
paths padded with single edges attains the regularity cap 2k - a.
Coning (joining one extra vertex) turns the disconnected maximizers
into connected cographs without changing the regularity once it is at
least 2, which realizes every positive value on a connected cograph.
``max_reg_cograph`` is the one definition of the family:
``connected_with_reg`` cones it, and the characterization in
``regularity`` compares canonical keys with its cotree.
"""

from .graph import Graph, complete_graph, disjoint_union, join, path_graph

__all__ = ["cone", "connected_with_reg", "max_reg_cograph"]


def max_reg_cograph(n: int) -> Graph:
    """A cograph on n >= 2 vertices with the maximal regularity 2k - a."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    k = -(-n // 3)
    a = 3 * k - n
    p3, p2 = path_graph(3), path_graph(2)
    if a == 0:
        parts = [p3] * k
    elif a == 1:
        parts = [p3] * (k - 1) + [p2]
    else:
        parts = [p3] * (k - 2) + [p2, p2]
    return disjoint_union(*parts)


def cone(g: Graph) -> Graph:
    """Join g with a single vertex; the apex is the new last vertex."""
    return join(g, complete_graph(1))


def connected_with_reg(r: int) -> Graph:
    """A connected cograph whose regularity is exactly r >= 1.

    r = 1 is a single edge; any other r cones the maximizer on
    (3r + 1) // 2 vertices: r/2 disjoint 2-edge paths for even r, and
    (r - 1)/2 of them plus one single edge for odd r.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r == 1:
        return complete_graph(2)
    return cone(max_reg_cograph((3 * r + 1) // 2))
