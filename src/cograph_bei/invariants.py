"""The invariant report, plus brute-force oracles for its values.

The independence number, the number of maximal independent sets and the
number of maximal cliques all satisfy one-line rules over disjoint
unions and joins, so for cographs they are read from the cotree fold
(``cotree.summarize_cotree``).  The oracle functions recompute the same
quantities by exhaustive enumeration and exist to cross-check the rules
on small graphs.
"""

from dataclasses import dataclass

from .graph import Graph, _bits, complement

__all__ = [
    "InvariantReport",
    "oracle_longest_induced_path",
    "oracle_maximal_independent_sets",
]

MAX_ORACLE_SET_VERTICES = 20
MAX_ORACLE_PATH_VERTICES = 12


@dataclass(frozen=True)
class InvariantReport:
    alpha: int
    num_max_indep: int
    num_max_cliques: int
    max_degree: int

    def to_json_dict(self) -> dict:
        # counts can exceed any fixed-width integer, so everything is a string
        return {
            "alpha": str(self.alpha),
            "num_max_indep": str(self.num_max_indep),
            "num_max_cliques": str(self.num_max_cliques),
            "max_degree": str(self.max_degree),
        }


# ---------------------------------------------------------------------------
# brute-force oracles


def _maximal_cliques(g: Graph):
    """Bron-Kerbosch with pivoting; yields maximal cliques as vertex masks."""
    adj = g._adj

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            yield clique
            return
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & adj[u]).bit_count())
        for v in _bits(candidates & ~adj[pivot]):
            yield from expand(clique | 1 << v, candidates & adj[v], excluded & adj[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    yield from expand(0, (1 << g.n) - 1, 0)


def oracle_maximal_independent_sets(g: Graph) -> list:
    """All maximal independent sets, sorted by (size, vertex tuple).

    Enumerates maximal cliques of the complement.  Guarded to
    ``n <= 20`` because the output is exponential in general.
    """
    if g.n > MAX_ORACLE_SET_VERTICES:
        raise ValueError(
            f"independent-set oracle is limited to n <= {MAX_ORACLE_SET_VERTICES}, got {g.n}"
        )
    sets = [tuple(_bits(s)) for s in _maximal_cliques(complement(g))]
    return [frozenset(s) for s in sorted(sets, key=lambda s: (len(s), s))]


def oracle_longest_induced_path(g: Graph) -> int:
    """Length in edges of a longest induced path, by exhaustive DFS.

    Extends partial induced paths vertex by vertex: the next vertex must
    be adjacent to the current endpoint and non-adjacent to every
    earlier path vertex.  A path is dropped when it cannot beat the best
    length found: every vertex after the next one must also avoid
    N(last).  Returns 0 for edgeless graphs.  Guarded to ``n <= 12``.
    """
    if g.n > MAX_ORACLE_PATH_VERTICES:
        raise ValueError(
            f"induced-path oracle is limited to n <= {MAX_ORACLE_PATH_VERTICES}, got {g.n}"
        )
    adj = g._adj
    best = 0
    # (N(last), length, vertices off the path unseen by those before last);
    # only a path that can grow is pushed
    stack = [(adj[v], 0, ((1 << g.n) - 1) ^ 1 << v) for v in range(g.n) if adj[v]]
    while stack:
        near, length, avail = stack.pop()
        nxt = near & avail
        if length >= best:
            best = length + 1
        rest = avail & ~near  # what may follow the next vertex
        if length + 1 + rest.bit_count() <= best:
            continue
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            w_near = adj[low.bit_length() - 1]
            if w_near & rest:
                stack.append((w_near, length + 1, rest))
    return best
