"""Graph invariants via cotree recursions, plus brute-force oracles.

The independence number, the number of maximal independent sets and the
number of maximal cliques all satisfy one-line rules over disjoint
unions and joins, so for cographs they are read from the cotree fold
(``cotree.summarize_cotree``).  The oracle functions recompute the same
quantities by exhaustive enumeration and exist to cross-check the rules
on small graphs.
"""

from dataclasses import dataclass

from .graph import Graph, complement, max_degree
from .cotree import Cotree, summarize_cotree

__all__ = [
    "InvariantReport",
    "alpha_cotree",
    "count_max_cliques_cotree",
    "count_max_indep_cotree",
    "oracle_longest_induced_path",
    "oracle_maximal_independent_sets",
]

MAX_ORACLE_SET_VERTICES = 20
MAX_ORACLE_PATH_VERTICES = 12


def alpha_cotree(t: Cotree) -> int:
    """Independence number: leaves count 1, unions add, joins take the max."""
    return summarize_cotree(t).alpha


def count_max_indep_cotree(t: Cotree) -> int:
    """Number of maximal independent sets: unions multiply, joins add."""
    return summarize_cotree(t).num_max_indep


def count_max_cliques_cotree(t: Cotree) -> int:
    """Number of maximal cliques: the complement-dual of the previous count."""
    return summarize_cotree(t).num_max_cliques


@dataclass(frozen=True)
class InvariantReport:
    alpha: int
    num_max_indep: int
    num_max_cliques: int
    max_degree: int

    @classmethod
    def from_cotree(cls, g: Graph, t: Cotree) -> "InvariantReport":
        s = summarize_cotree(t)
        return cls(
            alpha=s.alpha,
            num_max_indep=s.num_max_indep,
            num_max_cliques=s.num_max_cliques,
            max_degree=max_degree(g),
        )

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
    """Bron-Kerbosch with pivoting; yields maximal cliques as sets."""

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            yield frozenset(clique)
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & g.neighbors(u)))
        for v in sorted(candidates - g.neighbors(pivot)):
            yield from expand(clique | {v}, candidates & g.neighbors(v), excluded & g.neighbors(v))
            candidates = candidates - {v}
            excluded = excluded | {v}

    yield from expand(frozenset(), frozenset(range(g.n)), frozenset())


def oracle_maximal_independent_sets(g: Graph) -> list:
    """All maximal independent sets, sorted by (size, vertex tuple).

    Enumerates maximal cliques of the complement.  Guarded to
    ``n <= 20`` because the output is exponential in general.
    """
    if g.n > MAX_ORACLE_SET_VERTICES:
        raise ValueError(
            f"independent-set oracle is limited to n <= {MAX_ORACLE_SET_VERTICES}, got {g.n}"
        )
    sets = list(_maximal_cliques(complement(g)))
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def oracle_longest_induced_path(g: Graph) -> int:
    """Length in edges of a longest induced path, by exhaustive DFS.

    Extends partial induced paths vertex by vertex: the next vertex must
    be adjacent to the current endpoint and non-adjacent to every
    earlier path vertex.  Returns 0 for edgeless graphs.  Guarded to
    ``n <= 12``.
    """
    if g.n > MAX_ORACLE_PATH_VERTICES:
        raise ValueError(
            f"induced-path oracle is limited to n <= {MAX_ORACLE_PATH_VERTICES}, got {g.n}"
        )
    best = 0

    def extend(path, in_path):
        nonlocal best
        best = max(best, len(path) - 1)
        last = path[-1]
        forbidden = set()
        for v in path[:-1]:
            forbidden |= g.neighbors(v)
        for w in sorted(g.neighbors(last)):
            if w not in in_path and w not in forbidden:
                path.append(w)
                in_path.add(w)
                extend(path, in_path)
                in_path.discard(w)
                path.pop()

    for start in range(g.n):
        extend([start], {start})
    return best
