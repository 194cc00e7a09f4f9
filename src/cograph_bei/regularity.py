"""Regularity of binomial edge ideals of cographs, by cotree recursion.

For the binomial edge ideal of a graph G inside its natural polynomial
ring S, reg(S/J_G) is additive over disjoint unions (the ideals live in
disjoint variable sets) and satisfies the join rule of Kiani and Madani:
for G * H with G, H not both complete the regularity is
max(reg G, reg H, 2).  Complete graphs have regularity 1.  Together
with the cotree this pins the value down for every cograph.

The order bound: a cograph on n = 3k - a vertices (a in {0, 1, 2}) has
regularity at most 2k - a, dropping to 2k - a - 1 when the graph is
connected, k > 1 and a in {0, 1}.  Disjoint unions of 2-edge paths,
with at most one single edge, are exactly the graphs attaining 2k - a
when a in {0, 1}.
"""

from dataclasses import dataclass

from .graph import Graph, max_degree
from .cotree import Cotree, P4Witness, Union, build_cotree, summarize_cotree
from .extremal import max_reg_cograph

__all__ = [
    "NotACographError",
    "RegularityReport",
    "bounds_report",
    "has_universal_vertex",
    "is_extremal_characterized",
    "order_bound",
    "reg_cograph",
]


class NotACographError(ValueError):
    """Raised when a cograph-only operation receives a non-cograph."""

    def __init__(self, witness: P4Witness):
        self.witness = witness
        quad = tuple(v + 1 for v in witness.vertices())
        super().__init__(f"not a cograph: vertices {quad} induce a P4")


def reg_cograph(t: Cotree) -> int:
    """reg(S/J_G) for the cograph G a cotree represents.

    Leaf 0; union nodes add; a join of leaves only is a complete graph
    with value 1, and any other join takes max(2, child values).
    """
    return summarize_cotree(t).reg


def order_bound(n: int, connected: bool) -> tuple:
    """(k, a, bound) with n = 3k - a, a in {0, 1, 2}, bound the regularity cap."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    k = -(-n // 3)
    a = 3 * k - n
    bound = 2 * k - a
    if connected and k > 1 and a in (0, 1):
        bound -= 1
    return k, a, bound


def has_universal_vertex(g: Graph) -> bool:
    """True iff some vertex is adjacent to all others (g is a cone)."""
    return any(m.bit_count() == g.n - 1 for m in g._adj)


def _extremal_key(n: int) -> bytes:
    """Canonical key of ``max_reg_cograph(n)``, for n = 3k - a with a in {0, 1}."""
    return summarize_cotree(build_cotree(max_reg_cograph(n))).key


def is_extremal_characterized(t: Cotree) -> bool:
    """Whether t is a disjoint union of 2-edge paths plus at most one edge.

    Defined for n = 3k - a with a in {0, 1}: these unions, with exactly
    one single-edge component when a = 1 and none when a = 0, are the
    graphs of maximal regularity 2k - a.  t is compared with
    ``max_reg_cograph(n)``, the family's one definition, by canonical
    key.  For a = 2 the maximizers have no such description and a
    ValueError is raised.
    """
    s = summarize_cotree(t)
    n = s.size
    _, a, _ = order_bound(n, connected=False)
    if a == 2:
        raise ValueError(f"extremal characterization applies to a in {{0, 1}}, got a=2 (n={n})")
    return s.key == _extremal_key(n)


@dataclass(frozen=True)
class RegularityReport:
    reg: int
    n: int
    k: int
    a: int
    order_bound: int
    lower_bound_ell: int
    upper_matsuda: int
    bound_i: int
    bound_alpha: int
    bound_c: int
    bound_maxdeg: int | None
    tight_order_bound: bool

    @classmethod
    def from_cotree(cls, g: Graph, t: Cotree) -> "RegularityReport":
        """The report for g, read from its cotree t in one fold."""
        s = summarize_cotree(t)
        connected = not isinstance(t, Union)
        k, a, bound = order_bound(g.n, connected)
        return cls(
            reg=s.reg,
            n=g.n,
            k=k,
            a=a,
            order_bound=bound,
            lower_bound_ell=s.ell,
            upper_matsuda=g.n - 1,
            bound_i=s.num_max_indep,
            bound_alpha=s.alpha,
            bound_c=s.num_max_cliques,
            bound_maxdeg=max_degree(g) if connected else None,
            tight_order_bound=s.reg == bound,
        )

    def to_json_dict(self) -> dict:
        d = {
            "reg": self.reg,
            "n": self.n,
            "k": self.k,
            "a": self.a,
            "order_bound": self.order_bound,
            "lower_bound_ell": self.lower_bound_ell,
            "upper_matsuda": self.upper_matsuda,
            "bound_i": str(self.bound_i),
            "bound_alpha": str(self.bound_alpha),
            "bound_c": str(self.bound_c),
            "tight_order_bound": self.tight_order_bound,
        }
        if self.bound_maxdeg is not None:
            d["bound_maxdeg"] = self.bound_maxdeg
        return d


def bounds_report(g: Graph) -> RegularityReport:
    """Exact regularity of a cograph together with every upper bound.

    Raises :class:`NotACographError` (carrying the induced-P4 witness)
    if g is not a cograph.  Every value, the induced-path lower bound
    ell included, comes from one fold over the cotree; P4-free graphs
    only have induced paths of length 0, 1 or 2.
    """
    t = build_cotree(g)
    if isinstance(t, P4Witness):
        raise NotACographError(t)
    return RegularityReport.from_cotree(g, t)
