"""Exact Hilbert series arithmetic and the regularity-vs-h-degree family.

The Hilbert series of S/J_G is h(t) / (1-t)^d in reduced form, with d
the Krull dimension and h the h-polynomial.  Gluing two graphs at a
vertex that is free (simplicial) in both multiplies the series up to a
(1-t)^2 factor (Kumar and Sarkar) and adds the regularities (Jayanthan,
Narayanan and Raghavendra Rao).  Chaining copies of an 8-vertex base
graph with reg = 4 and deg h = 3 therefore yields graphs whose
regularity exceeds the h-polynomial degree by any prescribed amount.
"""

from dataclasses import dataclass

from .graph import Graph, graph_to_json_dict
from .cotree import is_simplicial

__all__ = [
    "ChainReport",
    "HilbertSeries",
    "IntPoly",
    "build_chain",
    "counterexample_base",
    "glue_graphs",
    "poly_mul",
    "series_glue",
]


class IntPoly:
    """Integer polynomial as a coefficient tuple, index = degree.

    Trailing zeros are trimmed; the zero polynomial is the empty tuple
    and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __pow__(self, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPoly((1,))
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def divide_by_one_minus_t(self) -> "IntPoly":
        """Exact quotient by (1 - t); requires the value at 1 to vanish."""
        if self.evaluate(1) != 0:
            raise ValueError("polynomial is not divisible by (1 - t)")
        # p = (1 - t) q  means  q_i = p_0 + ... + p_i
        out, acc = [], 0
        for c in self.coeffs[:-1]:
            acc += c
            out.append(acc)
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(terms)


def poly_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    """Convolution product; degree adds for nonzero inputs."""
    return p * q


class HilbertSeries:
    """Rational series numerator / (1-t)^denom_exp, kept reduced.

    Construction divides out every common (1 - t) factor, so the stored
    numerator never vanishes at 1 and ``denom_exp`` is the Krull
    dimension when the series comes from a graded ring.
    """

    __slots__ = ("numerator", "denom_exp")

    def __init__(self, numerator: IntPoly, denom_exp: int):
        if not numerator:
            raise ValueError("Hilbert series numerator must be nonzero")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be non-negative")
        while numerator.evaluate(1) == 0:
            if denom_exp == 0:
                raise ValueError("cannot reduce below (1-t)^0")
            numerator = numerator.divide_by_one_minus_t()
            denom_exp -= 1
        self.numerator = numerator
        self.denom_exp = denom_exp

    @property
    def h_degree(self) -> int:
        return self.numerator.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.numerator == other.numerator and self.denom_exp == other.denom_exp

    def __hash__(self) -> int:
        return hash((self.numerator, self.denom_exp))

    def __repr__(self) -> str:
        return f"HilbertSeries({self.numerator!r}, {self.denom_exp})"

    def __str__(self) -> str:
        return f"({self.numerator}) / (1-t)^{self.denom_exp}"

    def to_json_dict(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator.coeffs],
            "denom_exp": self.denom_exp,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HilbertSeries":
        return cls(IntPoly(int(c) for c in d["numerator"]), int(d["denom_exp"]))


def series_glue(h1: HilbertSeries, h2: HilbertSeries) -> HilbertSeries:
    """Series of a free-vertex gluing: product times (1-t)^2."""
    if h1.denom_exp + h2.denom_exp < 2:
        raise ValueError("gluing needs a combined denominator exponent of at least 2")
    return HilbertSeries(h1.numerator * h2.numerator, h1.denom_exp + h2.denom_exp - 2)


# ---------------------------------------------------------------------------
# the counterexample family

# 8-vertex base graph (1-based edges): reg = 4 while deg h = 3, the
# smallest graph whose regularity exceeds its h-polynomial degree.
_BASE_EDGES = (
    (1, 8), (2, 6), (3, 7), (3, 8), (4, 5), (4, 8),
    (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),
)
_BASE_NUMERATOR = (1, 7, 17, 13)
_BASE_DENOM_EXP = 9
_BASE_REG = 4


def counterexample_base():
    """The 8-vertex base graph with its Hilbert series and regularity.

    Returns ``(graph, series, reg)`` where the series is
    (1 + 7t + 17t^2 + 13t^3) / (1-t)^9 and reg = 4.  Vertices 0 and 1
    are free, so copies can be chained by gluing.
    """
    g = Graph(8, ((u - 1, v - 1) for u, v in _BASE_EDGES))
    series = HilbertSeries(IntPoly(_BASE_NUMERATOR), _BASE_DENOM_EXP)
    return g, series, _BASE_REG


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


@dataclass(frozen=True)
class ChainReport:
    k: int
    graph: Graph
    series: HilbertSeries
    reg: int
    h_degree: int
    gap: int
    n_vertices: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n_vertices": self.n_vertices,
            "reg": self.reg,
            "h_degree": self.h_degree,
            "gap": self.gap,
            "series": self.series.to_json_dict(),
            "graph": graph_to_json_dict(self.graph),
        }


def build_chain(k: int) -> ChainReport:
    """Chain k >= 1 copies of the base graph along free vertices.

    Copy i's second free vertex is identified with copy i+1's first, so
    each end of the chain keeps a free vertex.  Regularity adds across
    gluings (4 per copy) and the series numerators multiply, giving
    reg - deg h = k on 7k + 1 vertices.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    base_graph, base_series, base_reg = counterexample_base()
    # Copy i keeps label 7i + w for base vertex w >= 1; from the second
    # copy on, its vertex 0 is glued onto vertex 1 of copy i - 1, which
    # is label 7i - 6.  These are the labels repeated glue_graphs gives.
    edges = []
    for i in range(k):
        label = [7 * i - 6 if i else 0] + [7 * i + w for w in range(1, 8)]
        edges.extend((label[u], label[v]) for u, v in base_graph.edges())
    graph = Graph(7 * k + 1, edges)
    series = base_series
    for _ in range(k - 1):
        series = series_glue(series, base_series)
    reg = k * base_reg
    return ChainReport(
        k=k,
        graph=graph,
        series=series,
        reg=reg,
        h_degree=series.h_degree,
        gap=reg - series.h_degree,
        n_vertices=graph.n,
    )
