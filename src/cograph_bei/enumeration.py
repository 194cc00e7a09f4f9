"""Exhaustive cograph enumeration and theorem verification at desk scale.

Cographs are enumerated up to isomorphism directly from the cotree
grammar: a tree is a leaf or an alternating union/join node with at
least two children, and a sorted multiset of children is a canonical
representative of its isomorphism class.  An independent oracle
recounts the classes for small n: it grows the labeled P4-free graphs
vertex by vertex and walks their orbits under adjacent transpositions.

``verify_theorems`` checks the regularity bounds, the extremal
characterization and the invariant recursions on every enumerated
cograph; ``bound_comparison_table`` tallies which upper bound wins how
often.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .graph import Graph, complement, is_connected, max_degree
from .cotree import _LEAF_SUMMARY, Cotree, CotreeSummary, Join, Leaf, Union, _summary_rule
from .invariants import oracle_longest_induced_path, oracle_maximal_independent_sets
from .regularity import _extremal_key, has_universal_vertex, order_bound

__all__ = [
    "BoundTable",
    "CheckResult",
    "VerificationReport",
    "bound_comparison_table",
    "enumerate_cotrees",
    "p4_free_classes_by_exhaustion",
    "verify_theorems",
]

MAX_ENUM_VERTICES = 12
MAX_VERIFY_VERTICES = 10
MAX_EXHAUSTION_VERTICES = 7


# ---------------------------------------------------------------------------
# canonical cotree enumeration
#
# Shapes are label-free nested tuples ("L",), ("U", children) or
# ("J", children) with children kept in sorted order, so distinct shapes
# are distinct isomorphism classes by construction.

_LEAF_SHAPE = ("L",)
_SHAPE_CACHE = {}


def _rooted_shapes(n: int, kind: str) -> tuple:
    key = (n, kind)
    if key in _SHAPE_CACHE:
        return _SHAPE_CACHE[key]
    other = "J" if kind == "U" else "U"
    pool = [(1, _LEAF_SHAPE)]
    for m in range(2, n):
        pool.extend((m, s) for s in _rooted_shapes(m, other))
    results = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            if len(chosen) >= 2:
                results.append((kind, tuple(chosen)))
            return
        for idx in range(start, len(pool)):
            size, shape = pool[idx]
            if size > remaining:
                break
            chosen.append(shape)
            rec(idx, remaining - size, chosen)
            chosen.pop()

    rec(0, n, [])
    shapes = tuple(results)
    _SHAPE_CACHE[key] = shapes
    return shapes


_LEAVES = tuple(map(Leaf, range(MAX_ENUM_VERTICES)))  # frozen, so cotrees share them


def _shape_to_cotree(shape, counter) -> Cotree:
    if shape is _LEAF_SHAPE:
        counter[0] += 1
        return _LEAVES[counter[0] - 1]
    kind, children = shape
    return (Union if kind == "U" else Join)(tuple(_shape_to_cotree(c, counter) for c in children))


def _class_shapes(n: int) -> tuple:
    """The shape of every class on n vertices, in enumeration order."""
    return (_LEAF_SHAPE,) if n == 1 else _rooted_shapes(n, "U") + _rooted_shapes(n, "J")


def enumerate_cotrees(n: int):
    """One canonical cotree per cograph isomorphism class on n vertices.

    Disconnected classes (union roots) come first, then connected ones
    (join roots); the order is deterministic.  Leaves are labeled
    0..n-1 in depth-first order.  Guarded to ``n <= 12``.
    """
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration is limited to 1 <= n <= {MAX_ENUM_VERTICES}, got {n}")
    for shape in _class_shapes(n):
        yield _shape_to_cotree(shape, [0])


_SHAPE_DATA = {_LEAF_SHAPE: (_LEAF_SUMMARY, (0,))}


def _shape_data(shape) -> tuple:
    """(summary tuple, adjacency masks) of a shape, leaves labeled in depth-first
    order as ``enumerate_cotrees`` labels them; kept below MAX_VERIFY_VERTICES."""
    data = _SHAPE_DATA.get(shape)
    if data is None:
        kind, children = shape
        parts = [_shape_data(c) for c in children]
        summary = _summary_rule(kind == "U", [p[0] for p in parts])
        full = (1 << summary[0]) - 1 if kind == "J" else 0
        masks = []
        for _, child in parts:
            # a union shifts each child's masks; a join also sees the other children
            offset = len(masks)
            others = full & ~((1 << len(child)) - 1 << offset)
            masks.extend(m << offset | others for m in child)
        data = (summary, tuple(masks))
        if summary[0] < MAX_VERIFY_VERTICES:
            _SHAPE_DATA[shape] = data
    return data


# ---------------------------------------------------------------------------
# whole-graph-space oracle
#
# A labeled graph on n vertices is an edge code: bit i is set iff the
# i-th pair of combinations(range(n), 2) is an edge.


def p4_free_classes_by_exhaustion(n: int) -> tuple:
    """(isomorphism classes, labeled graphs) that are P4-free, by brute force.

    Labeled edge codes are grown one vertex at a time: a graph is P4-free
    iff its first m vertices induce a P4-free graph and no 4-set holding
    vertex m induces a P4.  A triple and m induce a P4 depending only on
    the triple's edges and on which of its vertices m sees, so each
    triple forbids a set of neighbourhoods N of m, kept as one bit per N.
    Classes are counted by walking each orbit under the n - 1 adjacent
    transpositions, which generate the symmetric group; every image must
    again be a P4-free code.  Independent of the cotree machinery.
    Guarded to ``n <= 7`` (2^21 graphs).
    """
    if not 1 <= n <= MAX_EXHAUSTION_VERTICES:
        raise ValueError(
            f"graph-space exhaustion is limited to 1 <= n <= {MAX_EXHAUSTION_VERTICES}, got {n}"
        )
    bit = {p: i for i, p in enumerate(combinations(range(n), 2))}

    def is_p4(e, s):
        # a triple with edge pattern e (pairs 01, 02, 12) and a new vertex
        # seeing pattern s of it (vertices 0, 1, 2): 3 edges, degrees 1,1,2,2
        edges = [p for b, p in enumerate(((0, 1), (0, 2), (1, 2))) if e >> b & 1]
        edges += [(v, 3) for v in range(3) if s >> v & 1]
        degrees = sorted(sum(v in p for p in edges) for v in range(4))
        return len(edges) == 3 and degrees == [1, 1, 2, 2]

    patterns = [sum(is_p4(e, s) << s for s in range(8)) for e in range(8)]
    graphs = [0]
    for m in range(1, n):
        new_edges = [sum(1 << bit[v, m] for v in range(m) if N >> v & 1) for N in range(1 << m)]
        triples = []
        for t in combinations(range(m), 3):
            sees = [sum((N >> v & 1) << i for i, v in enumerate(t)) for N in range(1 << m)]
            forbid = [sum(1 << N for N, s in enumerate(sees) if row >> s & 1) for row in patterns]
            triples.append((bit[t[0], t[1]], bit[t[0], t[2]], bit[t[1], t[2]], forbid))
        grown = []
        for code in graphs:
            forbidden = 0
            for xy, xz, yz, forbid in triples:
                forbidden |= forbid[code >> xy & 1 | (code >> xz & 1) << 1 | (code >> yz & 1) << 2]
            grown.extend(code | new_edges[N] for N in range(1 << m) if not forbidden >> N & 1)
        graphs = grown

    # one table per transposition (i i+1) and code byte k: byte -> image bits
    swaps = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        dest = [bit[tuple(sorted(swap.get(v, v) for v in p))] for p in bit]
        swaps.append([
            (k, [sum(1 << dest[k + b] for b in range(min(8, len(bit) - k)) if byte >> b & 1)
                 for byte in range(256)])
            for k in range(0, len(bit), 8)
        ])
    labeled = set(graphs)
    unseen = set(graphs)
    classes = 0
    for code in graphs:
        if code not in unseen:
            continue
        classes += 1
        unseen.remove(code)
        stack = [code]
        while stack:
            c = stack.pop()
            for tables in swaps:
                image = 0
                for k, table in tables:
                    image |= table[c >> k & 255]
                if image in unseen:
                    unseen.remove(image)
                    stack.append(image)
                elif image not in labeled:
                    raise RuntimeError("a relabeling of a P4-free graph is not P4-free")
    return classes, len(graphs)


# ---------------------------------------------------------------------------
# exhaustive theorem verification

CHECK_NAMES = (
    "order_bound",
    "extremal_characterization",
    "connected_max_is_cone",
    "indep_bounds",
    "clique_bound",
    "maxdeg_bound",
    "induced_path_bounds",
    "complement_connectivity",
    "invariant_recursions",
    "order_bound_achieved",
)


@dataclass
class CheckResult:
    graphs_checked: int = 0
    failures: list = field(default_factory=list)


@dataclass
class VerificationReport:
    n_max: int
    checks: dict

    @property
    def passed(self) -> bool:
        return all(not r.failures for r in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "pass": self.passed,
            "checks": {
                name: {"graphs_checked": r.graphs_checked, "failures": list(r.failures)}
                for name, r in self.checks.items()
            },
        }

    def to_text(self) -> str:
        width = max(len(name) for name in self.checks)
        lines = [f"verification up to n = {self.n_max}"]
        for name, r in self.checks.items():
            status = "ok" if not r.failures else f"{len(r.failures)} FAILURES"
            lines.append(f"  {name:<{width}}  {r.graphs_checked:>6} checked  {status}")
            for f in r.failures[:10]:
                lines.append(f"    failed: {f}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _classes(n_max: int, task: str):
    """(n, cotree, summary, masks) for every class with n <= n_max; guarded on the call.

    Cotrees come from the module global ``enumerate_cotrees``, the rest from their shapes.
    """
    if not 1 <= n_max <= MAX_VERIFY_VERTICES:
        raise ValueError(
            f"{task} is limited to 1 <= n_max <= {MAX_VERIFY_VERTICES}, got {n_max}"
        )
    return (
        (n, t, CotreeSummary(*data[0]), data[1]) for n in range(1, n_max + 1)
        for t, data in zip(enumerate_cotrees(n), map(_shape_data, _class_shapes(n)), strict=True)
    )


def _check_graph(n: int, t: Cotree, summary, masks, extremal_key, reg_fn) -> tuple:
    """Outcome of every per-graph check; None marks a non-applicable check.

    ``extremal_key`` is ``max_reg_cograph(n)``'s canonical key, None when a = 2."""
    g = Graph._from_masks(masks)
    reg = summary.reg if reg_fn is None else reg_fn(t)
    connected = not isinstance(t, Union)
    k, a, bound = order_bound(n, connected)

    res = dict.fromkeys(CHECK_NAMES)
    res.pop("order_bound_achieved")  # aggregate, handled by the caller

    res["order_bound"] = reg <= bound
    if extremal_key is not None:
        res["extremal_characterization"] = (reg == 2 * k - a) == (summary.key == extremal_key)
    if connected and k > 1 and a in (0, 2):
        target = 2 * k - 1 if a == 0 else 2 * k - 2
        res["connected_max_is_cone"] = reg != target or has_universal_vertex(g)
    res["indep_bounds"] = reg <= min(summary.num_max_indep, summary.alpha)
    res["clique_bound"] = reg <= summary.num_max_cliques
    if connected:
        res["maxdeg_bound"] = reg <= max_degree(g)
    ell = oracle_longest_induced_path(g)
    res["induced_path_bounds"] = ell <= reg <= n - 1
    co_g = complement(g)
    if n >= 2:
        res["complement_connectivity"] = is_connected(g) != is_connected(co_g)
    if n <= 8:
        indep_sets = oracle_maximal_independent_sets(g)
        clique_sets = oracle_maximal_independent_sets(co_g)
        res["invariant_recursions"] = (
            summary.alpha == max(len(s) for s in indep_sets)
            and summary.num_max_indep == len(indep_sets)
            and summary.num_max_cliques == len(clique_sets)
        )
    return res, reg, connected


def verify_theorems(n_max: int, reg_fn=None) -> VerificationReport:
    """Run every check on every cograph isomorphism class with n <= n_max.

    Per-graph checks: the order bound with its connected refinement,
    the extremal characterization for a in {0, 1}, connected maximizers
    being cones for a in {0, 2}, the invariant and maximum-degree
    bounds, the induced-path sandwich ell <= reg <= n - 1, exactly one
    of G and its complement being connected, and (n <= 8) agreement of
    the cotree recursions with the enumeration oracles.  The aggregate
    ``order_bound_achieved`` check confirms the cap 2k - a is attained
    at every n, by a disconnected cograph once n >= 4.

    ``reg_fn`` substitutes the regularity recursion, which lets tests
    confirm the checks would catch a wrong rule.
    """
    classes = _classes(n_max, "verification")
    extremal = {n: _extremal_key(n) for n in range(2, n_max + 1) if order_bound(n, False)[1] < 2}
    counts = dict.fromkeys(CHECK_NAMES, 0)
    failures = {name: [] for name in CHECK_NAMES}
    max_reg_all = {}
    max_reg_disc = {}
    for n, t, summary, masks in classes:
        res, reg, connected = _check_graph(n, t, summary, masks, extremal.get(n), reg_fn)
        for name, ok in res.items():
            if ok is None:
                continue
            counts[name] += 1
            if not ok:
                failures[name].append(summary.key.decode("ascii"))
        max_reg_all[n] = max(max_reg_all.get(n, 0), reg)
        if not connected:
            max_reg_disc[n] = max(max_reg_disc.get(n, 0), reg)

    # Achievability of the cap 2k - a.  For n in {2, 3} the only
    # maximizers (one edge, the 2-edge path) are connected, so the
    # disconnected comparison starts at n = 4.
    for n in range(1, n_max + 1):
        cap = order_bound(n, connected=False)[2]
        counts["order_bound_achieved"] += 1
        ok = max_reg_all.get(n) == cap and (n < 4 or max_reg_disc.get(n) == cap)
        if not ok:
            failures["order_bound_achieved"].append(
                f"n={n}: max reg {max_reg_all.get(n)} (disconnected {max_reg_disc.get(n)}) vs cap {cap}"
            )

    checks = {
        name: CheckResult(counts[name], sorted(failures[name])) for name in CHECK_NAMES
    }
    return VerificationReport(n_max=n_max, checks=checks)


# ---------------------------------------------------------------------------
# bound comparison table

BOUND_NAMES = ("order_bound", "num_max_cliques", "num_max_indep", "alpha", "max_degree")


@dataclass
class BoundTable:
    n_max: int
    bound_names: tuple
    matrix: list
    strict_best: dict
    total_graphs: int
    total_connected: int

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "bounds": list(self.bound_names),
            "matrix": [list(row) for row in self.matrix],
            "strict_best": dict(self.strict_best),
            "total_graphs": self.total_graphs,
            "total_connected": self.total_connected,
        }

    def to_text(self) -> str:
        width = max(len(b) for b in self.bound_names) + 2
        head = " " * width + "".join(f"{b:>{width}}" for b in self.bound_names)
        lines = [
            f"how often the row bound is strictly smaller than the column bound",
            f"({self.total_graphs} cographs with n <= {self.n_max}; max_degree rows/columns "
            f"cover only the {self.total_connected} connected ones)",
            head,
        ]
        for name, row in zip(self.bound_names, self.matrix):
            lines.append(f"{name:<{width}}" + "".join(f"{v:>{width}}" for v in row))
        lines.append("strictly best: " + ", ".join(
            f"{name}={self.strict_best[name]}" for name in self.bound_names
        ))
        return "\n".join(lines)


def bound_comparison_table(n_max: int, refined_order_bound: bool = True) -> BoundTable:
    """Pairwise strict-domination counts for the five regularity bounds.

    Rows and columns are the order bound, the maximal-clique count, the
    maximal-independent-set count, the independence number and the
    maximum degree; the maximum degree only applies to connected
    cographs, so its comparisons are restricted to those.  Also tallies
    for each bound how often it is strictly smaller than every other
    applicable bound.

    ``refined_order_bound=False`` scores every graph against the plain
    2k - a cap instead of using the sharper value for connected graphs.
    """
    classes = _classes(n_max, "table generation")
    size = len(BOUND_NAMES)
    matrix = [[0] * size for _ in range(size)]
    strict_best = dict.fromkeys(BOUND_NAMES, 0)
    total = connected_total = 0
    for n, t, summary, masks in classes:
        connected = not isinstance(t, Union)
        total += 1
        connected_total += connected
        vals = {
            "order_bound": order_bound(n, connected and refined_order_bound)[2],
            "num_max_cliques": summary.num_max_cliques,
            "num_max_indep": summary.num_max_indep,
            "alpha": summary.alpha,
            "max_degree": max_degree(Graph._from_masks(masks)) if connected else None,
        }
        for r, rn in enumerate(BOUND_NAMES):
            if vals[rn] is None:
                continue
            for c, cn in enumerate(BOUND_NAMES):
                if r != c and vals[cn] is not None and vals[rn] < vals[cn]:
                    matrix[r][c] += 1
        present = [b for b in BOUND_NAMES if vals[b] is not None]
        for b in present:
            if all(vals[b] < vals[o] for o in present if o != b):
                strict_best[b] += 1
    return BoundTable(
        n_max=n_max,
        bound_names=BOUND_NAMES,
        matrix=matrix,
        strict_best=strict_best,
        total_graphs=total,
        total_connected=connected_total,
    )
