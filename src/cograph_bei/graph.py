"""Simple undirected graphs as immutable adjacency-set values.

Vertices are numbered ``0 .. n-1`` in the Python API.  The text formats
(edge list, graph6, JSON) label vertices ``1 .. n``, which is the usual
convention in the combinatorics literature; parsers and serializers
translate between the two.
"""

from itertools import combinations

__all__ = [
    "Graph",
    "GraphParseError",
    "complement",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "disjoint_union",
    "empty_graph",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "induced_subgraph",
    "is_complete",
    "is_connected",
    "join",
    "max_degree",
    "parse_graph",
    "path_graph",
    "serialize_graph",
    "to_edgelist",
    "to_graph6",
]


class GraphParseError(ValueError):
    """Raised when a graph cannot be decoded from its textual form."""


class Graph:
    """Immutable simple undirected graph on vertex set ``{0, ..., n-1}``.

    ``edges`` may list a pair in either orientation and may repeat pairs
    (set semantics).  Loops and out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> list:
        """Edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in sorted(nbrs) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


# ---------------------------------------------------------------------------
# small constructors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    """Path on n vertices (n - 1 edges), vertices in path order."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges."""
    return Graph(
        g.n,
        (
            (u, v)
            for u, v in combinations(range(g.n), 2)
            if not g.has_edge(u, v)
        ),
    )


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; each graph's vertices are shifted past the ones before it."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    edges = g.edges()
    edges.extend((u + g.n, v + g.n) for u, v in h.edges())
    edges.extend((u, v + g.n) for u in range(g.n) for v in range(h.n))
    return Graph(g.n + h.n, edges)


def _components_within(g: Graph, vs, complemented: bool) -> list:
    """Components of g (or of its complement) restricted to vs, by min vertex."""
    remaining = set(vs)
    comps = []
    for start in sorted(vs):
        if start not in remaining:
            continue
        comp = {start}
        remaining.discard(start)
        stack = [start]
        while stack:
            v = stack.pop()
            if complemented:
                nbrs = remaining - g.neighbors(v)
            else:
                nbrs = remaining & g.neighbors(v)
            for w in nbrs:
                remaining.discard(w)
                comp.add(w)
                stack.append(w)
        comps.append(frozenset(comp))
    return comps


def connected_components(g: Graph) -> list:
    """Partition of the vertices into components, ordered by minimum vertex."""
    return _components_within(g, range(g.n), complemented=False)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def induced_subgraph(g: Graph, vs) -> Graph:
    """Subgraph induced by ``vs``, relabeled 0.. in increasing vertex order."""
    order = sorted(set(vs))
    if not order:
        raise ValueError("cannot induce on an empty vertex set")
    if order[0] < 0 or order[-1] >= g.n:
        raise ValueError(f"vertex set {order} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(order)}
    keep = set(order)
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in keep and v in keep
    ]
    return Graph(len(order), edges)


def max_degree(g: Graph) -> int:
    return max(len(g.neighbors(v)) for v in range(g.n))


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_graph(text: str, format: str) -> Graph:
    """Decode a graph from text.

    ``format`` is ``"edgelist"`` or ``"graph6"``.  The edge-list format is
    line oriented: ``#`` starts a comment, blank lines are skipped, the
    first payload line is the header ``n <count>``, and every following
    line is one ``u v`` pair with 1-based endpoints.  Duplicate edges are
    accepted silently (set semantics); loops are an error.
    """
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown graph format {format!r}")


def _parse_edgelist(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdigit():
                raise GraphParseError(
                    f"line {lineno}: expected header 'n <count>', got {raw!r}"
                )
            n = int(tokens[1])
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(
                f"line {lineno}: endpoint out of range 1..{n} in {raw!r}"
            )
        if u == v:
            raise GraphParseError(f"line {lineno}: loop edge at vertex {u}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise GraphParseError("missing 'n <count>' header")
    return Graph(n, edges)


def to_edgelist(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def _parse_graph6(text: str) -> Graph:
    """Decode the short graph6 form: n <= 62, 6 bits per character."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise GraphParseError("empty graph6 string")
    first = ord(data[0])
    if first == 126:
        raise GraphParseError("long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise GraphParseError(f"invalid graph6 size character {data[0]!r}")
    n = first - 63
    if n < 1:
        raise GraphParseError("graph6 string encodes an empty vertex set")
    nbits = n * (n - 1) // 2
    body = data[1:]
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {expected} for n={n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphParseError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode in the short graph6 form (upper triangle, column major)."""
    if g.n > 62:
        raise ValueError("short graph6 form only supports n <= 62")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def graph_to_json_dict(g: Graph) -> dict:
    """JSON form: ``{"n": n, "edges": [[u, v], ...]}`` with 1-based u < v."""
    return {"n": g.n, "edges": [[u + 1, v + 1] for u, v in g.edges()]}


def graph_from_json_dict(d: dict) -> Graph:
    try:
        n = d["n"]
        pairs = d["edges"]
    except (TypeError, KeyError):
        raise GraphParseError("graph JSON needs keys 'n' and 'edges'")
    if not isinstance(n, int):
        raise GraphParseError("graph JSON field 'n' must be an integer")
    try:
        return Graph(n, ((u - 1, v - 1) for u, v in pairs))
    except (TypeError, ValueError) as exc:
        raise GraphParseError(f"bad graph JSON: {exc}")


def serialize_graph(g: Graph, format: str) -> str:
    if format == "edgelist":
        return to_edgelist(g)
    if format == "graph6":
        return to_graph6(g)
    raise ValueError(f"unknown graph format {format!r}")
