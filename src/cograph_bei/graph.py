"""Simple undirected graphs as immutable adjacency-bitmask values.

Vertices are numbered ``0 .. n-1`` in the Python API.  The text formats
(edge list, graph6, JSON) label vertices ``1 .. n``, which is the usual
convention in the combinatorics literature; parsers and serializers
translate between the two.
"""

import operator
import re
import sys
from itertools import combinations

__all__ = [
    "Graph",
    "GraphParseError",
    "complement",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "graph_to_json_dict",
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

    Adjacency is one ``int`` bitmask per vertex: bit v of ``_adj[u]`` is
    set iff uv is an edge.  A vertex set is likewise a mask with bit v
    set for each member v; every graph algorithm in the package works on
    these masks.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, adj) -> "Graph":
        """The graph whose vertex v has mask ``adj[v]``, unchecked: for masks the
        package built, at least one, symmetric and loop-free."""
        g = object.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        return g

    def _mask(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self._mask(v)))

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        mask = self._mask(u)
        return v >= 0 and bool(mask >> v & 1)

    def edges(self) -> list:
        """Edges as sorted (u, v) pairs with u < v."""
        return [(u, u + i) for u, m in enumerate(self._adj) for i in _bits(m >> u)]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def _bits(mask: int):
    """The set bits of mask, lowest first, as bit positions."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# small constructors


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
    full = (1 << g.n) - 1
    return Graph._from_masks([full ^ m ^ (1 << u) for u, m in enumerate(g._adj)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; each graph's vertices are shifted past the ones before it."""
    adj = []
    for g in graphs:
        offset = len(adj)
        adj.extend(m << offset for m in g._adj)
    return Graph._from_masks(adj) if adj else Graph(0)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    low = (1 << g.n) - 1
    high = (1 << g.n + h.n) - 1 ^ low
    return Graph._from_masks([m | high for m in g._adj] + [m << g.n | low for m in h._adj])


def _components_within(g: Graph, vs: int, complemented: bool) -> list:
    """Components of g (or of its complement) inside the vertex mask vs.

    Returns vertex masks ordered by minimum vertex.  In the complement,
    a frontier reaches every remaining vertex that is not adjacent in g
    to all of the frontier.
    """
    adj = g._adj
    remaining = vs
    comps = []
    while remaining:
        frontier = remaining & -remaining
        comp = 0
        while frontier:
            comp |= frontier
            remaining ^= frontier
            if complemented:
                common = -1
                for v in _bits(frontier):
                    common &= adj[v]
                frontier = remaining & ~common
            else:
                reach = 0
                for v in _bits(frontier):
                    reach |= adj[v]
                frontier = remaining & reach
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(_components_within(g, (1 << g.n) - 1, complemented=False)) == 1


def max_degree(g: Graph) -> int:
    return max(m.bit_count() for m in g._adj)


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_graph(text: str, format: str) -> Graph:
    """Decode a graph from text.

    ``format`` is ``"edgelist"`` or ``"graph6"``.  The edge-list format is
    line oriented: ``#`` starts a comment, blank lines are skipped, the
    first payload line is the header ``n <count>``, and every following
    line is one ``u v`` pair with 1-based endpoints.  Duplicate edges are
    accepted silently (set semantics); loops are an error.  A plain edge
    list is parsed in bulk; any other text, and every faulty one, goes
    through the line-by-line parse, which words each error.
    """
    if format == "edgelist":
        g = _parse_edgelist_bulk(text)
        return _parse_edgelist_lines(text) if g is None else g
    if format == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown graph format {format!r}")


def _quote(raw: str) -> str:
    """repr of an input line for an error message, cut after 60 characters."""
    return repr(raw) if len(raw) <= 60 else f"{raw[:60]!r}..."


def _one_line_end(text: str) -> str:
    # only \n, \r\n and \r end a line; str.splitlines() would also split at \f, \v, ...
    return text.replace("\r\n", "\n").replace("\r", "\n")


_EDGE_LINE = r"[ \t]*[0-9]+[ \t]+[0-9]+[ \t]*"
_EDGE_LINES = re.compile(rf"(?:{_EDGE_LINE}\n)*{_EDGE_LINE}")
_CHUNK_CHARS = 1 << 15


def _parse_edgelist_bulk(text: str):
    """The graph of a plain edge list, or None when only the line loop can tell.

    Plain means: no ``#``; a header count of at most 7 ASCII digits and
    at most 2 * (payload lines) + 1, so the work stays in proportion to
    the text; and, from the first edge to the last, no blank line and
    every line ``u v`` in ASCII digits without leading zeros, in range
    and no loop.  The payload is checked and converted in chunks of
    about 32 KB cut at line ends, each by a few calls that loop in C,
    and a chunk's tokens are dropped before the next is cut.  None is
    no verdict: ``_parse_edgelist_lines`` then accepts the text or
    words its error.
    """
    if "#" in text:
        return None
    # leading blank lines and the header's own indent go with lstrip
    header, _, body = _one_line_end(text).lstrip().partition("\n")
    header = header.split()
    if not (len(header) == 2 and header[0] == "n" and len(header[1]) <= 7
            and header[1].isascii() and header[1].isdigit()):
        return None
    n = int(header[1])
    body = body.strip()  # blank lines before the first edge and after the last
    if not 1 <= n <= 2 * (body.count("\n") + bool(body)) + 1:
        return None
    index = {str(i): i - 1 for i in range(1, n + 1)}  # no "0", "01", "\u0661" or "n + 1"
    adj = [0] * n
    start = 0
    while start < len(body):
        stop = body.find("\n", start + _CHUNK_CHARS)
        if stop < 0:
            stop = len(body)
        chunk = body[start:stop]
        start = stop + 1
        if not _EDGE_LINES.fullmatch(chunk):
            return None
        try:
            ends = list(map(index.__getitem__, chunk.split()))
        except KeyError:
            return None
        us, vs = ends[0::2], ends[1::2]
        if any(map(operator.eq, us, vs)):
            return None
        for u, v in zip(us, vs):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph._from_masks(adj)


# int() takes time quadratic in the digits; past Python's default cap on
# them a token is out of range, whatever limit the process has set
_MAX_DIGITS = sys.int_info.default_max_str_digits


def _parse_edgelist_lines(text: str) -> Graph:
    """The line-by-line parse: accepts every edge list the format allows
    and words every error with its line number."""
    n = None
    edges = []
    for lineno, raw in enumerate(_one_line_end(text).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdecimal():
                raise GraphParseError(
                    f"line {lineno}: expected header 'n <count>', got {_quote(raw)}"
                )
            n = int(tokens[1]) if len(tokens[1]) <= _MAX_DIGITS else sys.maxsize + 1
            if n > sys.maxsize:
                raise GraphParseError(f"line {lineno}: vertex count exceeds {sys.maxsize}")
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {_quote(raw)}")
        a, b = tokens
        # int() alone would also take a sign or underscores
        if not (a.isdecimal() and b.isdecimal()):
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {_quote(raw)}")
        u, v = (int(a), int(b)) if max(len(a), len(b)) <= _MAX_DIGITS else (0, 0)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(
                f"line {lineno}: endpoint out of range 1..{n} in {_quote(raw)}"
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


def serialize_graph(g: Graph, format: str) -> str:
    if format == "edgelist":
        return to_edgelist(g)
    if format == "graph6":
        return to_graph6(g)
    raise ValueError(f"unknown graph format {format!r}")
