"""Checks of the program's outputs against facts the benchmark computes itself.

No check compares against a stored copy of the program's output.  The
expected values come from the benchmark's construction trees and edge
lists (see ``inputs.py``), from OEIS A000084, from the cograph complement
duality and from the closed forms of the generated families.  Every check
returns a list of problems; an empty list means the output is correct.
"""

import functools
import json
import sys

# OEIS A000084: cograph isomorphism classes on n = 1..10 vertices.
A000084 = (1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624)

# The one failure `verify` reports by design: the 4-cycle, a connected
# cograph of maximal regularity with no universal vertex.
C4_KEY = "J(U(L,L),U(L,L))"
C4_CHECK = "connected_max_is_cone"

CHAIN_BASE_NUMERATOR = (1, 7, 17, 13)


def loads(text: str):
    """json.loads with head-room for cotrees nested hundreds of levels deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(limit)


def order_bound(n: int, connected: bool) -> tuple:
    """(k, a, cap) with n = 3k - a, a in {0, 1, 2}; cap 2k - a, less 1 if
    connected, k > 1 and a in {0, 1}."""
    k = -(-n // 3)
    a = 3 * k - n
    cap = 2 * k - a
    if connected and k > 1 and a in (0, 1):
        cap -= 1
    return k, a, cap


def components(adj: list) -> list:
    """Vertex bitmasks of the connected components."""
    unseen = (1 << len(adj)) - 1
    comps = []
    while unseen:
        low = unseen & -unseen
        comp = frontier = low
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adj[bit.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        unseen &= ~comp
    return comps


def induced_path_length(adj: list) -> int:
    """Longest induced path of a P4-free graph: 0 edgeless, 1 if every
    component is complete, else 2."""
    if not any(adj):
        return 0
    for comp in components(adj):
        v_bits = comp
        while v_bits:
            bit = v_bits & -v_bits
            v_bits ^= bit
            if adj[bit.bit_length() - 1] | bit != comp:
                return 2
    return 1


def expand_cotree_json(tree: dict, n: int):
    """Adjacency bitmasks of a cotree in the program's JSON form, or a problem.

    Walks with an explicit stack, so depth is not limited.
    """
    adj = [0] * n
    seen = 0
    members = {}
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            return None, f"cotree node is not an object: {node!r:.80}"
        kind = node.get("kind")
        if kind == "leaf":
            v = node.get("v")
            if not isinstance(v, int) or not 1 <= v <= n:
                return None, f"leaf label {v!r} out of 1..{n}"
            if seen >> (v - 1) & 1:
                return None, f"leaf {v} appears twice"
            seen |= 1 << (v - 1)
        elif kind in ("union", "join"):
            children = node.get("children")
            if not isinstance(children, list) or len(children) < 2:
                return None, f"{kind} node without two children"
            order.append(node)
            stack.extend(children)
        else:
            return None, f"unknown cotree kind {kind!r}"
    if seen != (1 << n) - 1:
        return None, "cotree leaves do not cover 1..n"
    for node in reversed(order):
        masks = []
        for c in node["children"]:
            masks.append(1 << (c["v"] - 1) if c["kind"] == "leaf" else members.pop(id(c)))
        total = 0
        for m in masks:
            total |= m
        if node["kind"] == "join":
            for m in masks:
                other = total & ~m
                bits = m
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    adj[bit.bit_length() - 1] |= other
        members[id(node)] = total
    return adj, None


def _load_object(out: str, problems: list):
    """The JSON object printed on stdout, or None with the problem noted."""
    try:
        payload = loads(out)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(payload, dict):
        problems.append("output is not a JSON object")
        return None
    return payload


def _section(payload: dict, key: str) -> dict:
    value = payload.get(key)
    return value if isinstance(value, dict) else {}


def _expect_eq(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_analyze_cograph(code: int, out: str, facts: dict) -> list:
    """`analyze` on a cograph built from the benchmark's own tree."""
    problems = []
    _expect_eq(problems, "exit code", code, 0)
    payload = _load_object(out, problems)
    if payload is None:
        return problems
    n, adj = facts["n"], facts["adj"]
    _expect_eq(problems, "n", payload.get("n"), n)
    _expect_eq(problems, "cograph", payload.get("cograph"), True)
    tree = payload.get("cotree")
    if tree is None:
        problems.append("no cotree in output")
    else:
        got_adj, problem = expand_cotree_json(tree, n)
        if problem:
            problems.append(problem)
        elif got_adj != adj:
            wrong = sum(1 for x, y in zip(got_adj, adj) if x != y)
            problems.append(f"cotree expands to a different edge set ({wrong} vertices differ)")

    connected = facts["root_kind"] != "U"
    max_deg = max(m.bit_count() for m in adj)
    inv = _section(payload, "invariants")
    _expect_eq(problems, "invariants.alpha", inv.get("alpha"), str(facts["alpha"]))
    _expect_eq(problems, "invariants.num_max_indep", inv.get("num_max_indep"), str(facts["num_max_indep"]))
    _expect_eq(problems, "invariants.num_max_cliques", inv.get("num_max_cliques"), str(facts["num_max_cliques"]))
    _expect_eq(problems, "invariants.max_degree", inv.get("max_degree"), str(max_deg))

    reg = facts["reg"]
    k, a, cap = order_bound(n, connected)
    want = {
        "reg": reg,
        "n": n,
        "k": k,
        "a": a,
        "order_bound": cap,
        "lower_bound_ell": induced_path_length(adj),
        "upper_matsuda": n - 1,
        "bound_i": str(facts["num_max_indep"]),
        "bound_alpha": str(facts["alpha"]),
        "bound_c": str(facts["num_max_cliques"]),
        "tight_order_bound": reg == cap,
        "bound_maxdeg": max_deg if connected else None,
    }
    report = _section(payload, "regularity")
    for key, value in want.items():
        _expect_eq(problems, f"regularity.{key}", report.get(key), value)
    return problems


def check_analyze_p4(code: int, out: str, facts: dict) -> list:
    """`analyze` on a non-cograph: the witness must induce a P4, in path order."""
    problems = []
    _expect_eq(problems, "exit code", code, 0)
    payload = _load_object(out, problems)
    if payload is None:
        return problems
    n, adj = facts["n"], facts["adj"]
    _expect_eq(problems, "n", payload.get("n"), n)
    _expect_eq(problems, "cograph", payload.get("cograph"), False)
    quad = payload.get("p4_witness")
    if (not isinstance(quad, list) or len(quad) != 4 or len(set(quad)) != 4
            or not all(isinstance(v, int) and 1 <= v <= n for v in quad)):
        return problems + [f"p4_witness is not four distinct vertices of 1..{n}: {quad!r}"]
    w = [v - 1 for v in quad]
    for i in range(4):
        for j in range(i + 1, 4):
            edge = bool(adj[w[i]] >> w[j] & 1)
            if edge != (j == i + 1):
                problems.append(f"vertices {quad} do not induce the path {'-'.join(map(str, quad))}")
                return problems
    return problems


def verify_expected_counts(n_max: int) -> dict:
    """graphs_checked per check, from A000084 and complement duality alone.

    For n >= 2 exactly one of a cograph and its complement is connected and
    complementing permutes the classes, so half of them are connected; K1
    counts as connected.
    """
    classes = A000084[:n_max]
    connected = [1] + [c // 2 for c in classes[1:]]
    sizes = range(1, n_max + 1)
    return {
        "order_bound": sum(classes),
        "indep_bounds": sum(classes),
        "clique_bound": sum(classes),
        "induced_path_bounds": sum(classes),
        "complement_connectivity": sum(classes) - 1,
        "maxdeg_bound": sum(connected),
        "extremal_characterization": sum(
            c for n, c in zip(sizes, classes) if order_bound(n, False)[1] != 2),
        "connected_max_is_cone": sum(
            c for n, c in zip(sizes, connected)
            if order_bound(n, False)[0] > 1 and order_bound(n, False)[1] in (0, 2)),
        "order_bound_achieved": n_max,
    }


def check_verify(code: int, out: str, facts: dict) -> list:
    """`verify --max-n N`: class counts and the single C4 finding."""
    problems = []
    _expect_eq(problems, "exit code", code, 1)
    payload = _load_object(out, problems)
    if payload is None:
        return problems
    _expect_eq(problems, "n_max", payload.get("n_max"), facts["n_max"])
    _expect_eq(problems, "pass", payload.get("pass"), False)
    checks = payload.get("checks")
    if not isinstance(checks, dict):
        return problems + ["no checks object"]
    for name, count in verify_expected_counts(facts["n_max"]).items():
        entry = checks.get(name)
        if not isinstance(entry, dict):
            problems.append(f"check {name} missing")
            continue
        _expect_eq(problems, f"{name}.graphs_checked", entry.get("graphs_checked"), count)
    for name, entry in checks.items():
        want = [C4_KEY] if name == C4_CHECK else []
        got = entry.get("failures") if isinstance(entry, dict) else entry
        _expect_eq(problems, f"{name}.failures", got, want)
    return problems


def check_class_counts(per_n: dict, n_max: int) -> list:
    """Classes the traced run saw enumerated per n, against A000084."""
    problems = []
    for n in range(1, n_max + 1):
        _expect_eq(problems, f"classes on {n} vertices", per_n.get(n, 0), A000084[n - 1])
    return problems


@functools.lru_cache(maxsize=8)
def chain_numerator(k: int) -> list:
    """Coefficients of (1+7t+17t^2+13t^3)^K as decimal strings."""
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + len(CHAIN_BASE_NUMERATOR) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(CHAIN_BASE_NUMERATOR):
                nxt[i + j] += x * y
        out = nxt
    return [str(c) for c in out]


def _graph_json_adjacency(graph, problems: list):
    if not isinstance(graph, dict) or not isinstance(graph.get("n"), int) or graph["n"] < 1:
        problems.append("graph JSON needs a positive integer n")
        return None
    n = graph["n"]
    adj = [0] * n
    edges = graph.get("edges")
    if not isinstance(edges, list):
        problems.append("graph JSON needs an edge list")
        return None
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(v, int) and 1 <= v <= n for v in e) or e[0] >= e[1]):
            problems.append(f"bad edge {e!r:.40}")
            return None
        u, v = e[0] - 1, e[1] - 1
        if adj[u] >> v & 1:
            problems.append(f"edge {e} listed twice")
            return None
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def check_chain(code: int, out: str, facts: dict) -> list:
    """`generate chain --k K`: 7K+1 vertices, 11K edges, reg 4K, h-degree
    3K, gap K, numerator (1+7t+17t^2+13t^3)^K over (1-t)^(7K+2)."""
    problems = []
    _expect_eq(problems, "exit code", code, 0)
    payload = _load_object(out, problems)
    if payload is None:
        return problems
    k = facts["k"]
    _expect_eq(problems, "k", payload.get("k"), k)
    _expect_eq(problems, "n_vertices", payload.get("n_vertices"), 7 * k + 1)
    _expect_eq(problems, "reg", payload.get("reg"), 4 * k)
    _expect_eq(problems, "h_degree", payload.get("h_degree"), 3 * k)
    _expect_eq(problems, "gap", payload.get("gap"), k)
    series = _section(payload, "series")
    _expect_eq(problems, "series.denom_exp", series.get("denom_exp"), 7 * k + 2)
    if series.get("numerator") != chain_numerator(k):
        problems.append("series numerator differs from (1+7t+17t^2+13t^3)^K")
    adj = _graph_json_adjacency(payload.get("graph"), problems)
    if adj is not None:
        _expect_eq(problems, "graph.n", len(adj), 7 * k + 1)
        _expect_eq(problems, "graph edges", sum(m.bit_count() for m in adj) // 2, 11 * k)
    return problems


def _path_components(adj: list, problems: list) -> tuple:
    """(#P3, #P2) if every component of adj is a 2-edge or 1-edge path."""
    p3 = p2 = 0
    for comp in components(adj):
        size = comp.bit_count()
        degrees = []
        bits = comp
        while bits:
            bit = bits & -bits
            bits ^= bit
            degrees.append(adj[bit.bit_length() - 1].bit_count())
        degrees.sort()
        if size == 3 and degrees == [1, 1, 2]:
            p3 += 1
        elif size == 2 and degrees == [1, 1]:
            p2 += 1
        else:
            problems.append(f"component on {size} vertices with degrees {degrees} is neither P3 nor P2")
            return None
    return p3, p2


def parse_edgelist(text: str):
    """The benchmark's own reader for the program's edge-list output."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "n":
        raise ValueError("missing 'n <count>' header")
    n = int(lines[0][1])
    adj = [0] * n
    for ln in lines[1:]:
        if len(ln) != 2:
            raise ValueError(f"bad edge line {' '.join(ln)!r}")
        u, v = int(ln[0]) - 1, int(ln[1]) - 1
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge line {' '.join(ln)!r}")
        if adj[u] >> v & 1:
            raise ValueError(f"edge {u + 1} {v + 1} listed twice")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def check_maxreg(code: int, out: str, facts: dict) -> list:
    """`generate maxreg --n N --format edgelist`: P3s and P2s as n = 3k - a
    dictates (a P2s, the rest P3s), so reg = 2k - a by the union rule."""
    problems = []
    _expect_eq(problems, "exit code", code, 0)
    try:
        adj = parse_edgelist(out)
    except ValueError as exc:
        return problems + [f"output is not an edge list: {exc}"]
    n = facts["n"]
    _expect_eq(problems, "n", len(adj), n)
    k, a, _ = order_bound(n, False)
    counts = _path_components(adj, problems)
    if counts is not None:
        _expect_eq(problems, "(P3, P2) components", counts, (k - a, a))
    return problems


def check_cone(code: int, out: str, facts: dict) -> list:
    """`generate cone --r R`: a universal apex over R//2 P3s and R%2 P2s, so
    reg = max(2, 2*#P3 + #P2) = R by the join and union rules."""
    problems = []
    _expect_eq(problems, "exit code", code, 0)
    payload = _load_object(out, problems)
    if payload is None:
        return problems
    adj = _graph_json_adjacency(payload, problems)
    if adj is None:
        return problems
    r = facts["r"]
    n = len(adj)
    _expect_eq(problems, "n", n, 3 * (r // 2) + 2 * (r % 2) + 1)
    everyone = (1 << n) - 1
    apexes = [v for v in range(n) if adj[v] | (1 << v) == everyone]
    if not apexes:
        return problems + ["no universal vertex: not a cone"]
    apex = apexes[-1]
    rest = [m & ~(1 << apex) for i, m in enumerate(adj) if i != apex]
    # relabel the remaining vertices to 0..n-2 by squeezing out the apex bit
    low = (1 << apex) - 1
    rest = [(m & low) | ((m >> 1) & ~low) for m in rest]
    counts = _path_components(rest, problems)
    if counts is not None:
        _expect_eq(problems, "(P3, P2) components under the apex", counts, (r // 2, r % 2))
    return problems
