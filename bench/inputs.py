"""Seeded inputs for the benchmark, with the facts the output checks need.

Every cograph input is built from a construction tree that belongs to the
benchmark, not to the program: a leaf is an int (a 0-based vertex label)
and an internal node is a tuple ``(kind, children)`` with kind ``"U"``
(disjoint union) or ``"J"`` (join).  Kinds alternate and every internal
node has at least two children, so the tree is a proper cotree.  All walks
over it use explicit stacks, since threshold trees are hundreds of levels
deep.

Each workload draws its inputs from ``random.Random(seed)`` in a fixed
order, so the same seed gives byte-identical input files.  Sizes, edge
counts and the share of failing inputs do not depend on the seed; the seed
moves labels, tree shapes and the generated families' parameters inside
narrow windows, which keeps the cost of a round nearly the same for every
seed.
"""

import random
from dataclasses import dataclass, field

import checks

# analyze-dense: (vertices, edge density).  The edge count of each input is
# held within DENSE_EDGE_TOLERANCE of density * n(n-1)/2 by rejection.
DENSE_SIZES = ((300, 0.72), (325, 0.75), (350, 0.78), (375, 0.81), (400, 0.84))
DENSE_EDGE_TOLERANCE = 0.002
DENSE_JOIN_PARTS = (2, 4)

# analyze-deep: threshold-style cographs (one or two new vertices per cotree
# level, so depth is about n), twin-star-style non-cographs, and one fixed
# threshold graph deep enough to exhaust the default recursion limit.
DEEP_THRESHOLD_SIZES = (150, 175, 200, 225, 250)
DEEP_THRESHOLD_PAIR_SHARE = 0.1
DEEP_TWIN_STAR_LEAVES = (80, 90, 100)
DEEP_FAILING_SIZE = 700

# generate: window centres; the seed moves each parameter a little.
CHAIN_K = (140, 160)
MAXREG_N = 1500
CONE_R = 1000


def _postorder(root):
    """Internal nodes of a construction tree, children before parents."""
    out = []
    stack = [root]
    while stack:
        x = stack.pop()
        if not isinstance(x, int):
            out.append(x)
            stack.extend(x[1])
    out.reverse()
    return out


def tree_adjacency(root, n: int) -> list:
    """Adjacency bitmasks (bit v of entry u set iff uv is an edge)."""
    adj = [0] * n
    members = {}
    for node in _postorder(root):
        kind, children = node
        child_sets = []
        for c in children:
            child_sets.append([c] if isinstance(c, int) else members.pop(id(c)))
        if kind == "J":
            masks = [sum(1 << v for v in vs) for vs in child_sets]
            total = 0
            for m in masks:
                total |= m
            for vs, m in zip(child_sets, masks):
                other = total & ~m
                for v in vs:
                    adj[v] |= other
        members[id(node)] = [v for vs in child_sets for v in vs]
    return adj


def tree_invariants(root) -> dict:
    """reg, alpha, i(G) and c(G) by the union/join rules on the tree.

    reg: a leaf is 0, unions add, a join of leaves only (a complete graph)
    is 1 and any other join is max(2, children) (Kiani and Saeedi Madani).
    alpha: unions add, joins take the max.  i(G), the number of maximal
    independent sets: unions multiply, joins add.  c(G), the number of
    maximal cliques: unions add, joins multiply.
    """
    if isinstance(root, int):
        return {"reg": 0, "alpha": 1, "num_max_indep": 1, "num_max_cliques": 1}
    leaf = (0, 1, 1, 1)
    value = {}
    for node in _postorder(root):
        kind, children = node
        parts = [leaf if isinstance(c, int) else value.pop(id(c)) for c in children]
        regs = [p[0] for p in parts]
        if kind == "U":
            reg = sum(regs)
            alpha = sum(p[1] for p in parts)
            indep = 1
            for p in parts:
                indep *= p[2]
            cliques = sum(p[3] for p in parts)
        else:
            reg = 1 if all(isinstance(c, int) for c in children) else max(2, max(regs))
            alpha = max(p[1] for p in parts)
            indep = sum(p[2] for p in parts)
            cliques = 1
            for p in parts:
                cliques *= p[3]
        value[id(node)] = (reg, alpha, indep, cliques)
    reg, alpha, indep, cliques = value[id(root)]
    return {"reg": reg, "alpha": alpha, "num_max_indep": indep, "num_max_cliques": cliques}


def edgelist_text(adj: list) -> str:
    """The program's edge-list format: header, then 1-based ``u v`` with u < v."""
    lines = [f"n {len(adj)}"]
    for u, mask in enumerate(adj):
        upper = mask >> (u + 1)
        v = u + 1
        while upper:
            if upper & 1:
                lines.append(f"{u + 1} {v + 1}")
            upper >>= 1
            v += 1
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


def random_cotree(rng: random.Random, n: int, root_kind: str):
    """A random alternating cotree on n vertices and its edge count.

    Join nodes split their vertices into DENSE_JOIN_PARTS parts and union
    nodes into two, at random cut points; leaves take labels from a seeded
    permutation.  The edge count is summed from the join splits, so a
    rejection loop can test it without expanding the graph.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    edges = 0
    root = (root_kind, [])
    stack = [(root, n)]
    while stack:
        (kind, children), size = stack.pop()
        parts = min(size, rng.randint(*DENSE_JOIN_PARTS)) if kind == "J" else 2
        cuts = sorted(rng.sample(range(1, size), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        if kind == "J":
            edges += (size * size - sum(s * s for s in sizes)) // 2
        other = "U" if kind == "J" else "J"
        for s in sizes:
            if s == 1:
                children.append(labels.pop())
            else:
                child = (other, [])
                children.append(child)
                stack.append((child, s))
    return root, edges


def threshold_cotree(n: int, rng: random.Random | None):
    """A threshold-style cotree: a chain of alternating nodes, depth about n.

    Each level adds one new leaf beside the chain below it, except that a
    DEEP_THRESHOLD_PAIR_SHARE of the levels, at seeded places, add two.
    With ``rng`` None the tree is fixed: one leaf per level, labels 0..n-1
    bottom up.
    """
    labels = list(range(n))
    pairs = set()
    if rng is not None:
        rng.shuffle(labels)
        levels = n - 1 - round(n * DEEP_THRESHOLD_PAIR_SHARE)
        pairs = set(rng.sample(range(levels), n - 1 - levels))
    node = labels[0]
    used = 1
    kind = "J"
    level = 0
    while used < n:
        extra = 2 if level in pairs else 1
        node = (kind, [node] + labels[used:used + extra])
        used += extra
        level += 1
        kind = "U" if kind == "J" else "J"
    return node


def twin_star_adjacency(rng: random.Random, m: int) -> list:
    """A non-cograph: a hub over m leaves, plus a pendant path hub-b-c.

    The leaves carry a seeded random cograph (the classic twin star has
    none), so every induced P4 is leaf-hub-b-c.  The hub, b and c take the
    three largest labels and leaf 0 exists, so the program's lexicographic
    quadruple scan reaches its first P4 after C(n-1, 3) quadruples whatever
    the seed.
    """
    if m > 1:
        tree, _ = random_cotree(rng, m, "U")
        adj = tree_adjacency(tree, m) + [0, 0, 0]
    else:
        adj = [0, 0, 0, 0]
    hub, b, c = m, m + 1, m + 2
    for x in range(m):
        adj[x] |= 1 << hub
        adj[hub] |= 1 << x
    adj[hub] |= 1 << b
    adj[b] |= (1 << hub) | (1 << c)
    adj[c] |= 1 << b
    return adj


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI call and what its output is checked against.

    ``check(code, stdout, expect)`` returns the problems found; ``expect``
    holds the benchmark's own facts about the input (adjacency, invariants
    from the construction tree, parameters).  ``may_fail`` marks an input
    that fails today with RecursionError, the one failure the benchmark
    counts instead of rejecting.
    """

    label: str
    argv: list
    check: object
    expect: dict = field(default_factory=dict)
    may_fail: bool = False


def cograph_op(label, path, tree, n) -> Op:
    adj = tree_adjacency(tree, n)
    path.write_text(edgelist_text(adj))
    facts = {"n": n, "adj": adj, "root_kind": "L" if isinstance(tree, int) else tree[0]}
    facts.update(tree_invariants(tree))
    return Op(label, ["analyze", str(path)], checks.check_analyze_cograph, facts)


def dense_ops(seed: int, workdir) -> list:
    rng = random.Random(seed)
    ops = []
    for n, density in DENSE_SIZES:
        target = density * n * (n - 1) / 2
        while True:
            tree, edges = random_cotree(rng, n, "J")
            if abs(edges - target) <= DENSE_EDGE_TOLERANCE * target:
                break
        ops.append(cograph_op(f"dense-{n}", workdir / f"dense-{n}.txt", tree, n))
    return ops


def deep_ops(seed: int, workdir) -> list:
    rng = random.Random(seed)
    ops = []
    for n in DEEP_THRESHOLD_SIZES:
        tree = threshold_cotree(n, rng)
        ops.append(cograph_op(f"threshold-{n}", workdir / f"threshold-{n}.txt", tree, n))
    for m in DEEP_TWIN_STAR_LEAVES:
        adj = twin_star_adjacency(rng, m)
        path = workdir / f"twin-star-{m + 3}.txt"
        path.write_text(edgelist_text(adj))
        ops.append(Op(f"twin-star-{m + 3}", ["analyze", str(path)], checks.check_analyze_p4,
                      {"n": m + 3, "adj": adj}))
    n = DEEP_FAILING_SIZE
    op = cograph_op(f"threshold-{n}-fixed", workdir / f"threshold-{n}-fixed.txt",
                     threshold_cotree(n, None), n)
    op.may_fail = True
    ops.append(op)
    return ops


def exhaustive_ops(seed: int, workdir) -> list:
    # verify --max-n 10 is the largest run the CLI allows; it has no input
    # to vary, so the seed is unused here.
    return [Op("verify-10", ["verify", "--max-n", "10"], checks.check_verify, {"n_max": 10})]


def generate_ops(seed: int, workdir) -> list:
    rng = random.Random(seed)
    ops = []
    for centre in CHAIN_K:
        k = centre + rng.randint(-3, 3)
        ops.append(Op(f"chain-{k}", ["generate", "chain", "--k", str(k)], checks.check_chain, {"k": k}))
    base = MAXREG_N + 3 * rng.randint(-5, 5)
    for n in (base, base - 1, base - 2):  # residues a = 0, 1, 2 of n = 3k - a
        ops.append(Op(f"maxreg-{n}", ["generate", "maxreg", "--n", str(n), "--format", "edgelist"],
                      checks.check_maxreg, {"n": n}))
    r = CONE_R + 2 * rng.randint(-5, 5)
    for value in (r, r + 1):  # one even and one odd target
        ops.append(Op(f"cone-{value}", ["generate", "cone", "--r", str(value)], checks.check_cone,
                      {"r": value}))
    return ops


WORKLOADS = {
    "analyze-dense": dense_ops,
    "analyze-deep": deep_ops,
    "exhaustive": exhaustive_ops,
    "generate": generate_ops,
}

# The reference task (see run.Reference) whose work is most like each
# workload's.
REFERENCE_TASK = {
    "analyze-dense": "parse",
    "analyze-deep": "parse",
    "exhaustive": "search",
    "generate": "parse",
}
