from dataclasses import replace
from itertools import combinations, permutations

import pytest

from cograph_bei import (
    CheckResult,
    CotreeSummary,
    Graph,
    Leaf,
    P4Witness,
    Union,
    bound_comparison_table,
    build_cotree,
    enumerate_cotrees,
    p4_free_classes_by_exhaustion,
    summarize_cotree,
    order_bound,
    verify_theorems,
)
from cograph_bei import enumeration
from cograph_bei.enumeration import BOUND_NAMES, CHECK_NAMES

from reference import cotree_to_graph

# regression freeze of the class counts produced by the generator; the
# values up to n = 7 are independently confirmed by the graph-space
# oracle below and in the acceptance suite
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180, 8: 522, 9: 1532, 10: 4624}

# the 4-cycle: the one connected maximizer without a universal vertex
C4_KEY = "J(U(L,L),U(L,L))"


def test_class_counts():
    for n, expected in CLASS_COUNTS.items():
        assert sum(1 for _ in enumerate_cotrees(n)) == expected


def test_no_duplicate_keys_and_closure():
    for n in range(1, 9):
        keys = set()
        for t in enumerate_cotrees(n):
            key = summarize_cotree(t).key
            assert key not in keys
            keys.add(key)
            g = cotree_to_graph(t)
            rebuilt = build_cotree(g)
            assert not isinstance(rebuilt, P4Witness)
            assert summarize_cotree(rebuilt).key == key


def test_enumeration_is_deterministic():
    first = [summarize_cotree(t).key for t in enumerate_cotrees(7)]
    second = [summarize_cotree(t).key for t in enumerate_cotrees(7)]
    assert first == second
    # disconnected classes first, then connected
    kinds = [isinstance(t, Union) for t in enumerate_cotrees(7)]
    assert kinds == sorted(kinds, reverse=True)


def test_enumeration_guards():
    with pytest.raises(ValueError, match="limited"):
        list(enumerate_cotrees(0))
    with pytest.raises(ValueError, match="limited"):
        list(enumerate_cotrees(13))


def test_shape_data_matches_the_cotree():
    # the class walk reads each class's summary and adjacency masks from
    # its shape; they must be those of the cotree enumerate_cotrees yields
    classes = 0
    for n, t, summary, masks in enumeration._classes(9, "the walk"):
        g = cotree_to_graph(t)
        assert Graph(n, [(u, v) for u, m in enumerate(masks) for v in range(n) if m >> v & 1]) == g
        assert Graph._from_masks(masks) == g
        assert summary == summarize_cotree(t)
        classes += 1
    assert classes == sum(CLASS_COUNTS[n] for n in range(1, 10))
    # only the shapes below the verification cap are kept: every n <= 9 class
    assert len(enumeration._SHAPE_DATA) == classes
    # the guard runs on the call, before any class is drawn
    with pytest.raises(ValueError, match="limited"):
        enumeration._classes(11, "the walk")


def test_exhaustion_oracle_matches_enumeration():
    labeled_expected = {1: 1, 2: 2, 3: 8, 4: 52, 5: 472, 6: 5504, 7: 78416}
    for n in range(1, 8):
        classes, labeled = p4_free_classes_by_exhaustion(n)
        assert classes == CLASS_COUNTS[n]
        assert labeled == labeled_expected[n]
    for n in (0, 8):
        with pytest.raises(ValueError, match="limited"):
            p4_free_classes_by_exhaustion(n)


def _induces_p4(quad, edges):
    inside = [p for p in combinations(quad, 2) if p in edges]
    degrees = sorted(sum(v in p for p in inside) for v in quad)
    return len(inside) == 3 and degrees == [1, 1, 2, 2]


def _p4_free_classes_literally(n):
    # every edge code, every 4-subset, and each class as its minimum code
    # over all n! relabelings
    pairs = list(combinations(range(n), 2))
    labeled = []
    for code in range(1 << len(pairs)):
        edges = {p for i, p in enumerate(pairs) if code >> i & 1}
        if not any(_induces_p4(quad, edges) for quad in combinations(range(n), 4)):
            labeled.append(edges)
    classes = {
        min(
            sum(1 << pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in edges)
            for perm in permutations(range(n))
        )
        for edges in labeled
    }
    return len(classes), len(labeled)


def test_exhaustion_oracle_matches_a_literal_filter():
    for n in range(1, 6):
        assert p4_free_classes_by_exhaustion(n) == _p4_free_classes_literally(n)


def test_verify_theorems_small():
    report = verify_theorems(3)
    assert report.passed
    assert report.checks["order_bound"].graphs_checked == 7
    assert report.checks["invariant_recursions"].graphs_checked == 7
    assert report.checks["complement_connectivity"].graphs_checked == 6


def test_verify_theorems_finds_the_cycle_exception():
    # the lone true violation: C4 attains the connected maximum at n=4
    # without being a cone, so the cone check must flag exactly it
    report = verify_theorems(6)
    assert not report.passed
    for name in CHECK_NAMES:
        if name == "connected_max_is_cone":
            assert report.checks[name].failures == [C4_KEY]
        else:
            assert report.checks[name].failures == []


def test_verify_theorems_nine_full_tallies():
    report = verify_theorems(9)
    checks = report.checks
    assert checks["order_bound"].graphs_checked == 2341
    assert checks["order_bound"].failures == []
    assert checks["extremal_characterization"].graphs_checked == 2150
    assert checks["extremal_characterization"].failures == []
    assert checks["connected_max_is_cone"].failures == [C4_KEY]
    assert checks["indep_bounds"].failures == []
    assert checks["clique_bound"].failures == []
    assert checks["maxdeg_bound"].graphs_checked == 1171
    assert checks["maxdeg_bound"].failures == []
    assert checks["induced_path_bounds"].failures == []
    assert checks["complement_connectivity"].graphs_checked == 2340
    assert checks["complement_connectivity"].failures == []
    assert checks["invariant_recursions"].graphs_checked == 809
    assert checks["invariant_recursions"].failures == []
    assert checks["order_bound_achieved"].failures == []


def test_verify_theorems_guards():
    with pytest.raises(ValueError, match="limited"):
        verify_theorems(11)
    with pytest.raises(ValueError, match="limited"):
        verify_theorems(0)


def _broken_reg(t):
    # mutation: take the max over union children instead of the sum
    if isinstance(t, Leaf):
        return 0
    if isinstance(t, Union):
        return max(_broken_reg(c) for c in t.children)
    if all(isinstance(c, Leaf) for c in t.children):
        return 1
    return max(2, max(_broken_reg(c) for c in t.children))


def test_mutated_regularity_rule_is_caught():
    report = verify_theorems(6, reg_fn=_broken_reg)
    failures = report.checks["extremal_characterization"].failures
    # two disjoint 2-edge paths no longer look extremal under the bad rule
    assert "U(J(L,U(L,L)),J(L,U(L,L)))" in failures
    assert report.checks["order_bound_achieved"].failures  # cap no longer attained


def test_a_zero_max_degree_fails_only_the_maxdeg_check(monkeypatch):
    clean = verify_theorems(5).checks
    monkeypatch.setattr(enumeration, "max_degree", lambda g: 0)
    broken = verify_theorems(5).checks
    # every connected class but the single vertex (reg 0) now exceeds the bound
    assert clean["maxdeg_bound"] == CheckResult(21, [])
    assert broken["maxdeg_bound"].graphs_checked == 21
    assert len(broken["maxdeg_bound"].failures) == 20
    assert "L" not in broken["maxdeg_bound"].failures
    del clean["maxdeg_bound"], broken["maxdeg_bound"]
    assert broken == clean


@pytest.mark.parametrize(
    "helper,stub,moved",
    [
        # G as its own complement: "exactly one of G and co-G is connected" fails
        # for every n >= 2, and the clique oracle then counts independent sets
        ("complement", lambda g: g, {"complement_connectivity": 106, "invariant_recursions": 90}),
        # n edges, longer than any induced path on n vertices: ell <= reg fails everywhere
        ("oracle_longest_induced_path", lambda g: g.n, {"induced_path_bounds": 107}),
        # the connected cap 2k - a - 1 lowered by one: every connected class at the cap
        # fails; the disconnected cap, which order_bound_achieved reads, stays
        ("order_bound", lambda n, connected: (*order_bound(n, connected)[:2],
                                              order_bound(n, connected)[2] - connected),
         {"order_bound": 19}),
        # corrupted summaries: a zero count fails its bound on every class with reg > 0
        # (all but the 6 edgeless ones) and the recursion check on every class
        ("CotreeSummary", lambda *fields: replace(CotreeSummary(*fields), num_max_indep=0),
         {"indep_bounds": 101, "invariant_recursions": 107}),
        ("CotreeSummary", lambda *fields: replace(CotreeSummary(*fields), num_max_cliques=0),
         {"clique_bound": 101, "invariant_recursions": 107}),
    ],
    ids=["identity-complement", "path-of-n-edges", "connected-cap-minus-one",
         "no-maximal-independent-sets", "no-maximal-cliques"],
)
def test_a_broken_helper_fails_only_its_checks(monkeypatch, helper, stub, moved):
    clean = verify_theorems(6).checks
    monkeypatch.setattr(enumeration, helper, stub)
    broken = verify_theorems(6).checks
    assert clean["connected_max_is_cone"].failures == [C4_KEY]
    for name, count in moved.items():
        assert clean[name].failures == []
        assert broken[name].graphs_checked == clean[name].graphs_checked
        assert len(broken[name].failures) == count
        del clean[name], broken[name]
    assert broken == clean


@pytest.mark.parametrize(
    "stub,failures",
    [
        # every connected maximizer a cone: the 4-cycle no longer fails
        (lambda g: True, 0),
        # none a cone: every connected maximizer fails, the 4-cycle among them
        (lambda g: False, 5),
    ],
    ids=["always-universal", "never-universal"],
)
def test_the_universal_vertex_test_moves_only_the_cone_check(monkeypatch, stub, failures):
    clean = verify_theorems(6).checks
    monkeypatch.setattr(enumeration, "has_universal_vertex", stub)
    broken = verify_theorems(6).checks
    cone, broken_cone = clean.pop("connected_max_is_cone"), broken.pop("connected_max_is_cone")
    assert cone.failures == [C4_KEY]
    assert broken_cone.graphs_checked == cone.graphs_checked
    assert len(broken_cone.failures) == failures
    assert (C4_KEY in broken_cone.failures) == bool(failures)
    assert broken == clean


def test_bound_table_structure():
    table = bound_comparison_table(5)
    assert table.bound_names == BOUND_NAMES
    assert table.total_graphs == 41
    for i in range(5):
        assert table.matrix[i][i] == 0
    # alpha <= clique count forces this zero
    c_row = BOUND_NAMES.index("num_max_cliques")
    a_col = BOUND_NAMES.index("alpha")
    assert table.matrix[c_row][a_col] == 0
    with pytest.raises(ValueError, match="limited"):
        bound_comparison_table(11)


# regression freeze of the full table for every cograph with n <= 9;
# the invariant columns are backed by the brute-force oracle agreement
# asserted in test_verify_theorems_nine_full_tallies
REFINED_MATRIX = [
    [0, 1145, 1191, 230, 1158],
    [749, 0, 1049, 0, 724],
    [672, 1049, 0, 515, 837],
    [1589, 1137, 1522, 0, 1150],
    [0, 362, 201, 1, 0],
]
UNREFINED_MATRIX = [
    [0, 968, 968, 148, 1090],
    [918, 0, 1049, 0, 724],
    [918, 1049, 0, 515, 837],
    [1828, 1137, 1522, 0, 1150],
    [5, 362, 201, 1, 0],
]


def test_bound_table_nine_frozen():
    table = bound_comparison_table(9)
    assert table.total_graphs == 2341
    assert table.total_connected == 1171
    assert table.matrix == REFINED_MATRIX
    assert table.strict_best == {
        "order_bound": 9,
        "num_max_cliques": 0,
        "num_max_indep": 475,
        "alpha": 714,
        "max_degree": 0,
    }


def test_bound_table_nine_unrefined_frozen():
    table = bound_comparison_table(9, refined_order_bound=False)
    assert table.matrix == UNREFINED_MATRIX
    assert table.strict_best == {
        "order_bound": 0,
        "num_max_cliques": 0,
        "num_max_indep": 505,
        "alpha": 724,
        "max_degree": 0,
    }


def test_report_and_table_serialization():
    report = verify_theorems(4)
    d = report.to_json_dict()
    assert d["n_max"] == 4 and d["pass"] is False
    assert set(d["checks"]) == set(CHECK_NAMES)
    text = report.to_text()
    assert "FAIL" in text and C4_KEY in text

    table = bound_comparison_table(4)
    d = table.to_json_dict()
    assert len(d["matrix"]) == 5
    assert "strictly best" in table.to_text()


def test_class_walk_calls_the_module_global_enumerator(monkeypatch):
    # the benchmark's traced run counts classes per n by wrapping this
    # global, and reads these two names, with no fallback
    import cograph_bei.enumeration as enumeration
    from cograph_bei import invariants, regularity

    counts = {}
    original = enumeration.enumerate_cotrees

    def counting(n):
        for t in original(n):
            counts[n] = counts.get(n, 0) + 1
            yield t

    monkeypatch.setattr(enumeration, "enumerate_cotrees", counting)
    expected = {n: CLASS_COUNTS[n] for n in range(1, 7)}
    verify_theorems(6)
    assert counts == expected
    counts.clear()
    bound_comparison_table(6)
    assert counts == expected
    assert callable(regularity.reg_cograph)
    assert isinstance(invariants.InvariantReport, type)
