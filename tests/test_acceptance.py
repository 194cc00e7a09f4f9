"""Acceptance suite: one test per release criterion.

Every test prints one PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and asserts the criterion at its exact tolerance; all
quantities here are integers, so every comparison is exact.

Criterion 4 is expected to fail: the 4-cycle is a connected cograph on
4 vertices attaining the maximum regularity 2 for its size, and it has
no universal vertex.  The value 2 is forced independently of this
library (the induced path 1-2-3 gives reg >= 2, the 2k - a cap gives
reg <= 2), so the claimed cone property is false at exactly this graph
and the suite records that honestly instead of special-casing it.
"""

import time

import pytest

from cograph_bei import (
    IntPoly,
    bound_comparison_table,
    complete_graph,
    cone,
    counterexample_base,
    disjoint_union,
    enumerate_cotrees,
    p4_free_classes_by_exhaustion,
    path_graph,
    verify_theorems,
)
from cograph_bei.enumeration import BOUND_NAMES

from reference import glue_graphs, is_simplicial, reg_of
from test_series import schoolbook_mul


def _criterion(num, description, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num:02d}] {status} - {description}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


@pytest.fixture(scope="module")
def verification9():
    start = time.perf_counter()
    report = verify_theorems(9)
    return report, time.perf_counter() - start


def test_criterion_01_known_regularity_values():
    start = time.perf_counter()
    problems = []
    # paths with at most 3 vertices are cographs; recursion gives n - 1
    for n in (1, 2, 3):
        if reg_of(path_graph(n)) != n - 1:
            problems.append(f"reg(P{n}) != {n - 1} via recursion")
    # longer paths via free-vertex gluing of single edges: regularity
    # adds one per glued edge, so reg(Pn) = n - 1
    for n in range(2, 7):
        g = complete_graph(2)
        total = reg_of(g)
        for _ in range(n - 2):
            end = g.n - 1
            if not is_simplicial(g, end):
                problems.append(f"path endpoint not free while building P{n}")
                break
            g = glue_graphs(g, end, complete_graph(2), 0)
            total += reg_of(complete_graph(2))
        if g != path_graph(n) or total != n - 1:
            problems.append(f"glued chain for P{n}: graph or total {total} wrong")
    two_p3 = disjoint_union(path_graph(3), path_graph(3))
    if reg_of(two_p3) != 4:
        problems.append("reg(P3 + P3) != 4")
    if reg_of(cone(two_p3)) != 4:
        problems.append("reg(cone(P3 + P3)) != 4")
    for n in range(2, 9):
        if reg_of(complete_graph(n)) != 1:
            problems.append(f"reg(K{n}) != 1")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(1, "fixed regularity values (paths, unions, cones, cliques)", problems)


def test_criterion_02_order_bound_exhaustive(verification9):
    report, elapsed = verification9
    problems = []
    check = report.checks["order_bound"]
    if check.graphs_checked != 2341:
        problems.append(f"expected 2341 cographs with n <= 9, saw {check.graphs_checked}")
    problems.extend(f"violates order bound: {key}" for key in check.failures)
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _criterion(2, "reg <= 2k - a with connected refinement, all cographs n <= 9", problems)


def test_criterion_03_extremal_characterization(verification9):
    report, _ = verification9
    check = report.checks["extremal_characterization"]
    problems = []
    if check.graphs_checked != 2150:
        problems.append(f"expected 2150 graphs with a in {{0, 1}}, saw {check.graphs_checked}")
    problems.extend(f"characterization mismatch: {key}" for key in check.failures)
    _criterion(3, "cap attained exactly by unions of 2-edge paths plus at most one edge",
               problems)


def test_criterion_04_connected_maximizers_are_cones(verification9):
    report, _ = verification9
    check = report.checks["connected_max_is_cone"]
    problems = [
        f"connected maximizer without universal vertex: {key}" for key in check.failures
    ]
    _criterion(4, "connected maximizers for a in {0, 2}, k > 1 are cones", problems)


def test_criterion_05_invariant_bounds(verification9):
    report, _ = verification9
    problems = []
    expectations = {
        "indep_bounds": 2341,
        "clique_bound": 2341,
        "maxdeg_bound": 1171,
        "induced_path_bounds": 2341,
    }
    for name, expected_count in expectations.items():
        check = report.checks[name]
        if check.graphs_checked != expected_count:
            problems.append(f"{name}: checked {check.graphs_checked}, expected {expected_count}")
        problems.extend(f"{name} violated: {key}" for key in check.failures)
    _criterion(5, "reg <= min(i, alpha), reg <= c, reg <= max degree (connected), "
                  "ell <= reg <= n - 1", problems)


def test_criterion_06_recursions_match_oracles(verification9):
    report, _ = verification9
    check = report.checks["invariant_recursions"]
    problems = []
    if check.graphs_checked != 809:
        problems.append(f"expected 809 cographs with n <= 8, saw {check.graphs_checked}")
    problems.extend(f"recursion vs oracle mismatch: {key}" for key in check.failures)
    _criterion(6, "alpha, i, c recursions equal brute-force enumeration for n <= 8", problems)


def test_criterion_07_enumeration_cross_check():
    problems = []
    for n in range(1, 8):
        classes, _ = p4_free_classes_by_exhaustion(n)
        enumerated = sum(1 for _ in enumerate_cotrees(n))
        if classes != enumerated:
            problems.append(f"n={n}: graph-space filter {classes} vs cotrees {enumerated}")
    _criterion(7, "canonical cotree classes equal labeled-graph-space classes, n <= 7",
               problems)


def test_criterion_08_chain_family():
    from cograph_bei import build_chain

    start = time.perf_counter()
    problems = []
    base = [1, 7, 17, 13]
    expected_numerator = [1]
    for k in range(1, 51):
        expected_numerator = schoolbook_mul(expected_numerator, base)
        rep = build_chain(k)
        facts = {
            "reg": (rep.reg, 4 * k),
            "h_degree": (rep.h_degree, 3 * k),
            "gap": (rep.gap, k),
            "vertices": (rep.n_vertices, 7 * k + 1),
            "denom_exp": (rep.series.denom_exp, 7 * k + 2),
        }
        for name, (got, want) in facts.items():
            if got != want:
                problems.append(f"k={k}: {name} {got} != {want}")
        if rep.series.numerator != IntPoly(expected_numerator):
            problems.append(f"k={k}: numerator differs from the k-th power")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _criterion(8, "chain family: reg 4k, deg h 3k, gap k, 7k + 1 vertices, k <= 50",
               problems)


def test_criterion_09_free_vertex_hypotheses():
    problems = []
    base, _, _ = counterexample_base()
    for v in (0, 1):
        if not is_simplicial(base, v):
            problems.append(f"base vertex {v + 1} is not simplicial")
    try:
        glue_graphs(base, 7, base, 0)
        problems.append("glue accepted a non-simplicial vertex")
    except ValueError as exc:
        if "simplicial" not in str(exc):
            problems.append(f"wrong error message: {exc}")
    _criterion(9, "free vertices of the base graph; gluing rejects non-free vertices",
               problems)


def test_criterion_10_bound_table_structure():
    table = bound_comparison_table(9)
    problems = []
    if len(table.matrix) != 5 or any(len(row) != 5 for row in table.matrix):
        problems.append("table is not 5x5")
    for i in range(5):
        if table.matrix[i][i] != 0:
            problems.append(f"nonzero diagonal at {i}")
    c_row = BOUND_NAMES.index("num_max_cliques")
    a_col = BOUND_NAMES.index("alpha")
    if table.matrix[c_row][a_col] != 0:
        problems.append("clique count beats alpha somewhere, contradicting alpha <= c")
    _criterion(10, "5x5 bound table at n <= 9: zero diagonal, clique count never "
                   "beats alpha", problems)
