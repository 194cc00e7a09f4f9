"""A re-runnable list of hand-written mutants, each with the test that must kill it.

Every entry changes one piece of text in one file of ``src/``.  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
first runs every named test there unchanged (they must all pass), then,
for each entry in turn, applies the change, runs the named test under the
per-test time limit of ``tests/conftest.py``, and restores the file.  The
mutant is killed when that test fails.

Run from anywhere; it takes about two seconds per mutant:

    python tests/mutants.py

It prints ``killed`` or ``SURVIVED`` per mutant and exits 0 when all were
killed, 1 when any survived, and 2 when the list no longer fits the code
(an old text not found exactly once, or a named test failing unchanged).
pytest does not collect this file: its name does not match ``test_*.py``.
A change that adds a test should also add the mutant that the test kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, file, old text, new text, test that must fail)
MUTANTS = [
    (
        "complement keeps the loop bit",
        "src/cograph_bei/graph.py",
        "full ^ m ^ (1 << u)",
        "full ^ m",
        "tests/test_graph.py::test_complement_matches_the_edge_built_one",
    ),
    (
        "disjoint union does not shift the masks",
        "src/cograph_bei/graph.py",
        "adj.extend(m << offset for m in g._adj)",
        "adj.extend(g._adj)",
        "tests/test_graph.py::test_disjoint_union_matches_the_edge_built_one",
    ),
    (
        "join adds no edge between the two sides",
        "src/cograph_bei/graph.py",
        "[m | high for m in g._adj] + [m << g.n | low for m in h._adj]",
        "list(g._adj) + [m << g.n for m in h._adj]",
        "tests/test_graph.py::test_join_matches_the_edge_built_one",
    ),
    (
        "complement connectivity is never checked",
        "src/cograph_bei/enumeration.py",
        'res["complement_connectivity"] = is_connected(g) != is_connected(co_g)',
        'res["complement_connectivity"] = True',
        "tests/test_enumeration.py::test_a_broken_helper_fails_only_its_checks"
        "[identity-complement]",
    ),
    (
        "the induced-path lower bound is never checked",
        "src/cograph_bei/enumeration.py",
        'res["induced_path_bounds"] = ell <= reg <= n - 1',
        'res["induced_path_bounds"] = reg <= n - 1',
        "tests/test_enumeration.py::test_a_broken_helper_fails_only_its_checks"
        "[path-of-n-edges]",
    ),
    (
        "the maximum-degree bound is never checked",
        "src/cograph_bei/enumeration.py",
        'res["maxdeg_bound"] = reg <= max_degree(g)',
        'res["maxdeg_bound"] = True',
        "tests/test_enumeration.py::test_a_zero_max_degree_fails_only_the_maxdeg_check",
    ),
    (
        "the order bound is never checked",
        "src/cograph_bei/enumeration.py",
        'res["order_bound"] = reg <= bound',
        'res["order_bound"] = True',
        "tests/test_enumeration.py::test_a_broken_helper_fails_only_its_checks"
        "[connected-cap-minus-one]",
    ),
    (
        "the independence bounds are never checked",
        "src/cograph_bei/enumeration.py",
        'res["indep_bounds"] = reg <= min(summary.num_max_indep, summary.alpha)',
        'res["indep_bounds"] = True',
        "tests/test_enumeration.py::test_a_broken_helper_fails_only_its_checks"
        "[no-maximal-independent-sets]",
    ),
    (
        "the clique bound is never checked",
        "src/cograph_bei/enumeration.py",
        'res["clique_bound"] = reg <= summary.num_max_cliques',
        'res["clique_bound"] = True',
        "tests/test_enumeration.py::test_a_broken_helper_fails_only_its_checks"
        "[no-maximal-cliques]",
    ),
    (
        "the bulk parser's range table takes the endpoint n + 1",
        "src/cograph_bei/graph.py",
        "index = {str(i): i - 1 for i in range(1, n + 1)}",
        "index = {str(i): i - 1 for i in range(1, n + 2)}",
        "tests/test_graph.py::test_bulk_parser_agrees_with_the_line_loop",
    ),
    (
        "the bulk parser lets loops through",
        "src/cograph_bei/graph.py",
        "        if any(map(operator.eq, us, vs)):\n            return None\n",
        "",
        "tests/test_graph.py::test_bulk_parser_agrees_with_the_line_loop",
    ),
    (
        "the bulk parser sets one side of each edge",
        "src/cograph_bei/graph.py",
        "            adj[v] |= 1 << u\n    return Graph._from_masks(adj)",
        "    return Graph._from_masks(adj)",
        "tests/test_graph.py::test_bulk_parser_agrees_with_the_line_loop",
    ),
    (
        "the bulk parser skips the shape check",
        "src/cograph_bei/graph.py",
        "        if not _EDGE_LINES.fullmatch(chunk):\n            return None\n",
        "",
        "tests/test_graph.py::test_bulk_parser_agrees_with_the_line_loop",
    ),
    (
        "the bulk parser drops a chunk's first character",
        "src/cograph_bei/graph.py",
        "start = stop + 1",
        "start = stop + 2",
        "tests/test_graph.py::test_a_fault_in_a_later_chunk_reaches_the_line_loop",
    ),
    (
        "the bulk parser allocates for any header count",
        "src/cograph_bei/graph.py",
        "if not 1 <= n <= 2 * (body.count(\"\\n\") + bool(body)) + 1:",
        "if not 1 <= n:",
        "tests/test_graph.py::test_a_large_header_count_allocates_nothing_before_a_bad_line",
    ),
    (
        "a connected maximizer always counts as a cone",
        "src/cograph_bei/enumeration.py",
        'res["connected_max_is_cone"] = reg != target or has_universal_vertex(g)',
        'res["connected_max_is_cone"] = True',
        "tests/test_enumeration.py::test_the_universal_vertex_test_moves_only_the_cone_check"
        "[never-universal]",
    ),
    (
        "the CLI keeps Python's digit limit on its output",
        "src/cograph_bei/cli.py",
        "    sys.set_int_max_str_digits(0)\n",
        "",
        "tests/test_cli.py::test_analyze_answers_past_the_digit_limit",
    ),
    (
        "the CLI leaves the digit limit lifted",
        "src/cograph_bei/cli.py",
        "    finally:\n        sys.set_int_max_str_digits(limit)\n",
        "",
        "tests/test_cli.py::test_analyze_answers_past_the_digit_limit",
    ),
    (
        "generate maps a fault in writing the chain to exit 2",
        "src/cograph_bei/cli.py",
        "            report = build_chain(args.k)\n",
        "            report = build_chain(args.k)\n            serialize_graph(report.graph, \"edgelist\")\n",
        "tests/test_cli.py::test_generate_exits_3_for_a_fault_after_the_build",
    ),
    (
        "the line loop converts tokens of any length",
        "src/cograph_bei/graph.py",
        "_MAX_DIGITS = sys.int_info.default_max_str_digits",
        "_MAX_DIGITS = sys.maxsize",
        "tests/test_graph.py::test_the_line_loop_ignores_a_lifted_digit_limit",
    ),
    (
        "the path oracle's bound forgets the next vertex",
        "src/cograph_bei/invariants.py",
        "if length + 1 + rest.bit_count() <= best:",
        "if length + rest.bit_count() <= best:",
        "tests/test_invariants.py::test_longest_induced_path_examples",
    ),
]


def _pytest(copy: Path, *nodes: str) -> bool:
    """True when every node passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cograph-bei-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)

        for _, path, old, _, _ in MUTANTS:
            found = (copy / path).read_text().count(old)
            if found != 1:
                print(f"error: {path} holds {old!r} {found} times, not once")
                return 2
        if not _pytest(copy, *dict.fromkeys(m[4] for m in MUTANTS)):
            print("error: a named test fails on the unchanged code")
            return 2

        survived = 0
        for what, path, old, new, node in MUTANTS:
            source = (copy / path).read_text()
            (copy / path).write_text(source.replace(old, new))
            try:
                killed = not _pytest(copy, node)
            finally:
                (copy / path).write_text(source)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':<9}{what}  ({node})")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
