"""Command-line front end: analyze, verify, generate, table.

Output is JSON by default; ``--pretty`` switches to plain text.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse errors, 3 an
internal error (any uncaught exception, ``MemoryError`` and
``RecursionError`` included), reported as one ``error:`` line.
"""

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .graph import (
    GraphParseError,
    complement,
    graph_to_json_dict,
    max_degree,
    parse_graph,
    serialize_graph,
)
from .cotree import P4Witness, build_cotree, cotree_to_json_dict
from .invariants import (
    MAX_ORACLE_SET_VERTICES,
    InvariantReport,
    oracle_maximal_independent_sets,
)
from .regularity import RegularityReport
from .extremal import connected_with_reg, max_reg_cograph
from .series import build_chain
from .enumeration import (
    MAX_VERIFY_VERTICES,
    bound_comparison_table,
    verify_theorems,
)

# The two scalar types that fill large payloads; json.dumps writes the rest.
_SCALAR_JSON = {str: encode_basestring_ascii, int: int.__repr__}
_END = object()


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for any nesting depth.

    The standard encoder recurses once per nesting level when it
    indents, and cotree JSON nests two levels per cotree level, so this
    writer keeps its open containers on an explicit stack.
    """
    chunks = []
    stack = []  # (item iterator, closing bracket, is_dict) per open container
    lines = ["\n"]  # lines[d]: a newline and the indentation of depth d
    value = obj
    while True:
        encode = _SCALAR_JSON.get(type(value))
        opened = False
        if encode is not None:
            chunks.append(encode(value))
        elif isinstance(value, dict) and value:
            chunks.append("{")
            stack.append((iter(value.items()), "}", True))
            opened = True
        elif isinstance(value, (list, tuple)) and value:
            chunks.append("[")
            stack.append((iter(value), "]", False))
            opened = True
        else:
            chunks.append(json.dumps(value))  # other scalars, empty containers
        if len(lines) == len(stack):
            lines.append(lines[-1] + "  ")
        while stack:
            items, close, is_dict = stack[-1]
            value = next(items, _END)
            if value is not _END:
                break
            stack.pop()
            chunks += (lines[len(stack)], close)
        else:
            return "".join(chunks)
        if not opened:
            chunks.append(",")
        chunks.append(lines[len(stack)])
        if is_dict:
            key, value = value
            chunks += (encode_basestring_ascii(key), ": ")


def _emit(args, payload: dict, pretty_text: str) -> None:
    if args.pretty:
        print(pretty_text)
    else:
        print(_json_text(payload))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_analyze(args) -> int:
    try:
        text = _read_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        g = parse_graph(text, args.format)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = build_cotree(g)
    payload = {"n": g.n, "cograph": not isinstance(result, P4Witness)}
    lines = [f"graph on {g.n} vertices, {g.edge_count} edges"]
    if isinstance(result, P4Witness):
        payload["p4_witness"] = [v + 1 for v in result.vertices()]
        lines.append(f"not a cograph: vertices {payload['p4_witness']} induce a P4")
        if g.n <= MAX_ORACLE_SET_VERTICES:
            indep = oracle_maximal_independent_sets(g)
            cliques = oracle_maximal_independent_sets(complement(g))
            report = InvariantReport(
                alpha=max(len(s) for s in indep),
                num_max_indep=len(indep),
                num_max_cliques=len(cliques),
                max_degree=max_degree(g),
            )
            payload["invariants"] = report.to_json_dict()
            lines.append(
                f"alpha {report.alpha}, maximal independent sets {report.num_max_indep}, "
                f"maximal cliques {report.num_max_cliques}, max degree {report.max_degree}"
            )
    else:
        payload["cotree"] = cotree_to_json_dict(result)
        report = RegularityReport.from_cotree(g, result)
        payload["invariants"] = InvariantReport(
            alpha=report.bound_alpha,
            num_max_indep=report.bound_i,
            num_max_cliques=report.bound_c,
            max_degree=max_degree(g),
        ).to_json_dict()
        payload["regularity"] = report.to_json_dict()
        lines.append(f"cograph: yes, reg(S/J_G) = {report.reg}")
        lines.append(
            f"bounds: order {report.order_bound} (n = 3*{report.k} - {report.a}), "
            f"i {report.bound_i}, alpha {report.bound_alpha}, c {report.bound_c}, "
            f"n-1 {report.upper_matsuda}"
            + (f", max degree {report.bound_maxdeg}" if report.bound_maxdeg is not None else "")
        )
        lines.append(f"induced path length {report.lower_bound_ell}, "
                     f"order bound tight: {report.tight_order_bound}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorems(args.max_n)
    _emit(args, report.to_json_dict(), report.to_text())
    return 0 if report.passed else 1


def _cmd_generate(args) -> int:
    # only a bad parameter exits 2: a builder's refusal, or a graph too
    # large for the short graph6 form; any later fault is the program's
    try:
        if args.kind == "chain":
            report = build_chain(args.k)
        else:
            g = max_reg_cograph(args.n) if args.kind == "maxreg" else connected_with_reg(args.r)
            g6 = serialize_graph(g, "graph6") if args.format == "graph6" else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.kind == "chain":
        pretty = (
            f"chain of {report.k} copies: {report.n_vertices} vertices, "
            f"reg {report.reg}, h-degree {report.h_degree}, gap {report.gap}\n"
            f"series: {report.series}\n"
            + serialize_graph(report.graph, "edgelist")
        )
        _emit(args, report.to_json_dict(), pretty)
    elif args.format == "json":
        _emit(args, graph_to_json_dict(g), serialize_graph(g, "edgelist"))
    elif args.format == "graph6":
        print(g6)  # graph6 has no line end of its own
    else:
        print(serialize_graph(g, "edgelist"), end="")
    return 0


def _cmd_table(args) -> int:
    table = bound_comparison_table(args.max_n)
    _emit(args, table.to_json_dict(), table.to_text())
    return 0


def _max_n_type(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if not 1 <= value <= MAX_VERIFY_VERTICES:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {MAX_VERIFY_VERTICES}, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograph-bei",
        description="cograph recognition, binomial edge ideal regularity, "
        "exhaustive bound verification and Hilbert series gluing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="recognize a graph and report regularity and bounds")
    p.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.add_argument("--pretty", action="store_true", help="plain text instead of JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check every bound on all cographs up to a size")
    p.add_argument("--max-n", type=_max_n_type, required=True,
                   help=f"largest vertex count, at most {MAX_VERIFY_VERTICES}")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="construct extremal families and chain graphs")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("maxreg", help="disconnected cograph of maximal regularity")
    k.add_argument("--n", type=int, required=True, help="vertex count (>= 2)")
    k.add_argument("--format", choices=("json", "edgelist", "graph6"), default="json")
    k.add_argument("--pretty", action="store_true")
    k = kinds.add_parser("cone", help="connected cograph with prescribed regularity")
    k.add_argument("--r", type=int, required=True, help="target regularity (>= 1)")
    k.add_argument("--format", choices=("json", "edgelist", "graph6"), default="json")
    k.add_argument("--pretty", action="store_true")
    k = kinds.add_parser("chain", help="glued chain with reg - deg h = k")
    k.add_argument("--k", type=int, required=True, help="number of copies (>= 1)")
    k.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("table", help="pairwise comparison of the five regularity bounds")
    p.add_argument("--max-n", type=_max_n_type, required=True,
                   help=f"largest vertex count, at most {MAX_VERIFY_VERTICES}")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # counts and series coefficients can pass Python's limit on the digits
    # str() writes; the setting is process-wide, so it is put back after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__})", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
