import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cograph_bei import (
    P4Witness,
    build_chain,
    build_cotree,
    cotree_to_json_dict,
    graph_to_json_dict,
    max_reg_cograph,
)
from cograph_bei.graph import parse_graph
from cograph_bei import cli
from cograph_bei.cli import _json_text, main

from reference import cotree_to_graph


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_p3_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze", "-"], stdin="n 3\n1 2\n2 3\n", monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["cograph"] is True
    assert payload["regularity"]["reg"] == 2
    assert payload["cotree"]["kind"] == "join"
    assert payload["invariants"] == {
        "alpha": "2", "num_max_indep": "2", "num_max_cliques": "2", "max_degree": "2",
    }


def test_analyze_p4_reports_witness(capsys, monkeypatch, tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("n 4\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, ["analyze", str(f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["cograph"] is False
    assert payload["p4_witness"] == [1, 2, 3, 4]
    assert "regularity" not in payload and "cotree" not in payload
    assert payload["invariants"]["alpha"] == "2"
    assert payload["invariants"]["num_max_indep"] == "3"
    assert payload["invariants"]["num_max_cliques"] == "3"


def test_analyze_disconnected_cograph_invariants(capsys, monkeypatch):
    # a 2-edge path plus a single edge: alpha 2 + 1, i(G) 2 * 2, c(G) 2 + 1
    code, out, _ = run(capsys, ["analyze"], stdin="n 5\n1 2\n2 3\n4 5\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"] == {
        "alpha": "3", "num_max_indep": "4", "num_max_cliques": "3", "max_degree": "2",
    }
    assert "bound_maxdeg" not in payload["regularity"]


def test_analyze_k1(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze"], stdin="n 1\n", monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["regularity"]["reg"] == 0
    inv = payload["invariants"]
    assert (inv["alpha"], inv["num_max_indep"], inv["num_max_cliques"]) == ("1", "1", "1")


def test_analyze_graph6(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze", "--format", "graph6"], stdin="Bw\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["regularity"]["reg"] == 1


def test_analyze_parse_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["analyze"], stdin="oops\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "header" in err


def test_analyze_non_decimal_header_digit(capsys, monkeypatch):
    # '\u00b2'.isdigit() holds but int() rejects it
    code, out, err = run(capsys, ["analyze"], stdin="n \u00b2\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == "error: line 1: expected header 'n <count>', got 'n \u00b2'\n"


@pytest.mark.parametrize("digits", [4000, 5000])
def test_analyze_header_count_past_any_index(capsys, monkeypatch, digits):
    # a count past any index is a parse error whose message echoes none
    # of the digits
    code, out, err = run(capsys, ["analyze"], stdin="n " + "9" * digits + "\n1 2\n",
                         monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == f"error: line 1: vertex count exceeds {sys.maxsize}\n"


def test_analyze_large_header_count_then_bad_line(capsys, monkeypatch):
    # the count is checked against the payload before anything is allocated
    # for it, so the bad line is an exit-2 parse error, not a MemoryError
    code, out, err = run(capsys, ["analyze"], stdin="n 100000000000\n1 x\n",
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: line 2: non-integer endpoint in '1 x'\n")


def test_analyze_endpoint_past_any_integer(capsys, monkeypatch):
    # the error line quotes at most 60 characters of the input line
    code, out, err = run(capsys, ["analyze"], stdin="n 3\n1 " + "9" * 5000 + "\n",
                         monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: endpoint out of range 1..3 in '1 999")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_analyze_counts_only_real_line_ends(capsys, monkeypatch):
    # a form feed ends no line: the bad line is line 3, and "1\f2" is the edge 1-2
    code, out, err = run(capsys, ["analyze"], stdin="n 3\n1 2\x0c\n1 x\n",
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: line 3: non-integer endpoint in '1 x'\n")
    code, out, _ = run(capsys, ["analyze"], stdin="n 2\n1\x0c2\n", monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["invariants"]["max_degree"] == "1"


def test_internal_error_exits_3(capsys, monkeypatch):
    def out_of_memory(g):
        raise MemoryError

    monkeypatch.setattr(cli, "build_cotree", out_of_memory)
    code, out, err = run(capsys, ["analyze"], stdin="n 2\n1 2\n", monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err == "error: internal error (MemoryError)\n"


@contextlib.contextmanager
def _digit_limit(digits):
    # 640 is the lowest limit Python allows: 663-digit answers stand in
    # for the 4300-digit ones that the default limit refuses
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_analyze_answers_past_the_digit_limit(capsys, tmp_path):
    # a perfect matching on 4400 vertices has 2^2200 maximal independent sets
    path = tmp_path / "matching.el"
    path.write_text("n 4400\n" + "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(2200)))
    with _digit_limit(640):
        code, out, err = run(capsys, ["analyze", str(path)])
        pretty_code, pretty, pretty_err = run(capsys, ["analyze", str(path), "--pretty"])
        assert sys.get_int_max_str_digits() == 640
    assert (code, err, pretty_code, pretty_err) == (0, "", 0, "")
    assert int(json.loads(out)["regularity"]["bound_i"]) == 2 ** 2200
    assert f", i {2 ** 2200}, " in pretty


def test_generate_chain_past_the_digit_limit(capsys):
    # at k = 420 the largest numerator coefficient has 662 digits
    with _digit_limit(640):
        code, out, err = run(capsys, ["generate", "chain", "--k", "420"])
        assert sys.get_int_max_str_digits() == 640
    assert (code, err) == (0, "")
    numerator = [int(c) for c in json.loads(out)["series"]["numerator"]]
    assert numerator == list(build_chain(420).series.numerator.coeffs)


def test_generate_exits_3_for_a_fault_after_the_build(capsys, monkeypatch):
    # only the builders' ValueErrors are bad parameters; one from writing
    # the answer is the program's fault
    def broken(g, format):
        raise ValueError("a fault in the writer")

    monkeypatch.setattr(cli, "serialize_graph", broken)
    for argv in (["generate", "maxreg", "--n", "6", "--format", "edgelist"],
                 ["generate", "chain", "--k", "2"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (3, "", "error: internal error (ValueError)\n")


def test_cli_import_loads_only_the_standard_library():
    # the package has no runtime dependency, so importing the CLI in a
    # fresh interpreter may load nothing outside the standard library
    probe = (
        "import sys; before = set(sys.modules); import cograph_bei.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'cograph_bei'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/file.txt"])
    assert code == 2
    assert "cannot read" in err


def test_analyze_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"n 2\n1 2\xff\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read input: ") and "0xff" in err


def test_analyze_pretty(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze", "--pretty"], stdin="n 3\n1 2\n2 3\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "reg(S/J_G) = 2" in out


def test_deep_threshold_graph_uses_no_frame_per_level(capsys, tmp_path):
    # Odd vertices dominate everything before them and even ones stay
    # isolated, so the cotree alternates union and join about n levels deep.
    n = 300
    lines = [f"n {n}"]
    for v in range(1, n, 2):
        lines.extend(f"{u + 1} {v + 1}" for u in range(v))
    text = "\n".join(lines) + "\n"
    f = tmp_path / "threshold.txt"
    f.write_text(text)
    g = parse_graph(text, "edgelist")

    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        t = build_cotree(g)
        code = main(["analyze", "--pretty", str(f)])
        pretty, _ = capsys.readouterr()
        json_code = main(["analyze", str(f)])
    finally:
        sys.setrecursionlimit(limit)
    assert not isinstance(t, P4Witness) and cotree_to_graph(t) == g
    assert code == 0
    assert "cograph: yes, reg(S/J_G) = 2" in pretty
    out, _ = capsys.readouterr()
    assert json_code == 0
    assert json.loads(out)["cotree"] == cotree_to_json_dict(t)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


@given(json_values)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_verify_small_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_verify_reports_the_cycle_finding(capsys):
    # from n = 4 on, the cone check truthfully flags the 4-cycle
    code, out, _ = run(capsys, ["verify", "--max-n", "5"])
    assert code == 1
    payload = json.loads(out)
    assert payload["checks"]["connected_max_is_cone"]["failures"] == ["J(U(L,L),U(L,L))"]
    assert all(
        not info["failures"]
        for name, info in payload["checks"].items()
        if name != "connected_max_is_cone"
    )


def test_verify_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "11"])
    assert exc.value.code == 2
    for command in ("verify", "table"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--max-n", "x"])
        assert exc.value.code == 2
        assert "argument --max-n: invalid int value: 'x'" in capsys.readouterr().err


def test_generate_maxreg(capsys):
    code, out, _ = run(capsys, ["generate", "maxreg", "--n", "6"])
    assert code == 0
    assert json.loads(out) == graph_to_json_dict(max_reg_cograph(6))


def test_generate_maxreg_formats(capsys):
    code, out, _ = run(capsys, ["generate", "maxreg", "--n", "4", "--format", "edgelist"])
    assert code == 0
    assert out == "n 4\n1 2\n3 4\n"
    code, out, _ = run(capsys, ["generate", "maxreg", "--n", "2", "--format", "graph6"])
    assert code == 0
    assert out == "A_\n"  # one graph per line, like the edge-list form


def test_generate_cone(capsys):
    code, out, _ = run(capsys, ["generate", "cone", "--r", "1"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "edges": [[1, 2]]}


def test_generate_chain(capsys):
    code, out, _ = run(capsys, ["generate", "chain", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n_vertices"] == 15
    assert payload["reg"] == 8
    assert payload["h_degree"] == 6
    assert payload["gap"] == 2


def test_generate_invalid_parameters(capsys):
    code, _, err = run(capsys, ["generate", "maxreg", "--n", "1"])
    assert code == 2 and "n >= 2" in err
    code, _, err = run(capsys, ["generate", "cone", "--r", "0"])
    assert code == 2 and "r >= 1" in err
    code, _, err = run(capsys, ["generate", "chain", "--k", "0"])
    assert code == 2 and "k >= 1" in err
    code, out, err = run(capsys, ["generate", "cone", "--r", "1000", "--format", "graph6"])
    assert code == 2 and out == "" and err.startswith("error:") and "n <= 62" in err


def test_table(capsys):
    code, out, _ = run(capsys, ["table", "--max-n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["matrix"]) == 5
    assert all(payload["matrix"][i][i] == 0 for i in range(5))
    code, out, _ = run(capsys, ["table", "--max-n", "4", "--pretty"])
    assert code == 0
    assert "strictly best" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2
