import io
import json
import sys

import pytest
from hypothesis import given, strategies as st

from cograph_bei import (
    P4Witness,
    build_cotree,
    cotree_from_json_dict,
    cotree_size,
    cotree_to_graph,
    graph_to_json_dict,
    max_reg_cograph,
)
from cograph_bei.graph import parse_graph
from cograph_bei.cli import _json_text, main


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


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/file.txt"])
    assert code == 2
    assert "cannot read" in err


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
    assert not isinstance(t, P4Witness) and cotree_size(t) == n
    assert code == 0
    assert "cograph: yes, reg(S/J_G) = 2" in pretty
    out, _ = capsys.readouterr()
    assert json_code == 0
    assert cotree_to_graph(cotree_from_json_dict(json.loads(out)["cotree"])) == g


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


def test_verify_env_workers(capsys, monkeypatch):
    monkeypatch.setenv("COGRAPH_BEI_THREADS", "2")
    code, out, _ = run(capsys, ["verify", "--max-n", "3"])
    assert code == 0
    monkeypatch.setenv("COGRAPH_BEI_THREADS", "zero")
    code, _, err = run(capsys, ["verify", "--max-n", "3"])
    assert code == 2
    assert "COGRAPH_BEI_THREADS" in err


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
    assert out.strip() == "A_"


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
