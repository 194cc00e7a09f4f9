"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each kind of operation it runs the program on small seeded inputs
through ``cograph_bei.cli.main``, confirms the check accepts the real
output, then corrupts that output in several ways and confirms the check
rejects every corruption.  Exits 1 if any check accepts a corrupted output
or rejects a real one.
"""

import contextlib
import copy
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from cograph_bei.cli import main  # noqa: E402


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def edited(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


class SelfTest:
    def __init__(self):
        self.misses = []
        self.cases = 0

    def expect(self, name, problems, should_pass: bool) -> None:
        self.cases += 1
        if bool(problems) == should_pass:
            verdict = problems[:2] if problems else "accepted"
            self.misses.append(f"{name}: {verdict}")

    def corruptions(self, label, check, code, out, facts, cases) -> None:
        self.expect(f"{label} real output", check(code, out, facts), True)
        for name, (bad_code, bad_out) in cases.items():
            self.expect(f"{label} {name}", check(bad_code, bad_out, facts), False)


def set_key(section, key, value):
    def edit(payload):
        (payload[section] if section else payload)[key] = value
    return edit


def bump(section, key, as_string=False):
    def edit(payload):
        target = payload[section] if section else payload
        value = int(target[key]) + 1
        target[key] = str(value) if as_string else value
    return edit


def analyze_cograph_cases(code, out):
    payload = json.loads(out)
    root = payload["cotree"]["kind"]
    flipped = "union" if root == "join" else "join"

    def flip_root(p):
        p["cotree"]["kind"] = flipped

    def drop_child(p):
        p["cotree"]["children"].pop()

    def relabel_leaf(p):
        node = p["cotree"]
        while node["kind"] != "leaf":
            node = node["children"][0]
        node["v"] = node["v"] % p["n"] + 1

    def flip_ell(p):
        p["regularity"]["lower_bound_ell"] = 3 - p["regularity"]["lower_bound_ell"]

    def toggle_maxdeg(p):
        if "bound_maxdeg" in p["regularity"]:
            del p["regularity"]["bound_maxdeg"]
        else:
            p["regularity"]["bound_maxdeg"] = 1

    return {
        "exit code 1": (1, out),
        "reg + 1": (code, edited(out, bump("regularity", "reg"))),
        "alpha + 1": (code, edited(out, bump("invariants", "alpha", True))),
        "i(G) + 1": (code, edited(out, bump("invariants", "num_max_indep", True))),
        "c(G) + 1": (code, edited(out, bump("invariants", "num_max_cliques", True))),
        "max degree + 1": (code, edited(out, bump("invariants", "max_degree", True))),
        "bound_c + 1": (code, edited(out, bump("regularity", "bound_c", True))),
        "order bound + 1": (code, edited(out, bump("regularity", "order_bound"))),
        "tight flag flipped": (code, edited(out, lambda p: p["regularity"].update(
            tight_order_bound=not p["regularity"]["tight_order_bound"]))),
        "induced path length changed": (code, edited(out, flip_ell)),
        "max-degree bound toggled": (code, edited(out, toggle_maxdeg)),
        "cotree root kind flipped": (code, edited(out, flip_root)),
        "cotree child dropped": (code, edited(out, drop_child)),
        "cotree leaf relabelled": (code, edited(out, relabel_leaf)),
        "not JSON": (code, out[:-3]),
    }


def main_selftest() -> int:
    t = SelfTest()
    rng = random.Random(7)
    runs = HERE.parent / ".bench_runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        tmp = Path(tmp)
        trees = {
            "dense cograph": inputs.random_cotree(rng, 40, "J")[0],
            "disconnected cograph": inputs.random_cotree(rng, 40, "U")[0],
            "threshold cograph": inputs.threshold_cotree(60, rng),
        }
        for label, tree in trees.items():
            n = 40 if "threshold" not in label else 60
            op = inputs.cograph_op(label, tmp / f"{label}.txt", tree, n)
            code, out = call(op.argv)
            t.corruptions(label, checks.check_analyze_cograph, code, out, op.expect,
                          analyze_cograph_cases(code, out))

        adj = inputs.twin_star_adjacency(rng, 20)
        path = tmp / "twin-star.txt"
        path.write_text(inputs.edgelist_text(adj))
        code, out = call(["analyze", str(path)])
        facts = {"n": 23, "adj": adj}
        quad = json.loads(out)["p4_witness"]
        t.corruptions("non-cograph", checks.check_analyze_p4, code, out, facts, {
            "middle vertices swapped": (code, edited(out, set_key(
                None, "p4_witness", [quad[0], quad[2], quad[1], quad[3]]))),
            "four leaves": (code, edited(out, set_key(None, "p4_witness", [1, 2, 3, 4]))),
            "repeated vertex": (code, edited(out, set_key(None, "p4_witness", quad[:3] + [quad[0]]))),
            "claims a cograph": (code, edited(out, set_key(None, "cograph", True))),
        })

    code, out = call(["verify", "--max-n", "10"])
    facts = {"n_max": 10}

    def add_failure(p):
        p["checks"]["order_bound"]["failures"].append("U(L,L)")

    t.corruptions("verify", checks.check_verify, code, out, facts, {
        "exit code 0": (0, out),
        "pass true": (code, edited(out, lambda p: p.update({"pass": True}))),
        "one class short": (code, edited(out, lambda p: p["checks"]["order_bound"].update(
            graphs_checked=p["checks"]["order_bound"]["graphs_checked"] - 1))),
        "connected count off": (code, edited(out, lambda p: p["checks"]["maxdeg_bound"].update(
            graphs_checked=p["checks"]["maxdeg_bound"]["graphs_checked"] + 1))),
        "extra failure": (code, edited(out, add_failure)),
        "C4 finding missing": (code, edited(out, lambda p: p["checks"]["connected_max_is_cone"].update(
            failures=[]))),
    })
    counts = {n + 1: c for n, c in enumerate(checks.A000084)}
    t.expect("class counts real", checks.check_class_counts(counts, 10), True)
    t.expect("class counts one short", checks.check_class_counts({**counts, 7: 179}, 10), False)

    code, out = call(["generate", "chain", "--k", "3"])

    def drop_edge(p):
        p["graph"]["edges"].pop()

    def bump_coefficient(p):
        p["series"]["numerator"][2] = str(int(p["series"]["numerator"][2]) + 1)

    t.corruptions("chain", checks.check_chain, code, out, {"k": 3}, {
        "reg + 1": (code, edited(out, bump(None, "reg"))),
        "gap + 1": (code, edited(out, bump(None, "gap"))),
        "denominator exponent + 1": (code, edited(out, lambda p: p["series"].update(
            denom_exp=p["series"]["denom_exp"] + 1))),
        "numerator coefficient + 1": (code, edited(out, bump_coefficient)),
        "edge dropped": (code, edited(out, drop_edge)),
    })

    for n in (10, 11, 12):
        code, out = call(["generate", "maxreg", "--n", str(n), "--format", "edgelist"])
        lines = out.splitlines()
        t.corruptions(f"maxreg n={n}", checks.check_maxreg, code, out, {"n": n}, {
            "edge dropped": (code, "\n".join(lines[:-1]) + "\n"),
            "components joined": (code, out + f"1 {n}\n"),
            "header off by one": (code, out.replace(f"n {n}", f"n {n + 1}", 1)),
        })

    for r in (6, 7):
        code, out = call(["generate", "cone", "--r", str(r)])
        payload = json.loads(out)
        apex = payload["n"]
        no_apex_edge = copy.deepcopy(payload)
        no_apex_edge["edges"].remove([1, apex])
        bridged = copy.deepcopy(payload)
        bridged["edges"].append([1, 4])
        bridged["edges"].sort()
        t.corruptions(f"cone r={r}", checks.check_cone, code, out, {"r": r}, {
            "apex edge removed": (code, json.dumps(no_apex_edge)),
            "two paths bridged": (code, json.dumps(bridged)),
            "exit code 2": (2, out),
        })

    for miss in t.misses:
        print(f"MISS {miss}")
    print(f"{t.cases - len(t.misses)} of {t.cases} self-test cases behaved as expected")
    return 1 if t.misses else 0


if __name__ == "__main__":
    sys.exit(main_selftest())
