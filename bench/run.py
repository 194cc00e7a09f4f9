"""Benchmark of the `cograph-bei` command, one named workload per run.

    python3 bench/run.py --workload analyze-dense --seed 1 --seconds 20 --trace 0

Runs are closed loop: one process and one thread call
``cograph_bei.cli.main(argv)`` in-process, with stdout captured, and the
next operation starts when the previous one returns.  Operations repeat
in whole rounds of the workload's fixed input mix until ``--seconds`` of
operation time have passed.  Every output is checked against facts the
benchmark computes itself (see ``checks.py``).

Times are reference-scaled (see ``Reference``).  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` rounds
alternate between untraced and traced, and it reports per-layer metrics
from the traced rounds, the tracing overhead and the unscaled figures.
Spans are written to ``.bench_runs/trace-<workload>.json.gz``.  See
``bench/README.md``.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120

# The set-up probe is the smallest command of the workload's kind, run in
# a fresh interpreter: start, package import, lazy set-up and one answer.
SETUP_PROBE_GRAPH = "n 6\n1 2\n1 3\n2 3\n3 4\n5 6\n"
SETUP_PROBES = {
    "analyze-dense": (["analyze", "{probe}"], 0),
    "analyze-deep": (["analyze", "{probe}"], 0),
    "exhaustive": (["verify", "--max-n", "6"], 1),
    "generate": (["generate", "chain", "--k", "1"], 0),
}

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from cograph_bei.cli import main
sys.exit(0 if main(sys.argv[3:]) == int(sys.argv[2]) else 3)
"""

# Peak memory comes from a fresh interpreter that runs one round of the
# workload, so neither the benchmark's own data nor heap growth over a
# long run moves it.
MEMORY_CHILD = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from cograph_bei.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except RecursionError:
            pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

PER_LAYER = (
    "graph.parse_graph.self_s",
    "graph.Graph.self_s",
    "graph.Graph.calls",
    "graph.complement.self_s",
    "graph.disjoint_union.self_s",
    "cotree.build_cotree.self_s",
    "cotree.build_cotree.witness_s",
    "cotree.build_cotree.calls",
    "cotree.cotree_to_json_dict.self_s",
    "cotree.cotree_to_graph.self_s",
    "cotree.canonical_key.self_s",
    "regularity.bounds_report.self_s",
    "regularity.reg_cograph.self_s",
    "regularity.reg_cograph.calls",
    "invariants.folds.self_s",
    "invariants.folds.calls",
    "invariants.oracle_longest_induced_path.self_s",
    "invariants.oracle_longest_induced_path.calls",
    "invariants.oracle_maximal_independent_sets.self_s",
    "enumeration.enumerate_cotrees.self_s",
    "enumeration.classes",
    "enumeration.verify_theorems.self_s",
    "extremal.max_reg_cograph.self_s",
    "extremal.connected_with_reg.self_s",
    "series.build_chain.self_s",
    "series.glue_graphs.self_s",
    "series.series_glue.self_s",
    "cli.main.self_s",
    "cli.output_bytes",
    "trace.spans",
    "trace.overhead_ratio",
    "raw.ops_per_s",
    "raw.op_p50_s",
    "reference.task_s",
)

UNITS = {
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "raw.ops_per_s": "1/s",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Failure(Exception):
    """The benchmark cannot produce a result."""


class Reference:
    """A fixed pure-Python task timed next to every measurement.

    Host load moves this machine's speed by tens of percent within minutes
    (one set of analyze-dense rounds took 0.40 to 0.82 s each), which
    buries any change to the program.  Each operation is therefore timed
    between two reference points, and its time t is reported as
    t * NOMINAL_S / r, r being the mean of the two.  A point is the median
    of three timings of a task that does the same kind of work as the
    workload, so that it slows with the program:

    * ``parse`` splits and parses a 7500-line edge list into adjacency
      sets (string handling, hashing, allocation), like `analyze` and the
      `Graph` rebuilds of `generate`;
    * ``search`` runs a recursive longest-induced-path search over small
      sets on a fixed 11-vertex graph (function calls, small-set algebra),
      like the brute-force oracles that dominate `verify`.  The parse task
      tracked `verify` poorly: when the machine sped up, it sped up twice
      as much as `verify` did.

    Points taken only before and after an operation missed the swings
    inside a 3.5 s `verify` call, so during an operation a timer also runs
    the task every PERIOD_S seconds from a SIGALRM handler; the handler's
    time is subtracted from the operation, and the operation's scale uses
    the mean of every timing from its first point to its last.  The
    collector is off while the task runs.  NOMINAL_S is the task's usual
    time on the reference machine, so scaled figures read as seconds.
    """

    NOMINAL_S = 0.010
    PERIOD_S = 0.2
    REPEATS = 3
    PARSE_LINES = 7500
    SEARCH_VERTICES = 11
    SEARCH_DENSITY = 0.35
    SEARCH_PASSES = 9

    def __init__(self, kind: str):
        rng = random.Random(20190614)
        if kind == "parse":
            self.text = "".join(
                f"{rng.randrange(1, 3000)} {rng.randrange(1, 3000)}\n" for _ in range(self.PARSE_LINES))
            self._task = self._parse
        else:
            n = self.SEARCH_VERTICES
            adj = [set() for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < self.SEARCH_DENSITY:
                        adj[u].add(v)
                        adj[v].add(u)
            self.adj = [frozenset(s) for s in adj]
            self._task = self._search
        self.samples = []
        self.last = None
        self.paused_s = 0.0
        self.on_pause = None
        self._inside = []

    def _parse(self) -> None:
        adj = {}
        for line in self.text.splitlines():
            a, b = line.split()
            u, v = int(a), int(b)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)

    def _search(self) -> None:
        adj = self.adj
        best = 0

        def extend(path, in_path):
            nonlocal best
            best = max(best, len(path) - 1)
            forbidden = set()
            for v in path[:-1]:
                forbidden |= adj[v]
            for w in sorted(adj[path[-1]]):
                if w not in in_path and w not in forbidden:
                    path.append(w)
                    in_path.add(w)
                    extend(path, in_path)
                    in_path.discard(w)
                    path.pop()

        for _ in range(self.SEARCH_PASSES):
            for start in range(len(adj)):
                extend([start], {start})

    def _timed(self) -> float:
        t0 = time.perf_counter()
        self._task()
        return time.perf_counter() - t0

    def sample(self) -> float:
        gc.disable()
        try:
            self.last = statistics.median(self._timed() for _ in range(self.REPEATS))
        finally:
            gc.enable()
        self.samples.append(self.last)
        return self.last

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._inside.append(self._timed())
        except RecursionError:
            pass  # the program is at the recursion limit; skip this timing
        finally:
            if enabled:
                gc.enable()
        spent = time.perf_counter() - t0
        self.paused_s += spent
        if self.on_pause is not None:
            self.on_pause(spent)

    @contextlib.contextmanager
    def ticking(self):
        """Run the task every PERIOD_S seconds while the block runs."""
        self.paused_s = 0.0
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, before: float, after: float) -> float:
        """NOMINAL_S over the mean timing from ``before`` to ``after``."""
        timings = [before, after, *self._inside]
        return self.NOMINAL_S * len(timings) / sum(timings)


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("COGRAPH_BEI_THREADS", "PYTHONPATH")}


class SetupProbe:
    """Wall time of fresh interpreters answering the workload's probe.

    Samples are spread over the run, so they see the same host load as the
    operations, and the median is reported.  They are not reference-scaled:
    process start-up is mostly kernel and file work, which host load slows
    differently from the reference task.
    """

    def __init__(self, workload: str, probe_path: Path):
        argv, code = SETUP_PROBES[workload]
        argv = [a.format(probe=probe_path) for a in argv]
        self.cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(code), *argv]
        self.samples = []
        self._run()  # the first child also writes the bytecode cache, so it is not kept

    def _run(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise Failure(f"set-up probe exited {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace')[-500:]}")
        return elapsed

    def sample_if_due(self, progress: float) -> None:
        """Take the next sample once ``progress`` (0..1) of the run is done."""
        while len(self.samples) < SETUP_SAMPLES and progress >= len(self.samples) / SETUP_SAMPLES:
            self.samples.append(self._run())

    def median(self) -> float:
        self.sample_if_due(1.0)
        return statistics.median(self.samples)


def measure_peak_rss_mb(ops) -> float:
    """Peak resident memory of a fresh process running one round."""
    argvs = json.dumps([op.argv for op in ops])
    proc = subprocess.run([sys.executable, "-c", MEMORY_CHILD, str(SRC), argvs], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise Failure(f"memory probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return int(proc.stdout.split()[-1]) / 1024.0


class Checker:
    """Checks each output; an output byte-identical to one already checked
    for the same operation in this run is accepted without re-checking."""

    def __init__(self):
        self.correct = True
        self.problems = []
        self._verified = {}

    def check(self, op, code, out) -> None:
        if self._verified.get(op.label) == (code, out):
            return
        found = op.check(code, out, op.expect)
        if found:
            self.fail(op, found)
        else:
            self._verified[op.label] = (code, out)

    def fail(self, op, problems) -> None:
        self.correct = False
        for p in problems[:5]:
            self.problems.append(f"{op.label}: {p}")


def run_op(main, op, reference):
    """One timed call; returns (seconds, exit code or None, stdout, error).

    Each call starts from a freshly collected heap, as a command run from
    the shell would, so the collector's work inside the call depends on the
    call alone and not on what the benchmark allocated before it.  The
    reference task's time inside the call is not counted.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with reference.ticking(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
        error = None
    except RecursionError:
        code, error = None, "RecursionError"
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0 - reference.paused_s, code, out.getvalue(), error


class Tally:
    """Operation counts and times; ``raw_*`` keep the unscaled times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []       # completed operations only
        self.raw_latencies = []
        self.rounds = []          # operation time of each round, failed ones included
        self.raw_rounds = []

    @property
    def busy_s(self) -> float:
        return sum(self.raw_rounds)


def run_round(main, ops, checker, tally, reference, counters=None) -> float:
    """One pass over the input mix; returns its scaled operation time."""
    busy = raw_busy = 0.0
    before = reference.last if reference.last is not None else reference.sample()
    for op in ops:
        dt, code, out, error = run_op(main, op, reference)
        after = reference.sample()
        scaled = dt * reference.scale(before, after)
        before = after
        busy += scaled
        raw_busy += dt
        tally.attempted += 1
        if counters is not None:
            counters["cli.output_bytes"] += len(out.encode())
        if error is None:
            tally.latencies.append(scaled)
            tally.raw_latencies.append(dt)
            checker.check(op, code, out)
        else:
            tally.failed += 1
            if not (op.may_fail and error == "RecursionError"):
                checker.fail(op, [f"unexpected failure: {error}"])
    # scaling assumes the program runs alone between operations
    if threading.active_count() != 1:
        raise Failure("a thread outlived its operation; reference scaling would be unsound")
    tally.rounds.append(busy)
    tally.raw_rounds.append(raw_busy)
    return busy


def p50_with_failures(latencies, attempted: int) -> float:
    """Nearest-rank median, a failed operation counting as slower than all.

    When more than half failed, a time above the completed operations'
    total stands in for the median.
    """
    rank = math.ceil(0.5 * attempted)
    done = sorted(latencies)
    return done[rank - 1] if rank <= len(done) else sum(done) + 1.0


def ops_per_s(rounds, tally) -> float:
    # completed operations per round over the median round time, so a
    # stall in one round does not move the figure
    return len(tally.latencies) / len(tally.rounds) / statistics.median(rounds)


def end_to_end(main, ops, seconds, checker, reference, setup, peak_rss_mb):
    tally = Tally()
    while tally.busy_s < seconds:
        setup.sample_if_due(tally.busy_s / seconds)
        run_round(main, ops, checker, tally, reference)
    metrics = {
        "setup_s": (setup.median(), "s"),
        "ops_per_s": (ops_per_s(tally.rounds, tally), "1/s"),
        "op_p50_s": (p50_with_failures(tally.latencies, tally.attempted), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(main, ops, seconds, checker, reference, workload, seed):
    """Alternate untraced and traced rounds; per-layer medians per operation."""
    import spans

    tracer = spans.Tracer()
    traced_main = tracer.timed("cli.main", main)
    tally = Tally()
    plain_rounds, traced_rounds, per_round = [], [], []
    while tally.busy_s < seconds or not traced_rounds:
        if len(plain_rounds) <= len(traced_rounds):
            plain_rounds.append(run_round(main, ops, checker, tally, reference))
            continue
        inst = spans.install(tracer)
        lo = tracer.span_count()
        first_sample = len(reference.samples) - 1
        before = dict(tracer.counters)
        reference.on_pause = tracer.pause
        try:
            busy = run_round(traced_main, ops, checker, tally, reference, tracer.counters)
        finally:
            reference.on_pause = None
            inst.remove()
        traced_rounds.append(busy)
        hi = tracer.span_count()
        scale = Reference.NOMINAL_S / statistics.median(reference.samples[first_sample:])
        row = {name: total * scale / len(ops) for name, total in tracer.self_times(lo, hi).items()}
        for key, value in tracer.counters.items():
            delta = (value - before.get(key, 0.0)) / len(ops)
            row[key] = delta * scale if key.endswith("_s") else delta
        row["trace.spans"] = (hi - lo) / len(ops)
        per_round.append(row)

    if workload == "exhaustive":
        prefix = "enumeration.classes.n"
        classes = {int(key[len(prefix):]): round(value / len(traced_rounds))
                   for key, value in tracer.counters.items() if key.startswith(prefix)}
        found = checks.check_class_counts(classes, ops[0].expect["n_max"])
        if found:
            checker.fail(ops[0], found)

    special = {
        "trace.overhead_ratio": statistics.median(traced_rounds) / statistics.median(plain_rounds) - 1.0,
        "raw.ops_per_s": ops_per_s(tally.raw_rounds, tally),
        "raw.op_p50_s": p50_with_failures(tally.raw_latencies, tally.attempted),
        "reference.task_s": statistics.median(reference.samples),
    }
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            key = name[:-len(".self_s")] if name.endswith(".self_s") else name
            value = statistics.median(row.get(key, 0.0) for row in per_round)
        metrics[name] = {"value": value, "unit": unit_of(name)}

    RUNS.mkdir(exist_ok=True)
    tracer.write(RUNS / f"trace-{workload}.json.gz", {
        "workload": workload, "seed": seed, "operations": [op.label for op in ops],
        "traced_rounds": len(traced_rounds),
    })
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cograph_bei" / "__init__.py").is_file():
        print(f"error: no cograph_bei package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("COGRAPH_BEI_THREADS", None)
    workdir = RUNS / f"inputs-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        probe = workdir / "setup-probe.txt"
        probe.write_text(SETUP_PROBE_GRAPH)
        ops = inputs.WORKLOADS[args.workload](args.seed, workdir)

        sys.path.insert(0, str(SRC))
        from cograph_bei import cli
        if Path(cli.__file__).resolve().parents[1] != SRC:
            raise Failure(f"imported cograph_bei from {cli.__file__}, not from {SRC}")

        checker = Checker()
        reference = Reference(inputs.REFERENCE_TASK[args.workload])
        if args.trace:
            tally, metrics = per_layer(cli.main, ops, args.seconds, checker, reference,
                                       args.workload, args.seed)
        else:
            setup = SetupProbe(args.workload, probe)
            peak_rss_mb = measure_peak_rss_mb(ops)
            tally, metrics = end_to_end(cli.main, ops, args.seconds, checker, reference,
                                        setup, peak_rss_mb)
    except (Failure, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(tally.rounds)} rounds of {len(ops)} operations; "
          f"round times scaled {' '.join(f'{r:.3f}' for r in tally.rounds)} s, "
          f"unscaled {' '.join(f'{r:.3f}' for r in tally.raw_rounds)} s", file=sys.stderr)
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
