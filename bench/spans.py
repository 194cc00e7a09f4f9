"""Spans around the calls into each `cograph_bei` module, installed from outside.

A wrapper goes around a public function under the name its caller module
uses (``cli.build_cotree``, ``regularity.build_cotree``, ...) or around a
class attribute (``Graph.__init__``, ``InvariantReport.from_cotree``).  A
recursive function is never wrapped through the global its own recursion
uses, so recursion depth and cost stay as they are: where the caller is
the function's own module (``regularity.bounds_report`` calling
``reg_cograph``), the wrapper calls a detached copy whose recursion goes
through a private globals dict, and so adds one frame at the top only.

Spans (name, start, end, parent) are kept in memory in columnar arrays
and written out at the end of the run.  A span's self time is its
duration minus its children's and minus the time the benchmark's
reference timer spent interrupting it (``pause``).
"""

import functools
import gzip
import json
import time
import types
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.paused = array("d")
        self._stack = []
        self.counters = defaultdict(float)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.paused.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        """End span idx; returns its duration less its own interruptions."""
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx] - self.paused[idx]

    def pause(self, seconds: float) -> None:
        """Charge an interruption to the innermost open span."""
        if self._stack:
            self.paused[self._stack[-1]] += seconds

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> dict:
        """Total self time per span name over spans lo..hi-1."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = defaultdict(float)
        for i in range(lo, hi):
            totals[self.names[self.name_id[i]]] += (
                self.end[i] - self.start[i] - child[i] - self.paused[i])
        return totals

    def write(self, path, meta: dict) -> None:
        base = self.start[0] if len(self.start) else 0.0
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": list(self.name_id),
            "start_us": [round((t - base) * 1e6) for t in self.start],
            "end_us": [round((t - base) * 1e6) for t in self.end],
            "parent": list(self.parent),
            "paused_us": [round(t * 1e6) for t in self.paused],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn, weight: int = 1, on_close=None):
        """fn with a span per call; ``weight`` is added to ``<name>.calls``."""
        nid = self.name_index(name)
        calls = name + ".calls"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += weight
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.close(idx)
            if on_close is not None:
                on_close(result, duration)
            return result

        return wrapper

    def timed_generator(self, name: str, fn, on_item):
        """A generator function with a span per resumption."""
        nid = self.name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                on_item(args, item)
                yield item

        return wrapper


def detached(fn):
    """A copy of fn whose own-name global lookups reach the copy itself."""
    scope = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = copy
    return copy


class Installation:
    """The wrappers for one traced stretch; ``remove`` restores every original."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def patch(self, target, attr: str, name: str, weight: int = 1, on_close=None, source=None):
        """Wrap ``target.attr`` (a module global or a class attribute).

        Targets a later version of the program no longer has are skipped,
        so their metrics read 0 instead of failing the run.
        """
        raw = vars(target).get(attr)
        if raw is None:
            return
        self._saved.append((target, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.timed(name, raw.__func__, weight, on_close))
        else:
            wrapped = self.tracer.timed(name, source or raw, weight, on_close)
        setattr(target, attr, wrapped)

    def patch_generator(self, target, attr: str, name: str, on_item):
        raw = vars(target).get(attr)
        if raw is None:
            return
        self._saved.append((target, attr, raw))
        setattr(target, attr, self.tracer.timed_generator(name, raw, on_item))

    def remove(self) -> None:
        for target, attr, raw in reversed(self._saved):
            setattr(target, attr, raw)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary of the `cograph_bei` package."""
    from cograph_bei import cli, cotree, enumeration, extremal, graph, invariants, regularity, series

    inst = Installation(tracer)
    counters = tracer.counters

    def witness_time(result, duration):
        if isinstance(result, cotree.P4Witness):
            counters["cotree.build_cotree.witness_s"] += duration

    def count_class(args, item):
        counters["enumeration.classes"] += 1
        counters[f"enumeration.classes.n{args[0]}"] += 1

    patches = [
        (cli, "parse_graph", "graph.parse_graph"),
        (graph.Graph, "__init__", "graph.Graph"),
        (cli, "complement", "graph.complement"),
        (enumeration, "complement", "graph.complement"),
        (invariants, "complement", "graph.complement"),
        (extremal, "disjoint_union", "graph.disjoint_union"),
        (extremal, "join", "graph.join"),
        (cli, "max_degree", "graph.max_degree"),
        (regularity, "max_degree", "graph.max_degree"),
        (invariants, "max_degree", "graph.max_degree"),
        (enumeration, "max_degree", "graph.max_degree"),
        (cli, "cotree_to_json_dict", "cotree.cotree_to_json_dict"),
        (enumeration, "cotree_to_graph", "cotree.cotree_to_graph"),
        (enumeration, "canonical_key", "cotree.canonical_key"),
        (regularity, "canonical_key", "cotree.canonical_key"),
        (cli, "bounds_report", "regularity.bounds_report"),
        (enumeration, "oracle_longest_induced_path", "invariants.oracle_longest_induced_path"),
        (regularity, "oracle_longest_induced_path", "invariants.oracle_longest_induced_path"),
        (enumeration, "oracle_maximal_independent_sets", "invariants.oracle_maximal_independent_sets"),
        (cli, "oracle_maximal_independent_sets", "invariants.oracle_maximal_independent_sets"),
        (cli, "verify_theorems", "enumeration.verify_theorems"),
        (cli, "max_reg_cograph", "extremal.max_reg_cograph"),
        (cli, "connected_with_reg", "extremal.connected_with_reg"),
        (cli, "build_chain", "series.build_chain"),
        (series, "glue_graphs", "series.glue_graphs"),
        (series, "series_glue", "series.series_glue"),
    ]
    for target, attr, name in patches:
        inst.patch(target, attr, name)
    for target in (cli, regularity):
        inst.patch(target, "build_cotree", "cotree.build_cotree", on_close=witness_time)
    for target in (regularity, enumeration):
        for attr in ("alpha_cotree", "count_max_indep_cotree", "count_max_cliques_cotree"):
            inst.patch(target, attr, "invariants.folds")
    # from_cotree runs the three folds (alpha, i(G), c(G)) in one call
    inst.patch(invariants.InvariantReport, "from_cotree", "invariants.folds", weight=3)
    reg = detached(regularity.reg_cograph)
    for target in (regularity, enumeration):
        inst.patch(target, "reg_cograph", "regularity.reg_cograph", source=reg)
    inst.patch_generator(enumeration, "enumerate_cotrees", "enumeration.enumerate_cotrees", count_class)
    return inst
