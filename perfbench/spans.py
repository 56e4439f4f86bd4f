"""Layer-by-layer tracing of covpkit from outside the library.

``Tracer.install()`` wraps the public functions of each layer in every
covpkit module namespace that holds them.  Modules bind names at import
(``covp`` holds its own ``rank``, ``savs`` its own ``solve_linear``,
``exact`` its own ``echelon``), so patching the defining module alone would
miss most calls; instead every covpkit module attribute that *is* the
original function is replaced.

With ``spans=True`` each call records a span ``[name, start, end, parent,
op_id]`` in memory; with ``spans=False`` only the work counters run (cells,
nodes, ...), which the untraced timed run uses for its exact counts.  Self
time is a span's duration minus the durations of its direct children (one
thread, so children never overlap); busy time and calls count only the
outermost span of a name, so nested calls of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric name, unit, better
PER_LAYER = [
    ("kernels.echelon.calls", "count", "lower"),
    ("kernels.echelon.busy_s", "s", "lower"),
    ("kernels.echelon.cells", "count", "lower"),
    ("kernels.det_bareiss.calls", "count", "lower"),
    ("kernels.det_bareiss.busy_s", "s", "lower"),
    ("exact.rank.calls", "count", "lower"),
    ("exact.rank.self_s", "s", "lower"),
    ("exact.solve_linear.calls", "count", "lower"),
    ("exact.solve_linear.self_s", "s", "lower"),
    ("exact.solve_linear.tracking_cells", "count", "lower"),
    ("exact.determinant.self_s", "s", "lower"),
    ("feasible.enumerate.calls", "count", "lower"),
    ("feasible.enumerate.self_s", "s", "lower"),
    ("feasible.enumerate.nodes", "count", "lower"),
    ("feasible.enumerate.solutions", "count", "lower"),
    ("feasible.enumerate.yield", "ratio", "higher"),
    ("feasible.objective.calls", "count", "lower"),
    ("feasible.objective.busy_s", "s", "lower"),
    ("savs.decompose.calls", "count", "lower"),
    ("savs.decompose.self_s", "s", "lower"),
    ("savs.decompose.entries", "count", "lower"),
    ("savs.savs_dimension.self_s", "s", "lower"),
    ("covp.check_axial_fast.self_s", "s", "lower"),
    ("covp.check_planar_p2.self_s", "s", "lower"),
    ("covp.check_bruteforce.self_s", "s", "lower"),
    ("covp.space_dimension.self_s", "s", "lower"),
    ("covp.conjecture_experiment.self_s", "s", "lower"),
    ("covp.verify_rank_Md.self_s", "s", "lower"),
    ("transform.covp_check_axial_tp.self_s", "s", "lower"),
    ("transform.reduce.self_s", "s", "lower"),
    ("graphs.mst.self_s", "s", "lower"),
    ("graphs.sp.self_s", "s", "lower"),
    ("graphs.matching.self_s", "s", "lower"),
    ("graphs.tsp.self_s", "s", "lower"),
    ("graphs.witness_missing", "count", "lower"),
    ("jsonio.parse.busy_s", "s", "lower"),
    ("jsonio.emit.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# A traced run fails when one of these records no call on its workload.
REQUIRED = {
    "verdicts": ["savs.decompose", "covp.check_axial_fast", "covp.check_planar_p2",
                 "transform.covp_check_axial_tp", "transform.reduce", "graphs.mst",
                 "graphs.sp", "graphs.matching", "graphs.tsp"],
    "enumeration": ["feasible.enumerate", "covp.check_bruteforce", "covp.space_dimension",
                    "covp.conjecture_experiment", "covp.verify_rank_Md"],
    "cli": ["cli.main", "jsonio.parse"],
}


def _cells(counts, args, kwargs):
    rows = args[0]
    counts["kernels.echelon.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _tracking(counts, args, kwargs):
    counts["exact.solve_linear.tracking_cells"] += args[0].rows ** 2


def _entries(counts, args, kwargs):
    counts["savs.decompose.entries"] += len(args[0].data)


def _enumerated(counts, result):
    counts["feasible.enumerate.nodes"] += result.nodes
    counts["feasible.enumerate.solutions"] += result.count


def _witness(counts, result):
    counts["graphs.witness_missing"] += int(not result.holds and result.witness is None)


# (span name, defining module, function names, before-call counter, after-call counter)
TARGETS = [
    ("kernels.echelon", "covpkit._kernels", ["echelon"], _cells, None),
    ("kernels.det_bareiss", "covpkit._kernels", ["det_bareiss"], None, None),
    ("exact.rank", "covpkit.exact", ["rank"], None, None),
    ("exact.solve_linear", "covpkit.exact", ["solve_linear"], _tracking, None),
    ("exact.determinant", "covpkit.exact", ["determinant"], None, None),
    ("feasible.enumerate", "covpkit.feasible",
     ["enumerate_general", "enumerate_axial", "enumerate_planar", "enumerate_mols"], None, _enumerated),
    ("feasible.objective", "covpkit.feasible", ["objective"], None, None),
    ("savs.decompose", "covpkit.savs", ["decompose"], _entries, None),
    ("savs.savs_dimension", "covpkit.savs", ["savs_dimension"], None, None),
    ("covp.check_axial_fast", "covpkit.covp", ["covp_check_axial_fast"], None, None),
    ("covp.check_planar_p2", "covpkit.covp", ["covp_check_planar_p2"], None, None),
    ("covp.check_bruteforce", "covpkit.covp", ["covp_check_bruteforce"], None, None),
    ("covp.space_dimension", "covpkit.covp", ["covp_space_dimension"], None, None),
    ("covp.conjecture_experiment", "covpkit.covp", ["conjecture_experiment"], None, None),
    ("covp.verify_rank_Md", "covpkit.covp", ["verify_rank_Md"], None, None),
    ("transform.covp_check_axial_tp", "covpkit.transform", ["covp_check_axial_tp"], None, None),
    ("transform.reduce", "covpkit.transform", ["axial_reduction"], None, None),
    ("graphs.mst", "covpkit.graphs", ["mst_covp"], None, _witness),
    ("graphs.sp", "covpkit.graphs", ["sp_undirected_covp", "sp_directed_covp"], None, _witness),
    ("graphs.matching", "covpkit.graphs", ["matching_covp"], None, _witness),
    ("graphs.tsp", "covpkit.graphs", ["tsp_covp"], None, _witness),
    ("jsonio.parse", "covpkit.jsonio",
     ["load_file", "loads_strict", "tensor_from_obj", "graph_from_obj", "transport_from_obj"], None, None),
    ("jsonio.emit", "covpkit.jsonio",
     ["tensor_to_obj", "decomposition_to_obj", "graph_to_obj", "solutions_to_obj"], None, None),
    # cli._emit serializes and prints every CLI answer
    ("jsonio.emit", "covpkit.cli", ["_emit"], None, None),
    ("cli.main", "covpkit.cli", ["main"], None, None),
]
# the layers the untraced run wraps, for its exact counts only
COUNTING = {"kernels.echelon", "feasible.enumerate", "graphs.mst", "graphs.sp",
            "graphs.matching", "graphs.tsp"}


class Tracer:
    def __init__(self, spans: bool = True):
        self.record = spans
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, before, after):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._open[name] == 0
            if before and outer:
                before(tracer.counts, args, kwargs)
            if not tracer.record:
                tracer._open[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._open[name] -= 1
            else:
                stack = tracer._stack
                idx = len(tracer.spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op_id]
                tracer.spans.append(span)
                stack.append(idx)
                tracer._open[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                    tracer._open[name] -= 1
            if after and outer:
                after(tracer.counts, result)
            return result

        return traced

    def install(self):
        """Patch every covpkit module attribute bound to a traced function."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "covpkit" or k.startswith("covpkit.")) and m is not None]
        for span_name, modname, funcs, before, after in TARGETS:
            if not self.record and span_name not in COUNTING:
                continue
            home = sys.modules[modname]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(span_name, original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return dict(self.counts)


def layer_metrics(spans, counts, passes: int) -> dict:
    """Per-pass per-layer metrics: span times and calls are divided by
    ``passes``; ``counts`` are the counters of one pass."""
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, dur in zip(spans, duration):
        if s[3] >= 0:
            child[s[3]] += dur
    self_s = defaultdict(float)
    busy_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name] += duration[i] - child[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy_s[name] += duration[i]
            calls[name] += 1
    timed = {"calls": calls, "busy_s": busy_s, "self_s": self_s}
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in timed:
            out[metric] = timed[field][layer] / passes
        else:  # a work counter of one pass; yield and overhead are filled in below
            out[metric] = counts.get(metric, 0)
    nodes = out["feasible.enumerate.nodes"]
    out["feasible.enumerate.yield"] = out["feasible.enumerate.solutions"] / nodes if nodes else 0.0
    return out


def missing_layers(workload: str, spans) -> list[str]:
    seen = {s[0] for s in spans}
    return [name for name in REQUIRED[workload] if name not in seen]
