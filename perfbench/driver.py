"""Run one workload in a fresh interpreter and print its report as JSON.

``run.py`` starts this file once per run, with the checkout's ``src`` first
on PYTHONPATH, so the peak RSS of this process (or, for the CLI workload, of
its largest per-operation child) belongs to the workload alone.

One client runs a closed loop: the next operation starts when the previous
one has returned and been checked.  The operation list of the seed is run in
whole passes until ``--seconds`` of measured time (wall time minus check
time) have gone by.  Every operation has a wall-clock limit: in-process by
``signal.setitimer``, for CLI processes by killing the process.  An operation
over its limit counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import answers
import inputs
import spans
import verify

OP_LIMIT_S = 40.0
DEADLINE_S = 140.0  # no operation starts later than this after the driver began
CLI_BOOT = "import sys; from covpkit.cli import main; sys.exit(main())"


class OpTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so library code
    cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _tensor(covpkit, a):
    return covpkit.CostTensor(tuple(a["dims"]), tuple(a["data"]))


def in_process_call(covpkit, op):
    """A zero-argument callable for the operation.  Inputs are built here,
    outside any timing; the covpkit function is looked up at call time so
    that tracing wrappers are seen."""
    kind, a = op["kind"], op["args"]
    if kind == "decompose":
        t = _tensor(covpkit, a)
        return lambda: covpkit.decompose(t, a["s"])
    if kind == "axial_fast":
        t = _tensor(covpkit, a)
        return lambda: covpkit.covp_check_axial_fast(t)
    if kind == "planar_p2":
        t = _tensor(covpkit, a)
        return lambda: covpkit.covp_check_planar_p2(t)
    if kind == "brute":
        t = _tensor(covpkit, a)
        return lambda: covpkit.covp_check_bruteforce(t, a["s"])
    if kind == "axial_tp":
        inst = covpkit.TransportInstance(_tensor(covpkit, a), tuple(map(tuple, a["supplies"])))
        return lambda: covpkit.covp_check_axial_tp(inst)
    if kind == "reduce":
        t = _tensor(covpkit, a)
        return lambda: covpkit.axial_reduction(t)
    if kind == "graph":
        if a["problem"] == "tsp":
            t = covpkit.CostTensor((a["n"], a["n"]), tuple(a["matrix"]))
            return lambda: covpkit.tsp_covp(t)
        g = covpkit.weighted_graph(a["n"], [tuple(e) for e in a["edges"]], directed=a["directed"])
        name = {"mst": "mst_covp", "sp-undir": "sp_undirected_covp",
                "sp-dir": "sp_directed_covp", "matching": "matching_covp"}[a["problem"]]
        return lambda: getattr(covpkit, name)(g)
    if kind == "conjecture":
        return lambda: covpkit.conjecture_experiment(a["d"], a["s"], a["n"])
    if kind == "space_dimension":
        return lambda: covpkit.covp_space_dimension(a["d"], a["s"], a["n"])
    if kind == "rank_md":
        return lambda: covpkit.verify_rank_Md(a["d"])
    raise ValueError(f"unknown operation kind {kind!r}")


def cli_input(op):
    """The JSON document a CLI operation reads with --file."""
    a = op["args"]
    if op["kind"] == "axial_tp":
        obj = {"dims": a["dims"], "costs": a["data"], "supplies": a["supplies"]}
    elif op["kind"] == "graph" and a["problem"] == "tsp":
        n, m = a["n"], a["matrix"]
        edges = [[i + 1, j + 1, m[i * n + j]] for i in range(n) for j in range(n) if i != j]
        obj = {"n": n, "directed": True, "edges": edges}
    elif op["kind"] == "graph":
        obj = {"n": a["n"], "directed": a["directed"], "edges": a["edges"]}
    else:
        obj = {"dims": a["dims"], "data": a["data"]}
    return inputs.to_json(obj)


def cli_argv(op, workdir):
    argv = list(op["cli"]["argv"])
    if op["cli"].get("file"):
        path = os.path.join(workdir, f"op{op['id']}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cli_input(op), fh)
        argv += ["--file", path]
    return argv


class Runner:
    """Executes operations and checks their answers."""

    def __init__(self, workload, ops, in_process, env):
        self.workload = workload
        self.ops = ops
        self.in_process = in_process
        self.env = env
        self.workdir = None
        self.calls = {}
        self.covpkit = None
        if in_process:
            import covpkit
            import covpkit.cli  # noqa: F401  (in-process CLI runs; the tracer patches it)

            self.covpkit = covpkit
            signal.signal(signal.SIGALRM, _alarm)
        if workload == "cli":
            self.workdir = os.path.join(".bench_out", f"cli-inputs-{os.getpid()}")
            os.makedirs(self.workdir, exist_ok=True)
            self.argvs = {op["id"]: cli_argv(op, self.workdir) for op in ops}
        else:
            self.calls = {op["id"]: in_process_call(self.covpkit, op) for op in ops}

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run_cli_inprocess(self, argv, limit):
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.covpkit.cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, out.getvalue()

    def execute(self, op, limit):
        """(latency_s, failure or None, answer or None)."""
        t0 = time.perf_counter()
        try:
            if self.workload != "cli":
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    result = self.calls[op["id"]]()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                latency = time.perf_counter() - t0
                return latency, None, ("object", result)
            argv = self.argvs[op["id"]]
            if self.in_process:
                code, stdout = self._run_cli_inprocess(argv, limit)
            else:
                proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], env=self.env,
                                      capture_output=True, text=True, timeout=limit)
                code, stdout = proc.returncode, proc.stdout
            latency = time.perf_counter() - t0
            if code != 0:
                return latency, ("exit_code", f"exit code {code}"), None
            return latency, None, ("cli", stdout)
        except (OpTimeout, subprocess.TimeoutExpired):
            return time.perf_counter() - t0, ("timeout", f"over {limit:.1f} s"), None
        except Exception as exc:  # an operation that raises is a failed operation
            return time.perf_counter() - t0, ("exception", f"{type(exc).__name__}: {exc}"), None

    def check(self, op, answer):
        """(failure or None, tally key)."""
        form, payload = answer
        try:
            ans = answers.from_object(op, payload) if form == "object" else answers.from_cli(op, payload)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return ("bad_artifact", f"answer has an unexpected shape: {type(exc).__name__}: {exc}"), None
        return verify.check(op, ans), answers.tally_key(ans)


def run_passes(runner, seconds, deadline, tracer=None, counter=None):
    """Whole passes over the operation list until ``seconds`` of measured
    time, the summed latency of the operations.  Before each operation the
    garbage left by the previous one is collected, outside the timing, so
    one operation's garbage is not charged to the next."""
    records, passes = [], []
    measured = check_s = 0.0
    stopped = False
    while not stopped:
        pass_time = pass_check = 0.0
        tally = Counter()
        for op in runner.ops:
            left = deadline - time.perf_counter()
            if left < 1.0:
                stopped = True
                break
            if tracer is not None:
                tracer.op_id = op["id"]
            gc.collect()
            latency, failure, answer = runner.execute(op, min(OP_LIMIT_S, left))
            c0 = time.perf_counter()
            if failure is None:
                failure, key = runner.check(op, answer)
                tally[(op["kind"], key)] += 1
            del answer
            pass_check += time.perf_counter() - c0
            pass_time += latency
            records.append({"op": op["id"], "pass": len(passes), "latency_s": latency,
                            "failure": failure})
        measured += pass_time
        check_s += pass_check
        counts = counter.snapshot() if counter is not None else None
        passes.append({"time_s": pass_time, "complete": not stopped,
                       "tally": {f"{k}:{v}": n for (k, v), n in sorted(tally.items())},
                       "counts": counts})
        if measured >= seconds:
            break
    return records, passes, measured, check_s


def _tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0, len(xs)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def _per_pass_counts(passes):
    """Counter deltas of each complete pass, and whether they all agree."""
    deltas, prev = [], {}
    for p in passes:
        if p["counts"] is None:
            return None, None
        cur = p["counts"]
        if p["complete"]:
            deltas.append({k: cur.get(k, 0) - prev.get(k, 0) for k in sorted(set(cur) | set(prev))})
        prev = cur
    if not deltas:
        return None, None
    return deltas[0], all(d == deltas[0] for d in deltas)


_SIZE_KEYS = ("problem", "scenario", "dims", "d", "s", "n")


def _size(op):
    return {k: op["args"][k] for k in _SIZE_KEYS if k in op["args"]}


def _label(op):
    """Operation kind and size, e.g. ``decompose[5,4,3] s=4 holds``."""
    a = op["args"]
    parts = [op["kind"]]
    for k in _SIZE_KEYS:
        if k in a:
            v = a[k]
            parts.append(f"[{','.join(map(str, v))}]" if isinstance(v, list) else f"{k}={v}")
    if "holds" in op["expect"]:
        parts.append("holds" if op["expect"]["holds"] else "fails")
    return " ".join(parts)


def _summary(ops, records, passes, measured):
    by_id = {op["id"]: op for op in ops}
    latencies = [r["latency_s"] for r in records]
    failures = [r for r in records if r["failure"] is not None]
    passed = len(records) - len(failures)
    tail, pct, n = _tail(latencies) if latencies else (0.0, 0.0, 0)
    failed_ops = {}
    for r in failures:
        op = by_id[r["op"]]
        key = (op["id"], r["failure"][0])
        failed_ops.setdefault(key, {
            "id": op["id"], "kind": op["kind"], "category": r["failure"][0],
            "reason": r["failure"][1], "times": 0,
            "size": _size(op),
        })["times"] += 1
    counts, repeat = _per_pass_counts(passes)
    by_label = {}
    for r in records:
        by_label.setdefault(_label(by_id[r["op"]]), []).append(r["latency_s"])
    return {
        "latencies": [[r["op"], r["pass"], r["latency_s"]] for r in records],
        "latency_by_op_ms": {k: 1000.0 * statistics.median(v) for k, v in sorted(by_label.items())},
        "attempted": len(records),
        "failed": len(failures),
        "passed": passed,
        "wrong": sum(1 for r in failures if r["failure"][0] in verify.WRONG),
        "measured_s": measured,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "ops_per_s": passed / measured if measured > 0 else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "op_tail_ms": 1000.0 * tail,
        "op_tail_percentile": pct,
        "op_tail_samples": n,
        "failed_ratio": len(failures) / len(records) if records else 0.0,
        "failed_ops": list(failed_ops.values()),
        "tally_per_pass": passes[0]["tally"] if passes else {},
        "tally_repeats": all(p["tally"] == passes[0]["tally"] for p in passes if p["complete"]),
        "counts_per_pass": counts,
        "counts_repeat": repeat,
    }


def op_list_hash(ops) -> str:
    text = json.dumps(inputs.to_json(ops), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    import covpkit

    src = os.path.realpath("src")
    if not os.path.realpath(covpkit.__file__).startswith(src + os.sep):
        print(f"covpkit was imported from {covpkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    g0 = time.perf_counter()
    ops = inputs.build(args.workload, args.seed)
    digest = op_list_hash(ops)
    gen_s = time.perf_counter() - g0

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_list_sha256": digest, "gen_s": gen_s,
        "kernel_backend": covpkit.KERNEL_BACKEND,
        "python": sys.version.split()[0],
    }
    in_process = args.workload != "cli" or args.trace == 1
    runner = Runner(args.workload, ops, in_process, dict(os.environ))
    gc.collect()
    gc.freeze()  # the benchmark's own inputs stay out of the program's collections
    try:
        if args.trace == 0:
            counter = None
            if in_process:
                counter = spans.Tracer(spans=False)
                counter.install()
            records, passes, measured, check_s = run_passes(runner, args.seconds, deadline,
                                                            counter=counter)
            who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
            report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            report["peak_rss_of"] = "driver process" if in_process else "largest covpkit process"
            report["check_s"] = check_s
            report.update(_summary(ops, records, passes, measured))
            report["correct"] = report["wrong"] == 0
        else:
            # one untraced pass as the baseline, then traced passes of the same operations
            base_records, base_passes, base_measured, _ = run_passes(runner, 0.0, deadline)
            tracer = spans.Tracer(spans=True)
            tracer.install()
            try:
                records, passes, measured, check_s = run_passes(runner, args.seconds / 2.0, deadline,
                                                                tracer=tracer, counter=tracer)
            finally:
                tracer.uninstall()
            counts, repeat = _per_pass_counts(passes)
            if counts is None:  # no complete traced pass: average the totals
                counts = {k: v / len(passes) for k, v in tracer.counts.items()}
            layers = spans.layer_metrics(tracer.spans, counts, len(passes))
            untraced = base_measured / len(base_passes)
            layers["trace.overhead"] = (measured / len(passes)) / untraced if untraced else 0.0
            missing = spans.missing_layers(args.workload, tracer.spans)
            report["per_layer"] = layers
            report["coverage_missing"] = missing
            report["check_s"] = check_s
            report.update(_summary(ops, base_records + records, base_passes + passes,
                                   base_measured + measured))
            report["counts_per_pass"], report["counts_repeat"] = counts, repeat
            report["traced_passes"] = len(passes)
            report["correct"] = report["wrong"] == 0 and not missing
            os.makedirs(".bench_out", exist_ok=True)
            spans_path = os.path.join(".bench_out", f"spans_{args.workload}_seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
            report["spans_file"] = spans_path
    finally:
        runner.close()
    report["driver_wall_s"] = time.perf_counter() - start
    print(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
