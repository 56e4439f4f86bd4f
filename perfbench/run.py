#!/usr/bin/env python3
"""covpkit benchmark: seeded closed-loop workloads with checked answers.

Run from the root of a checkout (covpkit is imported from its ``src``):

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Workloads (built by ``inputs.py``, one client each):
  verdicts     decision calls, half built to hold and half to fail
  enumeration  constant-value space dimensions and brute-force checks
  cli          one fresh ``covpkit`` process per operation

``--trace 0`` times set-up (fresh interpreters importing covpkit), then runs
the workload untraced in a fresh driver process and reports the end-to-end
metrics.  ``--trace 1`` runs untraced and then traced passes of the same
operations in one driver and reports the per-layer metrics.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is the full report (machine facts,
operation-list hash, exact counts, failed operations), also written to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402

SETUP_RUNS = 5  # before and again after the workload: the median spans the run
RUN_LIMIT_S = 175.0
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("COVPKIT_MAX_NODES", None)  # the default search budget is part of the program
    return env


def measure_setup(env, warm: bool) -> list[float]:
    """Wall times of fresh interpreters that import covpkit and resolve
    KERNEL_BACKEND.  With ``warm`` one untimed run first writes the bytecode
    caches."""
    cmd = [sys.executable, "-c", "import covpkit; covpkit.KERNEL_BACKEND"]
    times = []
    for i in range(SETUP_RUNS + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i or not warm:
            times.append(time.perf_counter() - t0)
    return times


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _source_hash() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "covpkit")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "cython_available": importlib.util.find_spec("Cython") is not None,
        "backend_note": "without Cython the compiled kernels are not built; "
                        "only the backend named in kernel_backend is measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verdicts", "enumeration", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "covpkit", "__init__.py")):
        print(f"no covpkit sources under {SRC}: run from the root of a covpkit checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    setup_times = measure_setup(env, warm=True) if args.trace == 0 else []

    cmd = [sys.executable, os.path.join(HERE, "driver.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("workload driver did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"workload driver failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report.update(machine_facts())

    if args.trace == 0:
        setup_times += measure_setup(env, warm=False)
        report["setup_runs_s"] = setup_times
        values = {
            "ops_per_s": report["ops_per_s"],
            "op_p50_ms": report["op_p50_ms"],
            "op_tail_ms": report["op_tail_ms"],
            "pass_ratio": report["passed"] / report["attempted"] if report["attempted"] else 0.0,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    report["metrics"] = metrics
    report["run_wall_s"] = time.perf_counter() - start

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
