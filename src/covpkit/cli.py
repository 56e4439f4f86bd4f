"""Command-line front end: JSON in, JSON verdicts out.

Exit codes: 0 when a verdict was computed (holds or fails alike), 1 for
input errors, 2 when a budget ran out before a conclusion, 3 for internal
assertion failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import KERNEL_BACKEND, jsonio
from .covp import (
    conjecture_experiment,
    counterexample_array,
    covp_check_axial_fast,
    covp_check_bruteforce,
    covp_check_planar_p2,
    covp_space_dimension,
    verify_rank_Md,
)
from .errors import BudgetExceeded, InputError, SizeLimitError
from .exact import CostTensor, format_rational, parse_rational
from .feasible import (
    SearchBudget,
    enumerate_general,
    is_feasible_solution,
    iter_solutions,
    objective,
)
from .graphs import (
    brute_force_oracle,
    matching_covp,
    mst_covp,
    sp_directed_covp,
    sp_undirected_covp,
    tsp_covp,
)
from .savs import decompose, savs_dimension
from .transform import (
    apply_transformation,
    axial_reduction,
    blow_up,
    certify_optimal,
    covp_check_axial_tp,
)


def _scalar_out(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return format_rational(x)
    return int(x)


def _maybe_scalar(x):
    return None if x is None else _scalar_out(x)


def _solution_out(sol):
    return [list(t) for t in sol.tuples]


def _verdict_obj(verdict) -> dict:
    obj = {
        "holds": verdict.holds,
        "vacuous": verdict.vacuous,
        "provisional": verdict.provisional,
        "method": verdict.method,
        "common_value": _maybe_scalar(verdict.common_value),
    }
    if verdict.witness is not None:
        obj["witness"] = [_solution_out(f) for f in verdict.witness]
        obj["witness_values"] = [_scalar_out(v) for v in verdict.witness_values]
    if verdict.mismatch is not None:
        obj["mismatch"] = list(verdict.mismatch)
    if verdict.detail:
        obj["detail"] = verdict.detail
    return obj


def _graph_report_obj(report) -> dict:
    obj = {"kind": report.kind, "holds": report.holds}
    if report.certificate is not None:
        cert = {}
        for key, value in report.certificate.items():
            if key == "alphas":
                cert[key] = [
                    {"edges": [list(e) for e in block], "alpha": _scalar_out(alpha)}
                    for block, alpha in value
                ]
            elif isinstance(value, tuple):
                cert[key] = [_scalar_out(x) for x in value]
            else:
                cert[key] = _scalar_out(value)
        obj["certificate"] = cert
    if report.common_value is not None:
        obj["common_value"] = _scalar_out(report.common_value)
    if report.witness is not None:
        obj["witness"] = [
            [list(x) for x in sol] if isinstance(sol[0], tuple) else list(sol)
            for sol in report.witness
        ]
        obj["witness_values"] = [_scalar_out(v) for v in report.witness_values]
    if report.detail:
        obj["detail"] = report.detail
    return obj


def _pretty_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.extend(_pretty_lines(value, indent + 1))
                lines.append("")
            else:
                lines.append(f"{pad}- {json.dumps(value)}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _emit(obj, args) -> None:
    if getattr(args, "pretty", False):
        print("\n".join(_pretty_lines(obj)))
    else:
        print(json.dumps(obj, indent=2, sort_keys=False))


def _budget(args) -> SearchBudget:
    base = SearchBudget.default()
    if getattr(args, "max_nodes", None):
        return SearchBudget(max_nodes=args.max_nodes, max_solutions=base.max_solutions)
    return base


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    tensor = jsonio.tensor_from_obj(jsonio.load_file(args.file))
    result = decompose(tensor, args.s)
    if result.decomposable:
        obj = {
            "decomposable": True,
            "decomposition": jsonio.decomposition_to_obj(result.decomposition),
        }
    else:
        obj = {
            "decomposable": False,
            "witness": [_scalar_out(y) for y in result.witness],
        }
    _emit(obj, args)
    return 0


def _cmd_dim(args) -> int:
    value = savs_dimension(args.d, args.s, args.n)
    _emit({"d": args.d, "s": args.s, "n": args.n, "dimension": value}, args)
    return 0


def _cmd_enumerate(args) -> int:
    if args.print_solutions:
        result = enumerate_general(args.d, args.s, args.n, _budget(args))
    else:
        result = iter_solutions(args.d, args.s, args.n, _budget(args))
        for _ in result:
            pass
    obj = {
        "d": args.d,
        "s": args.s,
        "n": args.n,
        "count": result.count,
        "complete": result.complete,
        "nodes": result.nodes,
    }
    if args.print_solutions:
        obj["solutions"] = jsonio.solutions_to_obj(result.solutions)
    _emit(obj, args)
    return 0 if result.complete else 2


def _cmd_covp_check(args) -> int:
    tensor = jsonio.tensor_from_obj(jsonio.load_file(args.file))
    method = args.method
    if method == "auto":
        if args.s == 1:
            method = "axial"
        elif args.s == tensor.d - 1:
            method = "p2"
        else:
            method = "brute"
    if method == "axial":
        if args.s != 1:
            raise InputError("the axial method applies to s = 1 only")
        verdict = covp_check_axial_fast(tensor)
    elif method == "p2":
        if args.s != tensor.d - 1:
            raise InputError("the size-2 subproblem method applies to s = d-1 only")
        verdict = covp_check_planar_p2(tensor)
    else:
        verdict = covp_check_bruteforce(tensor, args.s, _budget(args))
    _emit(_verdict_obj(verdict), args)
    return 2 if verdict.provisional else 0


def _cmd_covp_dim(args) -> int:
    value = covp_space_dimension(args.d, args.s, args.n, _budget(args))
    _emit({"d": args.d, "s": args.s, "n": args.n, "covp_dimension": value}, args)
    return 0


def _cmd_reduce_axial(args) -> int:
    tensor = jsonio.tensor_from_obj(jsonio.load_file(args.file))
    outcome = axial_reduction(tensor)
    obj = {
        "z": _scalar_out(outcome.z),
        "vectors": [
            {"axis": Q[0], "values": [_scalar_out(x) for x in comp.data]}
            for Q, comp in outcome.vectors.components
        ],
        "reduced": jsonio.tensor_to_obj(outcome.reduced),
    }
    _emit(obj, args)
    return 0


def _cmd_reduce_apply(args) -> int:
    tensor = jsonio.tensor_from_obj(jsonio.load_file(args.file))
    subtrahend = jsonio.tensor_from_obj(jsonio.load_file(args.subtrahend))
    outcome = apply_transformation(tensor, subtrahend, args.s, _budget(args))
    if outcome.accepted:
        obj = {
            "accepted": True,
            "z": _scalar_out(outcome.z),
            "reduced": jsonio.tensor_to_obj(outcome.reduced),
        }
    else:
        obj = {"accepted": False, "refusal": _verdict_obj(outcome.refusal)}
    _emit(obj, args)
    return 2 if outcome.refusal is not None and outcome.refusal.provisional else 0


def _cmd_reduce_certify(args) -> int:
    tensor = jsonio.tensor_from_obj(jsonio.load_file(args.file))
    raw = jsonio.load_file(args.solution)
    n = tensor.cubical_extent
    sol = jsonio.solution_from_obj(raw, tensor.d, args.s, n)
    if not is_feasible_solution(sol):
        raise InputError("the provided solution is not feasible")
    verdict = certify_optimal(tensor, sol, parse_rational(args.z))
    obj = {
        "optimal": verdict.optimal,
        "value": _maybe_scalar(verdict.value),
        "violated": verdict.violated,
        "detail": verdict.detail,
        "objective": _scalar_out(objective(tensor, sol)),
    }
    _emit(obj, args)
    return 0


def _cmd_tp_covp(args) -> int:
    instance = jsonio.transport_from_obj(jsonio.load_file(args.file))
    result = covp_check_axial_tp(instance)
    if result.decomposable:
        obj = {
            "holds": True,
            "decomposition": jsonio.decomposition_to_obj(result.decomposition),
        }
    else:
        obj = {"holds": False, "witness": [_scalar_out(y) for y in result.witness]}
    _emit(obj, args)
    return 0


def _cmd_tp_blowup(args) -> int:
    instance = jsonio.transport_from_obj(jsonio.load_file(args.file))
    _emit(jsonio.tensor_to_obj(blow_up(instance)), args)
    return 0


def _cmd_graph_covp(args) -> int:
    obj_in = jsonio.load_file(args.file)
    graph = jsonio.graph_from_obj(obj_in)
    if args.kind == "mst":
        report = mst_covp(graph)
        oracle_instance = graph
    elif args.kind == "sp-undir":
        report = sp_undirected_covp(graph)
        oracle_instance = graph
    elif args.kind == "sp-dir":
        report = sp_directed_covp(graph)
        oracle_instance = graph
    elif args.kind == "matching":
        report = matching_covp(graph)
        oracle_instance = graph
    elif args.kind == "tsp":
        tensor = _tsp_tensor_from_graph(graph)
        report = tsp_covp(tensor)
        oracle_instance = tensor
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    obj = _graph_report_obj(report)
    if args.oracle:
        oracle = brute_force_oracle(report.kind, oracle_instance)
        obj["oracle_holds"] = oracle.holds
        obj["agrees"] = oracle.holds == report.holds
    _emit(obj, args)
    return 0


def _tsp_tensor_from_graph(graph) -> CostTensor:
    n = graph.n
    weights = graph.weight_map()
    data = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                data.append(0)
                continue
            key = (i, j) if graph.directed else (min(i, j), max(i, j))
            if key not in weights:
                raise InputError(f"cost for pair ({i},{j}) missing: graph must be complete")
            data.append(weights[key])
    return CostTensor((n, n), tuple(data))


# ---------------------------------------------------------------------------
# repro scenarios


class _Claims:
    def __init__(self):
        self.entries = []
        self._last = time.perf_counter()

    def add(self, claim, expected, computed, *, level="assert", detail=None):
        now = time.perf_counter()
        entry = {
            "claim": claim,
            "expected": expected,
            "computed": computed,
            "pass": expected == computed,
            "level": level,
            "ms": int((now - self._last) * 1000),
        }
        self._last = now
        if detail:
            entry["detail"] = detail
        self.entries.append(entry)
        return entry["pass"]

    def note(self, claim, expected, computed, detail=None):
        return self.add(claim, expected, computed, level="note", detail=detail)

    def inconclusive(self, claim, detail=None):
        entry = {"claim": claim, "level": "inconclusive"}
        if detail:
            entry["detail"] = detail
        self.entries.append(entry)


def _timed(claims, fn):
    start = time.perf_counter()
    fn(claims)
    return int((time.perf_counter() - start) * 1000)


def _repro_example1(claims: _Claims, budget: SearchBudget) -> None:
    tensor = counterexample_array()
    enum = enumerate_general(4, 2, 3, budget)
    claims.add("feasible solutions of the (4,2) problem at n=3", 72, enum.count)
    values = sorted({_scalar_out(objective(tensor, f)) for f in enum.solutions})
    claims.add("objective value constant at 1 on all solutions", [1], values)
    claims.add(
        "dimension of the constant-value space at (4,2,3)",
        49,
        covp_space_dimension(4, 2, 3, budget),
    )
    claims.add("dimension of the decomposable space at (4,2,3)", 33, savs_dimension(4, 2, 3))
    result = decompose(tensor, 2)
    claims.add("the array is 2-sum-decomposable", False, result.decomposable)
    if result.witness is not None:
        claims.add(
            "refutation certificate is exact (y·system = 0, y·c != 0)",
            True,
            _witness_checks_out(tensor, result.witness),
        )


def _witness_checks_out(tensor, witness) -> bool:
    from .savs import axis_subsets, project

    d = tensor.d
    s = 2
    combos = {}
    rhs = 0
    for y, (t, c) in zip(witness, zip(tensor.index_tuples(), tensor.data)):
        if y == 0:
            continue
        rhs += y * c
        for Q in axis_subsets(d, s):
            key = (Q, project(t, Q))
            combos[key] = combos.get(key, 0) + y
    return all(v == 0 for v in combos.values()) and rhs != 0


def _repro_rank_md(claims: _Claims, d_max: int = 6) -> None:
    for d in range(1, d_max + 1):
        report = verify_rank_Md(d)
        claims.add(f"rank of the planar incidence matrix at d={d}", 2**d + 1, report.rank)
        if d == d_max:
            claims.add("determinant recursion consistent (direct vs recurrence)", True, report.recursion_ok)
            claims.add("all reduced-block determinants nonzero", True, report.z_nonzero)
            claims.add("|z_k| = 3^((k-2)2^(k-1)+1) for k >= 2", True, report.z_magnitude_ok)
            claims.add("|u_k| = 3^(k·2^(k-1)) for k >= 2", True, report.u_magnitude_ok)
        claims.add(
            f"det of the certifying submatrix equals z_(d-1) at d={d}",
            True,
            report.m_prime_matches_z,
        )
        claims.note(
            f"compact exponent form 3^(d·2^(d+1)+1) at d={d}",
            report.alt_exponent_value,
            abs(report.m_prime_det),
            detail="recorded discrepancy: the compact form does not solve the recursion",
        )


def _repro_dims(claims: _Claims) -> None:
    for d in range(2, 6):
        for n in range(2, 5):
            claims.add(
                f"axial dimension closed form at d={d}, n={n}",
                d * n - d + 1,
                savs_dimension(d, 1, n),
            )
            claims.add(
                f"planar dimension closed form at d={d}, n={n}",
                n**d - (n - 1) ** d,
                savs_dimension(d, d - 1, n),
            )


def _repro_conjecture(claims: _Claims, budget: SearchBudget) -> None:
    for n in (2, 3, 4, 5):
        report = conjecture_experiment(4, 2, n, budget)
        if not report.complete:
            claims.inconclusive(
                f"(4,2) at n={n}", detail="enumeration exceeded the node budget"
            )
            continue
        if report.vacuous:
            claims.add(f"(4,2) at n={n}: no feasible solutions", 0, report.solution_count)
            continue
        claims.add(
            f"(4,2) at n={n}: constant-value dim equals decomposable dim",
            n != 3,
            report.equal,
            detail=f"covp_dim={report.covp_dim}, savs_dim={report.savs_dim}",
        )
    claims.note("(4,2) at n>=6", "skipped", "skipped", detail="beyond the default budget")


def _cmd_repro(args) -> int:
    budget = _budget(args)
    claims = _Claims()
    start_total = time.perf_counter()
    if args.scenario == "example1":
        runner = lambda c: _repro_example1(c, budget)
    elif args.scenario == "rank-md":
        runner = lambda c: _repro_rank_md(c)
    elif args.scenario == "dims":
        runner = lambda c: _repro_dims(c)
    elif args.scenario == "conjecture":
        runner = lambda c: _repro_conjecture(c, budget)
    else:
        raise InputError(f"unknown scenario {args.scenario!r}")

    t0 = time.perf_counter()
    runner(claims)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    if not args.timings:
        for entry in claims.entries:
            entry.pop("ms", None)

    asserted = [e for e in claims.entries if e["level"] == "assert"]
    inconclusive = [e for e in claims.entries if e["level"] == "inconclusive"]
    obj = {
        "scenario": args.scenario,
        "kernel_backend": KERNEL_BACKEND,
        "claims": claims.entries,
        "passed": sum(1 for e in asserted if e["pass"]),
        "failed": sum(1 for e in asserted if not e["pass"]),
        "inconclusive": len(inconclusive),
    }
    if args.timings:
        obj["elapsed_ms"] = elapsed_ms
        obj["total_ms"] = int((time.perf_counter() - start_total) * 1000)
    _emit(obj, args)
    return 2 if inconclusive else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpkit",
        description="decide and certify constant objective values, exactly",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="sum-decompose a tensor or refute membership")
    p.add_argument("--file", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("dim", help="dimension of the decomposable space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("enumerate", help="enumerate feasible solutions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--print-solutions", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    covp = sub.add_parser("covp", help="constant-objective-value checks")
    covp_sub = covp.add_subparsers(dest="subcommand", required=True)

    p = covp_sub.add_parser("check")
    p.add_argument("--file", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=["auto", "brute", "p2", "axial"], default="auto")
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(fn=_cmd_covp_check)

    p = covp_sub.add_parser("dim")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(fn=_cmd_covp_dim)

    p = covp_sub.add_parser("repro")
    p.add_argument("scenario", choices=["example1", "rank-md", "dims", "conjecture"])
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--timings", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(fn=_cmd_repro)

    reduce_p = sub.add_parser("reduce", help="admissible transformations")
    reduce_sub = reduce_p.add_subparsers(dest="subcommand", required=True)

    p = reduce_sub.add_parser("axial")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=_cmd_reduce_axial)

    p = reduce_sub.add_parser("apply")
    p.add_argument("--file", required=True)
    p.add_argument("--subtrahend", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(fn=_cmd_reduce_apply)

    p = reduce_sub.add_parser("certify")
    p.add_argument("--file", required=True, help="reduced cost tensor")
    p.add_argument("--solution", required=True, help="candidate solution JSON")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--z", required=True, help="claimed objective value (rational)")
    p.set_defaults(fn=_cmd_reduce_certify)

    tp = sub.add_parser("tp", help="axial transportation")
    tp_sub = tp.add_subparsers(dest="subcommand", required=True)

    p = tp_sub.add_parser("covp")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=_cmd_tp_covp)

    p = tp_sub.add_parser("blowup")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=_cmd_tp_blowup)

    graph = sub.add_parser("graph", help="graph-problem characterizers")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)

    p = graph_sub.add_parser("covp")
    p.add_argument("--kind", choices=["mst", "sp-undir", "sp-dir", "matching", "tsp"], required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(fn=_cmd_graph_covp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed early (e.g. `| head`); point stdout at devnull so
        # the flush at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
