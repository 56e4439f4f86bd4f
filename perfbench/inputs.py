"""Seeded operation lists for the three workloads.

``build(workload, seed)`` is a pure function: one seed always gives the same
operations, values and order.  An operation is plain data (ints, Fractions,
lists) with the answer it must produce built into it: a "holds" input is
sum-decomposable, or follows the graph problem's weight pattern, and a
"fails" input is such an input with one entry or one edge weight perturbed.
Decision kinds come as exact holds/fails pairs, so every seed has the same
50/50 split.

Sizes are fixed per workload.  The seed sets the values, the perturbations
and the order; the perturbed entry or edge is always the last one, which the
witness searches (scans in index order) reach last, so every seed asks for
the same work.  covpkit is not imported here: the driver turns these
operations into library objects (or CLI input files) before any timing
starts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

WORKLOADS = ("verdicts", "enumeration", "cli")

# (d, s, n): s in {1, 2, d-2, d-1}, n^d from 27 to 1024.
DECOMPOSE_SIZES = [(3, 1, 3), (3, 2, 4), (4, 2, 3), (4, 3, 4), (5, 3, 3), (5, 4, 3), (5, 1, 4)]
AXIAL_SIZES = [(3, 2), (5, 2), (3, 4), (4, 3), (4, 4)]  # (d, n), n = 2 included
PLANAR_SIZES = [(3, 3), (4, 3), (3, 4), (3, 5)]  # (d, n), n = 3 failure path included
TP_SHAPES = [((3, 4, 5), 12), ((2, 3, 4, 3), 9)]  # unequal extents, total supply
REDUCE_SIZES = [(3, 5), (4, 4), (5, 3)]  # (d, n)
SP_SIZES = [12, 20]
MATCHING_SIZES = [11, 12]  # odd (uniform) and even (potentials)
TSP_HOLDS = [6, 9, 12]
TSP_FAILS = [8, 9, 12]  # above n = 8 covpkit returns "fails" without a witness

# conjecture_experiment and covp_space_dimension grid; (5,2,3) is vacuous.
CONJECTURE_GRID = [(4, 2, 3), (4, 2, 4), (5, 2, 3)]
DIMENSION_GRID = [(4, 1, 4), (3, 2, 4), (5, 4, 3)]
BRUTE_SIZES = [(4, 1, 4), (4, 2, 3), (3, 2, 4)]
BRUTE_PER_SIDE = 3
RANK_MD_D = 6


def _scalar(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _offset(coords, dims) -> int:
    off = 0
    for c, e in zip(coords, dims):
        off = off * e + c
    return off


def decomposable(rng, dims, s, fractional=False):
    """Row-major entries of a random s-sum-decomposable array on ``dims``,
    and its value on any feasible solution of the cubical (d,s) problem: a
    solution meets every pattern of every s-subset once, so it collects
    every component entry once."""
    d = len(dims)
    comps = []
    for Q in combinations(range(d), s):
        den = rng.choice((2, 3)) if fractional else 1
        size = prod(dims[q] for q in Q)
        comps.append((Q, [Fraction(rng.randint(-9, 9), den) for _ in range(size)]))
    data = []
    for t in product(*(range(e) for e in dims)):
        data.append(_scalar(sum(
            vals[_offset([t[q] for q in Q], [dims[q] for q in Q])] for Q, vals in comps
        )))
    return data, _scalar(sum(sum(vals) for _, vals in comps))


def perturbed(rng, data):
    out = list(data)
    out[-1] = _scalar(out[-1] + rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def _tensor_pair(rng, kind, dims, s, fractional):
    """One holds and one fails operation of ``kind`` on fresh arrays."""
    ops = []
    for holds in (True, False):
        data, value = decomposable(rng, dims, s, fractional)
        if not holds:
            data = perturbed(rng, data)
        args = {"dims": list(dims), "data": data, "s": s}
        expect = {"holds": holds, "common_value": value if holds else None}
        ops.append({"kind": kind, "args": args, "expect": expect})
    return ops


def _supplies(rng, dims, total):
    out = []
    for e in dims:
        cuts = sorted(rng.sample(range(1, total), e - 1))
        out.append([b - a for a, b in zip([0] + cuts, cuts + [total])])
    return out


def _edges(weights):
    return [[u, v, w] for (u, v), w in sorted(weights.items())]


def _graph_op(problem, n, weights, holds, value, directed=False):
    return {
        "kind": "graph",
        "args": {"problem": problem, "n": n, "directed": directed, "edges": _edges(weights)},
        "expect": {"holds": holds, "common_value": value if holds else None},
    }


def _bump(rng, weights, keys=None):
    key = max(keys or weights)
    weights[key] = weights[key] + rng.randint(1, 3)


def _block_graph(rng, clique=6, cycle=3, bridges=4):
    """A clique of one weight, a cycle of another weight sharing a vertex
    with it, and pendant bridges of arbitrary weights."""
    alpha, beta = rng.randint(1, 9), rng.randint(1, 9)
    w = {e: alpha for e in combinations(range(1, clique + 1), 2)}
    ring = [clique] + list(range(clique + 1, clique + cycle + 1))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        w[(min(a, b), max(a, b))] = beta
    n = clique + cycle
    value = (clique - 1) * alpha + cycle * beta
    for _ in range(bridges):
        n += 1
        w[(rng.randint(1, n - 1), n)] = weight = rng.randint(1, 9)
        value += weight
    return n, w, value


def _mst_ops(rng):
    ops = []
    for _ in range(2):
        n, w, value = _block_graph(rng)
        ops.append(_graph_op("mst", n, w, True, value))
    n, w, _ = _block_graph(rng)
    _bump(rng, w, [e for e in w if e[1] <= 6])
    ops.append(_graph_op("mst", n, w, False, None))
    # K_10 with one heavier edge at (2, n): the slowest placement for the
    # path search behind the MST witness.
    n, alpha = 10, rng.randint(1, 9)
    w = {e: alpha for e in combinations(range(1, n + 1), 2)}
    w[(2, n)] = alpha + rng.randint(1, 3)
    ops.append(_graph_op("mst", n, w, False, None))
    return ops


def _sp_ops(rng, n):
    ops = []
    for holds in (True, False):
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        w = {}
        for i, j in combinations(range(1, n + 1), 2):
            w[(i, j)] = a + b if (i, j) == (1, n) else a if i == 1 else b if j == n else 0
        if not holds:
            _bump(rng, w)
        ops.append(_graph_op("sp-undir", n, w, holds, a + b))
    for holds in (True, False):
        p = [rng.randint(-9, 9) for _ in range(n + 1)]
        w = {(i, j): p[j] - p[i] for i, j in combinations(range(1, n + 1), 2)}
        if not holds:
            _bump(rng, w)
        ops.append(_graph_op("sp-dir", n, w, holds, p[n] - p[1], directed=True))
    return ops


def _matching_ops(rng, n):
    ops = []
    for holds in (True, False):
        if n % 2:
            w0 = rng.randint(1, 9)
            w = {e: w0 for e in combinations(range(1, n + 1), 2)}
            value = w0 * (n // 2)
        else:
            p = [rng.randint(0, 9) for _ in range(n + 1)]
            w = {(i, j): p[i] + p[j] for i, j in combinations(range(1, n + 1), 2)}
            value = sum(p[1:])
        if not holds:
            _bump(rng, w)
        ops.append(_graph_op("matching", n, w, holds, value))
    return ops


def _tsp_op(rng, n, holds):
    u = [rng.randint(-9, 9) for _ in range(n)]
    v = [rng.randint(-9, 9) for _ in range(n)]
    data = [u[i] + v[j] if i != j else rng.randint(0, 9) for i in range(n) for j in range(n)]
    if not holds:
        data[n * n - 2] += rng.choice((-3, -2, -1, 1, 2, 3))  # entry (n, n-1)
    return {
        "kind": "graph",
        "args": {"problem": "tsp", "n": n, "matrix": data},
        "expect": {"holds": holds, "common_value": sum(u) + sum(v) if holds else None},
    }


def _graph_ops(rng):
    ops = _mst_ops(rng)
    for n in SP_SIZES:
        ops += _sp_ops(rng, n)
    for n in MATCHING_SIZES:
        ops += _matching_ops(rng, n)
    ops += [_tsp_op(rng, n, True) for n in TSP_HOLDS]
    ops += [_tsp_op(rng, n, False) for n in TSP_FAILS]
    return ops


def _reduce_op(rng, d, n):
    data = [rng.randint(0, 20) for _ in range(n**d)]
    return {"kind": "reduce", "args": {"dims": [n] * d, "data": data}, "expect": {}}


def _tp_ops(rng, dims, total):
    ops = _tensor_pair(rng, "axial_tp", dims, 1, False)
    for op in ops:
        op["args"]["supplies"] = _supplies(rng, dims, total)
    return ops


def _verdict_ops(rng):
    ops = []
    for i, (d, s, n) in enumerate(DECOMPOSE_SIZES):
        ops += _tensor_pair(rng, "decompose", (n,) * d, s, fractional=i % 2 == 1)
    for i, (d, n) in enumerate(AXIAL_SIZES):
        ops += _tensor_pair(rng, "axial_fast", (n,) * d, 1, fractional=i % 2 == 1)
    for i, (d, n) in enumerate(PLANAR_SIZES):
        ops += _tensor_pair(rng, "planar_p2", (n,) * d, d - 1, fractional=i % 2 == 1)
    for dims, total in TP_SHAPES:
        ops += _tp_ops(rng, dims, total)
    ops += [_reduce_op(rng, d, n) for d, n in REDUCE_SIZES]
    return ops + _graph_ops(rng)


def _enumeration_ops(rng):
    ops = [{"kind": "conjecture", "args": {"d": d, "s": s, "n": n}, "expect": {}}
           for d, s, n in CONJECTURE_GRID]
    ops += [{"kind": "space_dimension", "args": {"d": d, "s": s, "n": n}, "expect": {}}
            for d, s, n in DIMENSION_GRID]
    for i, (d, s, n) in enumerate(BRUTE_SIZES):
        for _ in range(BRUTE_PER_SIDE):
            ops += _tensor_pair(rng, "brute", (n,) * d, s, fractional=i == 1)
    ops.append({"kind": "rank_md", "args": {"d": RANK_MD_D}, "expect": {}})
    return ops


def _cli_file_arg(op, argv):
    op["cli"] = {"argv": argv, "file": True}
    return op


def _cli_ops(rng):
    ops = []
    for op in _tensor_pair(rng, "axial_fast", (4,) * 4, 1, False):
        ops.append(_cli_file_arg(op, ["covp", "check", "--s", "1", "--method", "axial"]))
    for op in _tensor_pair(rng, "planar_p2", (4,) * 3, 2, True):
        ops.append(_cli_file_arg(op, ["covp", "check", "--s", "2", "--method", "p2"]))
    for op in _tensor_pair(rng, "brute", (3,) * 4, 2, False):
        ops.append(_cli_file_arg(op, ["covp", "check", "--s", "2", "--method", "brute"]))
    for op in _tensor_pair(rng, "decompose", (3,) * 4, 2, False):
        ops.append(_cli_file_arg(op, ["decompose", "--s", "2"]))
    for op in _tp_ops(rng, (3, 4, 5), 12):
        ops.append(_cli_file_arg(op, ["tp", "covp"]))
    ops.append(_cli_file_arg(_reduce_op(rng, 3, 4), ["reduce", "axial"]))
    graphs = _mst_ops(rng)[1:3] + _sp_ops(rng, 8) + _matching_ops(rng, 8)
    graphs += [_tsp_op(rng, 7, True), _tsp_op(rng, 7, False)]
    for op in graphs:
        ops.append(_cli_file_arg(op, ["graph", "covp", "--kind", op["args"]["problem"]]))
    for d, s, n in [(4, 2, 3), (5, 2, 4), (3, 1, 5)]:
        ops.append({"kind": "savs_dim", "args": {"d": d, "s": s, "n": n}, "expect": {},
                    "cli": {"argv": ["dim", "--d", str(d), "--s", str(s), "--n", str(n)]}})
    for scenario in ("example1", "rank-md", "dims"):
        ops.append({"kind": "repro", "args": {"scenario": scenario}, "expect": {},
                    "cli": {"argv": ["covp", "repro", scenario]}})
    return ops


def build(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass, numbered, in seeded order.  Every
    list has an odd length, so the median latency of whole passes falls on
    one operation's repeats rather than between two operations."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {"verdicts": _verdict_ops, "enumeration": _enumeration_ops, "cli": _cli_ops}[workload]
    ops = maker(rng)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def to_json(x):
    """JSON-ready copy: Fractions become the "p/q" strings covpkit reads."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    return x
