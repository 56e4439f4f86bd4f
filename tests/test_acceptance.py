"""Acceptance suite: one test per criterion, exact tolerances (equality).

Each test prints a single pass/fail line with its elapsed time and stated
budget.  Criterion 5 is known to be unattainable as stated: at n = 2 the
axial constant-value space is strictly larger than the decomposable space
for d >= 3 (see TestAxialAnomalyAtN2 in test_covp.py for the minimal
counterexample), so its exhaustive {0,1} grid at (d=3, s=1, n=2) contains
constant-value tensors that no decomposition test can accept.  The test
runs the grid as stated and fails honestly on exactly those tensors.
"""

import random
import time
from itertools import combinations, product

import pytest

from covpkit import (
    CostTensor,
    brute_force_oracle,
    build_incidence,
    build_Md,
    certificate_reconstructs,
    conjecture_experiment,
    counterexample_array,
    covp_check_axial_tp,
    covp_check_bruteforce,
    covp_check_planar_p2,
    covp_space_dimension,
    decompose,
    det_sequence,
    enumerate_axial,
    enumerate_general,
    enumerate_mols,
    enumerate_planar,
    is_feasible_solution,
    matching_covp,
    mst_covp,
    objective,
    rank,
    reconstruct,
    savs_dimension,
    savs_generator_matrix,
    sp_directed_covp,
    sp_undirected_covp,
    transport_covp_bruteforce,
    tsp_covp,
    weighted_graph,
)
from covpkit import TransportInstance, apply_transformation, axial_reduction, blow_up
from covpkit.graphs import (
    is_maximum_matching,
    is_round_trip,
    is_simple_path,
    is_spanning_tree,
)

from conftest import random_decomposition, random_scalar, random_tensor


def _line(num, budget_s, ok, elapsed, note=""):
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {num}] {status} in {elapsed:.1f}s (budget {budget_s}s){note}"
    )


def test_criterion_1_example1_reproduction():
    t0 = time.perf_counter()
    enum = enumerate_mols(4, 3)
    checks = [enum.count == 72 and enum.complete]
    tensor = counterexample_array()
    checks.append(all(objective(tensor, f) == 1 for f in enum.solutions))
    checks.append(covp_space_dimension(4, 2, 3) == 49)
    checks.append(savs_dimension(4, 2, 3) == 33)
    result = decompose(tensor, 2)
    checks.append(not result.decomposable and result.witness is not None)
    ok = all(checks)
    _line(1, 30, ok, time.perf_counter() - t0)
    assert ok, checks


def test_criterion_2_rank_law():
    t0 = time.perf_counter()
    ranks_ok = all(rank(build_Md(d)) == 2**d + 1 for d in range(1, 7))
    rows_ok = all(
        sorted(build_incidence(enumerate_planar(d, 3).solutions, d, 3).matrix.entries)
        == sorted(build_Md(d).entries)
        for d in range(2, 6)
    )
    ok = ranks_ok and rows_ok
    _line(2, 60, ok, time.perf_counter() - t0)
    assert ok, (ranks_ok, rows_ok)


def test_criterion_3_determinant_recursion():
    t0 = time.perf_counter()
    seq = det_sequence(4)
    recursions = all(
        seq.z[k] == seq.z[k - 1] * seq.u[k - 1]
        and seq.u[k] == seq.u[k - 1] * seq.v[k - 1]
        and seq.v[k] == 3 ** (2**k) * seq.v[k - 1] * seq.u[k - 1]
        for k in range(1, 5)
    )
    magnitudes = all(
        abs(seq.z[k]) == 3 ** ((k - 2) * 2 ** (k - 1) + 1)
        and abs(seq.u[k]) == 3 ** (k * 2 ** (k - 1))
        for k in range(2, 5)
    )
    nonzero = all(z != 0 for z in seq.z)
    # the compact exponent claim is recorded, not asserted
    from covpkit import verify_rank_Md

    discrepancy_recorded = not verify_rank_Md(4).alt_exponent_matches
    ok = recursions and magnitudes and nonzero and discrepancy_recorded
    _line(3, 30, ok, time.perf_counter() - t0)
    assert ok, (recursions, magnitudes, nonzero, discrepancy_recorded)


def test_criterion_4_dimension_formulas():
    t0 = time.perf_counter()
    failures = []
    for d in range(2, 6):
        for s in range(1, d):
            for n in range(2, 5):
                dim = savs_dimension(d, s, n)
                if rank(savs_generator_matrix(d, s, n)) != dim:
                    failures.append(("rank", d, s, n))
                if s == 1 and dim != d * n - d + 1:
                    failures.append(("axial-form", d, s, n))
                if s == d - 1 and dim != n**d - (n - 1) ** d:
                    failures.append(("planar-form", d, s, n))
    ok = not failures
    _line(4, 60, ok, time.perf_counter() - t0)
    assert ok, failures


def _random_tensors_for_equivalence(rng, d, s, n, count=100):
    tensors = []
    for i in range(count):
        if i % 5 in (0, 1):
            tensors.append(random_tensor(rng, (n,) * d))
        elif i % 5 in (2, 3):
            tensors.append(reconstruct(random_decomposition(rng, d, s, n)))
        else:
            base = list(reconstruct(random_decomposition(rng, d, s, n)).data)
            base[rng.randrange(len(base))] += rng.choice([1, -1, 2])
            tensors.append(CostTensor((n,) * d, tuple(base)))
    return tensors


def test_criterion_5_characterization_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(5)
    mismatches = []
    for d in (2, 3, 4):
        for n in (2, 3):
            for s in sorted({1, d - 1}):
                exhaustive = 2 ** (n**d) <= 2**8
                if exhaustive:
                    cases = [
                        CostTensor((n,) * d, bits)
                        for bits in product((0, 1), repeat=n**d)
                    ]
                else:
                    cases = _random_tensors_for_equivalence(rng, d, s, n)
                for tensor in cases:
                    brute = covp_check_bruteforce(tensor, s).holds
                    dec = decompose(tensor, s).decomposable
                    if brute != dec:
                        mismatches.append((d, s, n, tensor.data))
                    if s == d - 1 and covp_check_planar_p2(tensor).holds != brute:
                        mismatches.append(("p2", d, s, n, tensor.data))
    ok = not mismatches
    note = ""
    if not ok:
        params = sorted({m[:3] for m in mismatches if m[0] != "p2"})
        note = (
            f" — {len(mismatches)} constant-value tensors outside the"
            f" decomposable space at {params}; the stated equivalence is"
            " unattainable at n=2 (see decisions ledger)"
        )
    _line(5, 300, ok, time.perf_counter() - t0, note)
    assert ok, (
        f"{len(mismatches)} mismatches, all at (d,s,n) in "
        f"{sorted({m[:3] for m in mismatches if m[0] != 'p2'})}: the axial"
        " characterization does not extend to n=2 (constant-value space is"
        " strictly larger than the decomposable space there); first case:"
        f" {mismatches[0]}"
    )


def test_criterion_6_conjecture_experiment():
    t0 = time.perf_counter()
    report4 = conjecture_experiment(4, 2, 4)
    report3 = conjecture_experiment(4, 2, 3)
    ok = (
        report4.complete
        and report4.equal is True
        and report3.covp_dim == 49
        and report3.savs_dim == 33
        and report3.equal is False
    )
    _line(6, 600, ok, time.perf_counter() - t0)
    assert ok, (report4, report3)


def _complete_instance(kind, n, weight_fn):
    if kind == "tsp":
        data = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                data.append(weight_fn(i, j) if i != j else 0)
        return CostTensor((n, n), tuple(data))
    edges = [
        (i, j, weight_fn(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    return weighted_graph(n, edges, directed=(kind == "sp-dir"))


def _characterize(kind, instance):
    if kind == "mst":
        return mst_covp(instance)
    if kind == "sp-undir":
        return sp_undirected_covp(instance)
    if kind == "sp-dir":
        return sp_directed_covp(instance)
    if kind == "matching":
        return matching_covp(instance)
    return tsp_covp(instance)


def _witness_feasible(kind, instance, report):
    a, b = report.witness
    v1, v2 = report.witness_values
    if v1 == v2:
        return False
    if kind == "mst":
        return is_spanning_tree(instance, a) and is_spanning_tree(instance, b)
    if kind in ("sp-undir", "sp-dir"):
        return is_simple_path(instance, a) and is_simple_path(instance, b)
    if kind == "matching":
        return is_maximum_matching(instance, a) and is_maximum_matching(instance, b)
    n = instance.dims[0]
    return is_round_trip(n, a) and is_round_trip(n, b)


def test_criterion_7_graph_characterizers():
    t0 = time.perf_counter()
    rng = random.Random(7)
    kinds = ("mst", "sp-undir", "sp-dir", "matching", "tsp")
    failures = []
    for kind in kinds:
        # exhaustive weight grids over {0,1,2} at n <= 5
        for n in (3, 4, 5):
            pairs = list(combinations(range(1, n + 1), 2))
            for weights in product((0, 1, 2), repeat=len(pairs)):
                table = dict(zip(pairs, weights))
                instance = _complete_instance(
                    kind, n, lambda i, j: table[tuple(sorted((i, j)))]
                )
                report = _characterize(kind, instance)
                oracle = brute_force_oracle(kind, instance)
                if report.holds != oracle.holds:
                    failures.append((kind, n, weights))
                elif report.holds:
                    if report.certificate is not None and not certificate_reconstructs(
                        report, instance
                    ):
                        failures.append((kind, n, "certificate", weights))
                elif report.witness is None or not _witness_feasible(
                    kind, instance, report
                ):
                    failures.append((kind, n, "witness", weights))
        # 200 random rational instances at n <= 6
        for _ in range(200):
            n = rng.randint(3, 6)
            table = {}

            def wf(i, j):
                key = (i, j) if kind in ("sp-dir", "tsp") else tuple(sorted((i, j)))
                if key not in table:
                    value = random_scalar(rng, span=3)
                    if kind == "sp-undir":
                        value = abs(value)
                    table[key] = value
                return table[key]

            instance = _complete_instance(kind, n, wf)
            report = _characterize(kind, instance)
            oracle = brute_force_oracle(kind, instance)
            if report.holds != oracle.holds:
                failures.append((kind, n, "random"))
            elif report.holds and report.certificate is not None:
                if not certificate_reconstructs(report, instance):
                    failures.append((kind, n, "random-certificate"))
            elif not report.holds:
                if report.witness is None or not _witness_feasible(kind, instance, report):
                    failures.append((kind, n, "random-witness"))
    ok = not failures
    _line(7, 300, ok, time.perf_counter() - t0)
    assert ok, failures[:5]


def _positive_composition(rng, total, parts):
    if total < parts:
        return None
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    values = []
    prev = 0
    for c in cuts:
        values.append(c - prev)
        prev = c
    values.append(total - prev)
    return values


def _random_axial_tensor(rng, dims):
    from covpkit import Decomposition

    components = []
    for axis, extent in enumerate(dims, start=1):
        data = tuple(random_scalar(rng) for _ in range(extent))
        components.append(((axis,), CostTensor((extent,), data)))
    return reconstruct(Decomposition(tuple(dims), 1, tuple(components)))


def test_criterion_8_transportation():
    t0 = time.perf_counter()
    rng = random.Random(8)
    failures = []
    checked_agree = 0
    while checked_agree < 60:
        d = rng.choice([2, 3])
        dims = tuple(rng.randint(1, 3) for _ in range(d))
        total = rng.randint(max(dims), 4)
        parts = [_positive_composition(rng, total, extent) for extent in dims]
        if any(p is None for p in parts):
            continue
        supplies = tuple(tuple(p) for p in parts)
        style = checked_agree % 3
        if style == 0:
            costs = random_tensor(rng, dims)
        elif style == 1:
            costs = _random_axial_tensor(rng, dims)
        else:
            data = list(_random_axial_tensor(rng, dims).data)
            data[rng.randrange(len(data))] += 1
            costs = CostTensor(dims, tuple(data))
        instance = TransportInstance(costs, supplies)
        fast = covp_check_axial_tp(instance).decomposable
        brute = transport_covp_bruteforce(instance).holds
        if fast != brute:
            failures.append((dims, supplies, costs.data))
        checked_agree += 1

    checked_blow = 0
    while checked_blow < 50:
        d = rng.choice([2, 3])
        dims = tuple(rng.randint(1, 3) for _ in range(d))
        total = rng.randint(max(dims), 5)
        parts = [_positive_composition(rng, total, extent) for extent in dims]
        if any(p is None for p in parts):
            continue
        supplies = tuple(tuple(p) for p in parts)
        costs = (
            random_tensor(rng, dims)
            if checked_blow % 2
            else _random_axial_tensor(rng, dims)
        )
        instance = TransportInstance(costs, supplies)
        before = decompose(costs, 1, allow_unequal_extents=True).decomposable
        after = decompose(blow_up(instance), 1, allow_unequal_extents=True).decomposable
        if before != after:
            failures.append(("blowup", dims, supplies))
        checked_blow += 1
    ok = not failures
    _line(8, 60, ok, time.perf_counter() - t0)
    assert ok, failures[:5]


def test_criterion_9_admissible_transformations():
    t0 = time.perf_counter()
    rng = random.Random(9)
    failures = []
    for trial in range(100):
        d = rng.choice([2, 3])
        n = rng.randint(2, 3)
        s = rng.choice(sorted({1, d - 1}))
        tensor = random_tensor(rng, (n,) * d)
        subtrahend = reconstruct(random_decomposition(rng, d, s, n))
        result = apply_transformation(tensor, subtrahend, s)
        if not result.accepted:
            failures.append(("refused", trial))
            continue
        for sol in enumerate_general(d, s, n).solutions:
            if objective(tensor, sol) - objective(result.reduced, sol) != result.z:
                failures.append(("shift", trial))
                break
    for trial in range(100):
        d = rng.choice([2, 3])
        n = rng.randint(2, 4) if d == 2 else rng.randint(2, 3)
        tensor = CostTensor(
            (n,) * d, tuple(abs(random_scalar(rng)) for _ in range(n**d))
        )
        outcome = axial_reduction(tensor)
        best = min(objective(tensor, f) for f in enumerate_axial(d, n).solutions)
        if outcome.z > best:
            failures.append(("bound", trial))
        if any(x < 0 for x in outcome.reduced.data):
            failures.append(("negative", trial))
    ok = not failures
    _line(9, 60, ok, time.perf_counter() - t0)
    assert ok, failures[:5]
