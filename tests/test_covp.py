from fractions import Fraction
from itertools import product

import pytest

from covpkit import (
    BudgetExceeded,
    CostTensor,
    SearchBudget,
    build_incidence,
    build_Md,
    build_M_prime,
    build_reduced,
    conjecture_experiment,
    constant_value_orders,
    counterexample_array,
    covp_check_axial_fast,
    covp_check_bruteforce,
    covp_check_planar_p2,
    covp_space_dimension,
    decompose,
    det_sequence,
    determinant,
    enumerate_axial,
    enumerate_general,
    enumerate_planar,
    is_feasible_solution,
    objective,
    rank,
    reconstruct,
    savs_dimension,
    verify_rank_Md,
)
from covpkit.covp import reduced_kept_indices
from covpkit.exact import ExactMatrix

from conftest import random_decomposition, random_tensor

SUM_MATRIX = CostTensor((2, 2), (0, 2, 1, 3))


def _rank_dimension(solutions, d: int, n: int) -> int:
    """Oracle: dim of {c : all solution sums equal} = n^d + 1 - rank([M | 1]),
    with the unknown common value riding along as the extra column."""
    N = n**d
    if not solutions:
        return N
    inc = build_incidence(solutions, d, n)
    return N + 1 - rank(ExactMatrix.from_rows([row + (1,) for row in inc.matrix.entries]))


# axial, planar, s=2 and generic grids, with the n=2 axial anomalies and five
# vacuous ones: (4,2,2), (5,2,2), (5,2,3), (5,3,2), (5,3,3)
ORACLE_GRIDS = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (4, 1, 2), (5, 1, 2),
    (4, 1, 3), (3, 2, 2), (3, 2, 3), (3, 2, 4), (4, 3, 2), (4, 3, 3), (5, 4, 2),
    (5, 4, 3), (4, 2, 3), (4, 2, 2), (5, 2, 2), (5, 2, 3), (5, 3, 2), (5, 3, 3),
]


def _assert_witness_ok(tensor, verdict, s):
    f1, f2 = verdict.witness
    assert is_feasible_solution(f1) and is_feasible_solution(f2)
    assert f1.s == s and f2.s == s
    v1, v2 = verdict.witness_values
    assert objective(tensor, f1) == v1
    assert objective(tensor, f2) == v2
    assert v1 != v2


class TestBruteForce:
    def test_sum_matrix_holds(self):
        verdict = covp_check_bruteforce(SUM_MATRIX, 1)
        assert verdict.holds and verdict.common_value == 3

    def test_counterexample_holds(self):
        verdict = covp_check_bruteforce(counterexample_array(), 2)
        assert verdict.holds and verdict.common_value == 1
        assert not verdict.vacuous and not verdict.provisional

    def test_single_entry_fails(self):
        tensor = CostTensor.from_entries((2, 2), {(1, 1): 1})
        verdict = covp_check_bruteforce(tensor, 1)
        assert not verdict.holds
        _assert_witness_ok(tensor, verdict, 1)
        assert sorted(verdict.witness_values) == [0, 1]

    def test_vacuous(self):
        verdict = covp_check_bruteforce(CostTensor.zeros((2, 2, 2, 2)), 2)
        assert verdict.holds and verdict.vacuous

    def test_provisional_under_budget(self):
        verdict = covp_check_bruteforce(
            CostTensor.zeros((3, 3, 3)), 1, SearchBudget(max_nodes=5)
        )
        assert verdict.provisional


def _list_oracle(tensor, s, budget=None):
    """The first unequal pair over the collected solution list, or None,
    with the first solution's value and the enumeration."""
    enum = enumerate_general(tensor.d, s, tensor.cubical_extent, budget)
    values = [objective(tensor, f) for f in enum.solutions]
    for j in range(1, len(values)):
        if values[j] != values[0]:
            return (enum.solutions[0], enum.solutions[j]), (values[0], values[j]), enum
    return None, values[0] if values else None, enum


# axial, planar, s=2 and generic-core grids whose full enumeration is quick
STREAM_GRIDS = [(2, 1, 3), (3, 1, 3), (3, 2, 3), (4, 3, 2), (4, 2, 3), (3, 2, 4), (5, 3, 2)]


class TestStreamingBruteForce:
    def _agrees(self, tensor, s, budget=None):
        verdict = covp_check_bruteforce(tensor, s, budget)
        pair, values, enum = _list_oracle(tensor, s, budget)
        if pair is not None:
            assert not verdict.holds
            assert verdict.witness == pair and verdict.witness_values == values
            _assert_witness_ok(tensor, verdict, s)
        else:
            assert verdict.holds and verdict.common_value == values
            assert verdict.provisional == (not enum.complete)
            assert verdict.vacuous == (enum.complete and enum.count == 0)
        return verdict

    def test_matches_list_oracle(self, rng):
        for d, s, n in STREAM_GRIDS:
            holds = reconstruct(random_decomposition(rng, d, s, n))
            assert self._agrees(holds, s).holds
            data = list(holds.data)
            data[rng.randrange(len(data))] += 1
            self._agrees(CostTensor(holds.dims, tuple(data)), s)
            self._agrees(random_tensor(rng, holds.dims), s)

    def test_fraction_data(self, rng):
        for d, s, n in [(3, 1, 3), (4, 2, 3)]:
            tensor = reconstruct(random_decomposition(rng, d, s, n))
            assert any(isinstance(x, Fraction) for x in tensor.data)
            verdict = self._agrees(tensor, s)
            assert verdict.holds and not verdict.provisional
            data = list(tensor.data)
            data[-1] += Fraction(1, 3)
            verdict = self._agrees(CostTensor(tensor.dims, tuple(data)), s)
            assert not verdict.holds

    def test_budget_cuts_match_list_oracle(self, rng):
        tensor = reconstruct(random_decomposition(rng, 4, 2, 3))
        for max_nodes in (5, 200, 1000):
            verdict = self._agrees(tensor, 2, SearchBudget(max_nodes=max_nodes))
            assert verdict.provisional

    def test_stops_early_on_a_large_instance(self, rng):
        # a full (5,2,4) enumeration takes about 140M nodes
        tensor = random_tensor(rng, (4,) * 5)
        verdict = covp_check_bruteforce(tensor, 2, SearchBudget(max_nodes=10_000))
        assert not verdict.holds and not verdict.provisional
        _assert_witness_ok(tensor, verdict, 2)

    def test_vacuous_5_2_3(self, rng):
        verdict = covp_check_bruteforce(random_tensor(rng, (3,) * 5), 2)
        assert verdict.holds and verdict.vacuous and verdict.common_value is None

    def test_exhausted_budget_is_provisional(self):
        tensor = counterexample_array()
        verdict = covp_check_bruteforce(tensor, 2, SearchBudget(max_nodes=100))
        assert verdict.holds and verdict.provisional and verdict.common_value == 1
        verdict = covp_check_bruteforce(tensor, 2, SearchBudget(max_nodes=3))
        assert verdict.holds and verdict.provisional and verdict.common_value is None

    def test_planar_n3_witness_is_first_unequal_pair(self):
        for d in (2, 3, 4):
            tensor = CostTensor.from_entries((3,) * d, {(2,) * d: 1})
            verdict = covp_check_planar_p2(tensor)
            pair, values, _ = _list_oracle(tensor, d - 1)
            assert verdict.witness == pair and verdict.witness_values == values


class TestAxialFast:
    def test_reconstructed_holds(self, rng):
        for d, n in [(3, 3), (4, 3), (3, 2), (4, 2)]:
            tensor = reconstruct(random_decomposition(rng, d, 1, n))
            verdict = covp_check_axial_fast(tensor)
            assert verdict.holds
            brute = covp_check_bruteforce(tensor, 1)
            assert brute.holds and brute.common_value == verdict.common_value

    def test_single_one_n2_fails_with_witness(self):
        tensor = CostTensor.from_entries((2, 2, 2), {(2, 2, 2): 1})
        verdict = covp_check_axial_fast(tensor)
        assert not verdict.holds
        _assert_witness_ok(tensor, verdict, 1)
        assert not covp_check_bruteforce(tensor, 1).holds

    def test_witness_on_partial_support_mismatch(self):
        # mismatch tuple contains a 1: the anchored identities all hold and
        # the general exchange scan must produce the witness
        tensor = CostTensor.from_entries((3, 3, 3), {(2, 1, 3): 1})
        verdict = covp_check_axial_fast(tensor)
        assert not verdict.holds
        _assert_witness_ok(tensor, verdict, 1)

    def test_agrees_with_bruteforce_random(self, rng):
        for d, n in [(2, 3), (3, 2), (3, 3), (4, 2)]:
            for _ in range(25):
                tensor = random_tensor(rng, (n,) * d)
                fast = covp_check_axial_fast(tensor)
                brute = covp_check_bruteforce(tensor, 1)
                assert fast.holds == brute.holds

    def test_zero_tensor(self):
        verdict = covp_check_axial_fast(CostTensor.zeros((3, 3, 3)))
        assert verdict.holds and verdict.common_value == 0


class TestAxialAnomalyAtN2:
    """For n = 2 the constant-value property is strictly weaker than
    1-sum-decomposability (the exchange identities degenerate to the
    complement pairs), so the decomposition-based characterization cannot
    be used there.  The fast check stays correct by testing the pairs."""

    ANOMALY = CostTensor(
        (2, 2, 2), (1, 0, 1, 1, 0, 0, 1, 0)
    )  # constant value 1 on all four solutions

    def test_constant_but_not_decomposable(self):
        brute = covp_check_bruteforce(self.ANOMALY, 1)
        assert brute.holds and brute.common_value == 1
        assert not decompose(self.ANOMALY, 1).decomposable

    def test_fast_check_still_correct(self):
        verdict = covp_check_axial_fast(self.ANOMALY)
        assert verdict.holds and verdict.common_value == 1


class TestPlanarP2:
    def test_sum_matrix(self):
        verdict = covp_check_planar_p2(SUM_MATRIX)
        assert verdict.holds and verdict.common_value == 3

    def test_reconstructed_planar_holds(self, rng):
        for d, n in [(3, 3), (4, 2), (3, 4)]:
            tensor = reconstruct(random_decomposition(rng, d, d - 1, n))
            verdict = covp_check_planar_p2(tensor)
            assert verdict.holds
            assert covp_check_bruteforce(tensor, d - 1).common_value == verdict.common_value

    def test_counterexample_as_planar_fails(self):
        tensor = counterexample_array()
        verdict = covp_check_planar_p2(tensor)
        assert not verdict.holds
        _assert_witness_ok(tensor, verdict, 3)
        assert not decompose(tensor, 3).decomposable

    def test_witness_paths_all_n(self, rng):
        for d, n in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)]:
            tensor = CostTensor.from_entries((n,) * d, {(2,) * d: 1})
            verdict = covp_check_planar_p2(tensor)
            assert not verdict.holds, (d, n)
            _assert_witness_ok(tensor, verdict, d - 1)

    def test_agrees_with_bruteforce_random(self, rng):
        for d, n in [(2, 3), (3, 2), (3, 3)]:
            for _ in range(25):
                tensor = random_tensor(rng, (n,) * d)
                assert (
                    covp_check_planar_p2(tensor).holds
                    == covp_check_bruteforce(tensor, d - 1).holds
                )


class TestIncidence:
    def test_m2_reproduced(self):
        enum = enumerate_planar(2, 3)
        inc = build_incidence(enum.solutions, 2, 3)
        ours = sorted(inc.matrix.entries)
        printed = sorted(build_Md(2).entries)
        assert ours == printed

    def test_axial_2_2(self):
        inc = build_incidence(enumerate_axial(2, 2).solutions, 2, 2)
        assert inc.matrix.entries == ((1, 0, 0, 1), (0, 1, 1, 0))

    def test_mols_row_sums(self):
        from covpkit import enumerate_mols

        inc = build_incidence(enumerate_mols(4, 3).solutions, 4, 3)
        assert inc.matrix.rows == 72 and inc.matrix.cols == 81
        assert all(sum(row) == 9 for row in inc.matrix.entries)


class TestMdRecursion:
    def test_m1_identity(self):
        assert build_Md(1).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_md_matches_enumeration_up_to_row_order(self):
        for d in range(2, 6):
            enum = enumerate_planar(d, 3)
            inc = build_incidence(enum.solutions, d, 3)
            assert sorted(inc.matrix.entries) == sorted(build_Md(d).entries)

    def test_primed_base_cases(self):
        A, B, C = build_reduced(0)
        assert A.entries == ((1, 0), (0, 1))
        assert B.entries == ((0, 1), (1, 0))
        assert C.entries == ((0, 0), (0, 0))

    def test_primed_equals_deletion_of_full(self):
        # the reduction (drop the last column block, then rows/columns at
        # positions divisible by 3, recursively) applied to the full blocks
        for k in (1, 2, 3):
            A, _, _ = build_reduced(k)
            from covpkit.covp import _block_level

            full, _, _ = _block_level(k)
            rows, cols = reduced_kept_indices(k)
            sub = tuple(tuple(full[r][c] for c in cols) for r in rows)
            assert sub == A.entries

    def test_rank_law(self):
        for d in range(1, 7):
            assert rank(build_Md(d)) == 2**d + 1

    def test_m_prime_regular_and_unit_column(self):
        for d in (1, 2, 3, 4):
            M = build_M_prime(d)
            assert M.rows == M.cols == 2**d + 1
            col3 = tuple(row[2] for row in M.entries)
            assert col3 == tuple(1 if i == 2 else 0 for i in range(M.rows))
            assert determinant(M) != 0


class TestDetSequence:
    def test_frozen_values(self):
        seq = det_sequence(4)
        assert seq.z == (1, -1, 3, 243, 3**17)
        assert seq.u == (-1, -3, 81, 3**12, 3**32)
        assert seq.v == (3, -27, 3**8, 3**20, 3**48)

    def test_verify_report(self):
        report = verify_rank_Md(5)
        assert report.rank_ok
        assert report.recursion_ok
        assert report.eliminated_recursion_ok
        assert report.z_nonzero
        assert report.z_magnitude_ok and report.u_magnitude_ok
        assert report.m_prime_matches_z
        # the compact final exponent is recorded as a mismatch, not asserted
        assert not report.alt_exponent_matches

    def test_d2_and_d4_ranks(self):
        assert verify_rank_Md(2).rank == 5
        assert verify_rank_Md(4).rank == 17


class TestCovpDimension:
    def test_values(self):
        assert covp_space_dimension(2, 1, 3) == 5
        assert covp_space_dimension(3, 2, 3) == 19
        assert covp_space_dimension(4, 2, 3) == 49

    def test_matches_savs_where_characterized(self):
        for d, s, n in [(2, 1, 2), (2, 1, 3), (3, 2, 2), (3, 2, 3), (3, 1, 3), (4, 3, 3)]:
            assert covp_space_dimension(d, s, n) == savs_dimension(d, s, n)

    def test_n2_axial_gap(self):
        # at n=2 the constant-value space is strictly larger for d >= 3
        assert covp_space_dimension(3, 1, 2) == 5
        assert savs_dimension(3, 1, 2) == 4

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            covp_space_dimension(4, 2, 3, SearchBudget(max_nodes=10))

    def test_small_budgets_never_give_a_dimension(self):
        for max_nodes in (10, 20, 50):
            with pytest.raises(BudgetExceeded):
                covp_space_dimension(4, 2, 3, SearchBudget(max_nodes=max_nodes))
            report = conjecture_experiment(4, 2, 3, SearchBudget(max_nodes=max_nodes))
            assert not report.complete and report.covp_dim is None

    def test_matches_rank_oracle(self):
        for d, s, n in ORACLE_GRIDS:
            full = enumerate_general(d, s, n)
            assert full.complete
            orders = constant_value_orders(d, s, n)
            assert orders.solution_count == full.count, (d, s, n)
            dim = _rank_dimension(full.solutions, d, n)
            assert orders.dimension == covp_space_dimension(d, s, n) == dim, (d, s, n)


class TestConstantValueOrders:
    def test_orders(self):
        expected = {
            (3, 1, 2): (0, 1, 3),
            (4, 1, 2): (0, 1, 3),
            (5, 1, 2): (0, 1, 3, 5),
            (4, 2, 3): (0, 1, 2, 4),
            (4, 2, 4): (0, 1, 2),
        }
        for grid, kept in expected.items():
            orders = constant_value_orders(*grid)
            assert orders.complete and orders.kept == kept, grid
            d = grid[0]
            assert sorted(kept + tuple(r.order for r in orders.refuted)) == list(range(d + 1))

    def test_vacuous_keeps_every_order(self):
        orders = constant_value_orders(5, 2, 3)
        assert orders.vacuous and orders.kept == (0, 1, 2, 3, 4, 5)
        assert orders.dimension == 3**5

    def test_refutations_are_checkable(self):
        grids = [(3, 1, 2), (4, 1, 2), (3, 1, 3), (4, 1, 4), (3, 2, 4), (4, 2, 3),
                 (4, 2, 4), (4, 3, 3), (5, 4, 3), (5, 2, 4)]
        for d, s, n in grids:
            orders = constant_value_orders(d, s, n)
            assert orders.refuted, (d, s, n)
            for ref in orders.refuted:
                first, second = ref.pair
                assert is_feasible_solution(first) and is_feasible_solution(second)
                assert first.s == second.s == s
                x = ref.test_array
                assert x.dims == (n,) * d and all(isinstance(v, int) for v in x.data)
                # the test array depends on the first `order` coordinates only
                repeat = n ** (d - ref.order)
                assert all(x.data[i] == x.data[i - i % repeat] for i in range(len(x.data)))
                axis, a, b = ref.transposition
                assert axis <= ref.order
                swap = {a: b, b: a}
                moved = {
                    tuple(swap.get(v, v) if pos == axis else v for pos, v in enumerate(t, 1))
                    for t in first.tuples
                }
                assert moved == set(second.tuples)
                v1, v2 = objective(x, first), objective(x, second)
                assert (v1, v2) == ref.values and v1 != v2

    def test_incomplete_search_keeps_only_low_orders(self):
        orders = constant_value_orders(4, 2, 3, SearchBudget(max_nodes=10))
        assert not orders.complete and orders.dimension is None
        assert orders.kept == (0, 1, 2)


class TestCounterexample:
    def test_entries(self):
        tensor = counterexample_array()
        assert tensor.at((1, 1, 1, 2)) == 1
        assert tensor.at((3, 3, 3, 3)) == 1
        assert tensor.at((1, 1, 1, 1)) == 0
        assert sum(tensor.data) == 9


class TestConjecture:
    def test_4_2_3(self):
        report = conjecture_experiment(4, 2, 3)
        assert (report.covp_dim, report.savs_dim, report.equal) == (49, 33, False)

    def test_3_2_3(self):
        report = conjecture_experiment(3, 2, 3)
        assert report.covp_dim == report.savs_dim == 19 and report.equal

    def test_vacuous(self):
        report = conjecture_experiment(4, 2, 2)
        assert report.vacuous and report.solution_count == 0

    def test_inconclusive(self):
        report = conjecture_experiment(4, 2, 3, SearchBudget(max_nodes=10))
        assert not report.complete and report.equal is None


class TestSavsInsideCovp:
    def test_reconstructed_always_constant(self, rng):
        cases = [(3, 1, 2), (3, 2, 2), (3, 1, 3), (3, 2, 3), (4, 1, 2), (4, 3, 2)]
        for d, s, n in cases:
            for _ in range(8):
                tensor = reconstruct(random_decomposition(rng, d, s, n))
                assert covp_check_bruteforce(tensor, s).holds

    def test_exhaustive_01_axial_n3_d2(self):
        # every {0,1} matrix: constant-value iff sum matrix
        for bits in product((0, 1), repeat=4):
            tensor = CostTensor((2, 2), bits)
            assert (
                covp_check_bruteforce(tensor, 1).holds
                == decompose(tensor, 1).decomposable
            )
