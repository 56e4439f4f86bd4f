from itertools import permutations
from math import factorial

import pytest

from covpkit import (
    CostTensor,
    FeasibleSolution,
    InputError,
    SearchBudget,
    counterexample_array,
    enumerate_axial,
    enumerate_general,
    enumerate_mols,
    enumerate_planar,
    is_feasible_solution,
    iter_solutions,
    objective,
)
from covpkit.feasible import (
    SolutionStream,
    _axial_core,
    _mols_core,
    _orthogonal_array_core,
    _planar_core,
    latin_square_with_corner,
    planar_corner_solution_pair,
)


def _count_latin_squares_rowwise(n: int) -> int:
    """Independent count: extend row by row with whole permutations."""
    rows: list[tuple[int, ...]] = []
    count = 0

    def ok(perm):
        return all(
            all(prev[i] != perm[i] for i in range(n)) for prev in rows
        )

    def bt():
        nonlocal count
        if len(rows) == n:
            count += 1
            return
        for perm in permutations(range(1, n + 1)):
            if ok(perm):
                rows.append(perm)
                bt()
                rows.pop()

    bt()
    return count


class TestAxial:
    def test_counts(self):
        assert enumerate_axial(2, 3).count == 6
        assert enumerate_axial(3, 2).count == 4
        assert enumerate_axial(4, 2).count == 8

    def test_all_feasible_and_sorted_stream(self):
        result = enumerate_axial(3, 3)
        assert result.count == 36
        assert result.complete
        seen = set()
        for sol in result.solutions:
            assert is_feasible_solution(sol)
            assert sol.tuples not in seen
            seen.add(sol.tuples)

    def test_budget_cuts(self):
        result = enumerate_axial(4, 4, SearchBudget(max_nodes=10))
        assert not result.complete
        assert result.count <= 10


class TestPlanar:
    def test_latin_square_counts(self):
        # order-n Latin squares: 1, 2, 12, 576; n=4 checked against an
        # independent row-by-row enumeration
        assert enumerate_planar(3, 1).count == 1
        assert enumerate_planar(3, 2).count == 2
        assert enumerate_planar(3, 3).count == 12
        count4 = enumerate_planar(3, 4).count
        assert count4 == 576
        assert count4 == _count_latin_squares_rowwise(4)

    def test_n3_doubling(self):
        for d in range(2, 7):
            assert enumerate_planar(d, 3).count == 3 * 2 ** (d - 1)

    def test_d2_is_permutations(self):
        assert enumerate_planar(2, 3).count == 6

    def test_slicing_gives_disjoint_subsolutions(self):
        # fixing the first coordinate of a planar solution splits it into n
        # pairwise disjoint solutions of the next problem down
        for d, n in [(3, 3), (4, 2), (4, 3)]:
            for sol in enumerate_planar(d, n).solutions:
                groups = {}
                for t in sol.tuples:
                    groups.setdefault(t[0], []).append(t[1:])
                assert set(groups) == set(range(1, n + 1))
                seen = set()
                for i, tails in groups.items():
                    sub = FeasibleSolution.build(d - 1, d - 2, n, tails)
                    assert is_feasible_solution(sub)
                    for tail in tails:
                        assert tail not in seen
                        seen.add(tail)


class TestMols:
    def test_graeco_latin_3(self):
        result = enumerate_mols(4, 3)
        assert result.count == 72
        assert result.complete
        for sol in result.solutions:
            assert is_feasible_solution(sol)

    def test_single_square_case(self):
        assert enumerate_mols(3, 2).count == 2

    def test_no_orthogonal_pair_order_2(self):
        result = enumerate_mols(4, 2)
        assert result.count == 0
        assert result.complete

    def test_budget_incomplete_flag(self):
        result = enumerate_mols(4, 3, SearchBudget(max_nodes=50))
        assert not result.complete


class TestGeneral:
    def test_dispatch_counts(self):
        assert enumerate_general(2, 1, 2).count == 2
        assert enumerate_general(4, 2, 3).count == 72

    def test_five_two_three_infeasible(self):
        result = enumerate_general(5, 2, 3)
        assert result.count == 0
        assert result.complete

    def test_agrees_with_specialized_as_sets(self):
        for d, s, n in [(3, 1, 3), (3, 2, 3), (4, 3, 2), (4, 2, 3)]:
            general = enumerate_general(d, s, n)
            if s == 1:
                special = enumerate_axial(d, n)
            elif s == d - 1:
                special = enumerate_planar(d, n)
            else:
                special = enumerate_mols(d, n)
            assert {f.tuples for f in general.solutions} == {
                f.tuples for f in special.solutions
            }

    def test_generic_backtracking_path(self):
        # (4,2) goes through the MOLS search; force the generic OA search by
        # comparing against it on a case with 1 < s < min(2, d-1) impossible,
        # so exercise (5,3) instead where the dispatcher has no specialization
        result = enumerate_general(5, 3, 2)
        for sol in result.solutions:
            assert is_feasible_solution(sol)
        assert result.complete

    def test_validation(self):
        with pytest.raises(InputError):
            enumerate_general(3, 3, 2)


class TestFeasibility:
    def test_examples(self):
        good = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 2)])
        assert is_feasible_solution(good)
        bad = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 1)])
        assert not is_feasible_solution(bad)

    def test_wrong_cardinality(self):
        assert not is_feasible_solution(
            FeasibleSolution.build(2, 1, 2, [(1, 1)])
        )


class TestObjective:
    def test_zero_tensor(self):
        zero = CostTensor.zeros((2, 2))
        sol = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 2)])
        assert objective(zero, sol) == 0

    def test_matrix_diagonal(self):
        tensor = CostTensor((2, 2), (1, 2, 3, 4))
        sol = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 2)])
        assert objective(tensor, sol) == 5

    def test_counterexample_constant(self):
        tensor = counterexample_array()
        values = {
            objective(tensor, sol) for sol in enumerate_mols(4, 3).solutions
        }
        assert values == {1}

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            objective(
                CostTensor.zeros((2, 2)),
                FeasibleSolution.build(2, 1, 3, [(1, 1), (2, 2), (3, 3)]),
            )


class TestCornerConstructions:
    def test_corner_square_exists(self):
        for n in (2, 4, 5, 6):
            square = latin_square_with_corner(n)
            assert square is not None
            assert square[0][:2] == [1, 2] and square[1][:2] == [2, 1]
            for i in range(n):
                assert sorted(square[i]) == list(range(1, n + 1))
                assert sorted(square[j][i] for j in range(n)) == list(range(1, n + 1))

    def test_no_corner_square_order_3(self):
        assert latin_square_with_corner(3) is None

    def test_corner_pair_properties(self):
        for d, n in [(2, 4), (3, 4), (4, 4), (3, 5), (3, 2), (4, 2)]:
            pair = planar_corner_solution_pair(d, n)
            assert pair is not None
            first, second = pair
            assert is_feasible_solution(first)
            assert is_feasible_solution(second)
            diff = set(first.tuples) ^ set(second.tuples)
            cube = {t for t in diff if all(x in (1, 2) for x in t)}
            assert diff == cube and len(diff) == 2**d


REDUCTION_GRIDS = [
    (2, 1, 3), (3, 1, 3), (4, 1, 3), (3, 2, 3), (3, 2, 4), (4, 3, 2), (4, 3, 3),
    (5, 4, 3), (4, 2, 3), (5, 2, 3), (5, 3, 2), (5, 3, 3), (4, 2, 2),
]


class TestReduced:
    def test_one_reduced_member_per_orbit(self):
        for d, s, n in REDUCTION_GRIDS:
            reduced = enumerate_general(d, s, n, reduced=True)
            full = enumerate_general(d, s, n)
            assert reduced.complete and full.complete
            assert reduced.count * factorial(n) ** (d - s) == full.count, (d, s, n)
            full_set = {f.tuples for f in full.solutions}
            for sol in reduced.solutions:
                assert sol.tuples in full_set
                for j in range(1, n + 1):
                    assert (1,) * (s - 1) + (j,) * (d - s + 1) in sol.tuples

    def test_orthogonal_latin_squares_order_4(self):
        # 6,912 pairs of orthogonal Latin squares of order 4, 576 per orbit
        reduced = enumerate_general(4, 2, 4, reduced=True)
        assert reduced.complete and reduced.count * 576 == 6912
        for sol in reduced.solutions:
            assert is_feasible_solution(sol)
            assert all((1, j, j, j) in sol.tuples for j in range(1, 5))

    def test_specialized_enumerators(self):
        assert enumerate_axial(4, 4, reduced=True).count == 1
        assert enumerate_planar(3, 4, reduced=True).count == 576 // 24
        assert enumerate_mols(4, 3, reduced=True).count == 72 // 36
        diagonal = enumerate_axial(3, 3, reduced=True).solutions[0]
        assert diagonal.tuples == ((1, 1, 1), (2, 2, 2), (3, 3, 3))

    def test_budget_still_applies(self):
        result = enumerate_general(4, 2, 4, SearchBudget(max_nodes=20), reduced=True)
        assert not result.complete and result.nodes <= 21


class TestStream:
    def test_stream_matches_lists(self):
        for d, s, n in REDUCTION_GRIDS:
            for reduced in (False, True):
                stream = iter_solutions(d, s, n, reduced=reduced)
                streamed = [FeasibleSolution.build(d, s, n, t).tuples for t in stream]
                listed = enumerate_general(d, s, n, reduced=reduced)
                assert streamed == [f.tuples for f in listed.solutions], (d, s, n, reduced)
                assert stream.count == listed.count == len(streamed)
                assert stream.nodes == listed.nodes
                assert stream.complete and listed.complete

    def test_budget_cut_matches_lists(self):
        for max_nodes in (1, 7, 60):
            budget = SearchBudget(max_nodes=max_nodes)
            stream = iter_solutions(4, 2, 3, budget)
            streamed = [FeasibleSolution.build(4, 2, 3, t).tuples for t in stream]
            listed = enumerate_general(4, 2, 3, budget)
            assert streamed == [f.tuples for f in listed.solutions]
            assert stream.nodes == listed.nodes == max_nodes + 1
            assert not stream.complete and not listed.complete

    def test_early_stop_is_incomplete(self):
        stream = iter_solutions(3, 1, 3)
        first = next(iter(stream))
        assert sorted(first) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
        assert stream.count == 1 and stream.nodes == 1 and not stream.complete

    def test_single_pass(self):
        stream = iter_solutions(3, 1, 2)
        assert len(list(stream)) == 4 and stream.complete
        assert list(stream) == [] and stream.count == 4

    def test_validation(self):
        with pytest.raises(InputError):
            iter_solutions(3, 3, 2)
        with pytest.raises(InputError):
            iter_solutions(3, 1, 0)


class TestSolutionCap:
    # (core, d, s, n, solutions): every search core, each with a few solutions
    CORES = [
        (_axial_core, 3, 1, 3, 36),
        (_planar_core, 3, 2, 3, 12),
        (_mols_core, 4, 2, 3, 72),
        (_orthogonal_array_core, 4, 2, 3, 72),
    ]

    def test_reaching_the_cap_marks_incomplete(self):
        for core, d, s, n, total in self.CORES:
            for cap in (1, total - 1, total):
                stream = SolutionStream(core, d, s, n, SearchBudget(max_solutions=cap), False)
                assert len(list(stream)) == cap == stream.count, core.__name__
                assert not stream.complete, (core.__name__, cap)
            stream = SolutionStream(core, d, s, n, SearchBudget(max_solutions=total + 1), False)
            assert len(list(stream)) == total and stream.complete, core.__name__

    def test_wrappers_follow_the_rule(self):
        at_cap = SearchBudget(max_solutions=36)
        assert not enumerate_axial(3, 3, at_cap).complete
        assert not enumerate_planar(3, 4, SearchBudget(max_solutions=576)).complete
        assert not enumerate_mols(4, 3, SearchBudget(max_solutions=72)).complete
        assert enumerate_axial(3, 3, SearchBudget(max_solutions=37)).complete
