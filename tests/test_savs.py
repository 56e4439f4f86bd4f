from fractions import Fraction

import pytest

from covpkit import (
    CostTensor,
    Decomposition,
    ExactMatrix,
    InputError,
    counterexample_array,
    decompose,
    decompose_axial_constructive,
    decompose_planar_constructive,
    project,
    rank,
    reconstruct,
    savs_dimension,
    savs_generator_matrix,
    solve_linear,
)
from covpkit.exact import all_index_tuples
from covpkit.savs import axis_subsets

from conftest import random_decomposition, random_scalar, random_tensor

SUM_MATRIX = CostTensor((2, 2), (0, 2, 1, 3))  # u=(0,1), v=(0,2)


def membership_system(dims, s):
    """The 0/1 system A with one row per index tuple and one column per
    pattern of every s-subset of axes: A x = c iff x is a decomposition."""
    subsets = axis_subsets(len(dims), s)
    columns = {}
    for Q in subsets:
        for k in all_index_tuples(tuple(dims[q - 1] for q in Q)):
            columns[(Q, k)] = len(columns)
    rows = []
    for t in all_index_tuples(dims):
        row = [0] * len(columns)
        for Q in subsets:
            row[columns[(Q, project(t, Q))]] = 1
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def refutes(y, tensor, s):
    """yᵀA = 0 for the membership system A, and y·c != 0."""
    A = membership_system(tensor.dims, s)
    if any(sum(yt * row[col] for yt, row in zip(y, A.entries)) for col in range(A.cols)):
        return False
    return sum(yt * c for yt, c in zip(y, tensor.data)) != 0


class TestProject:
    def test_examples(self):
        assert project((3, 1, 2), (1, 3)) == (3, 2)
        assert project((5, 5, 5, 5), (2,)) == (5,)
        assert project((1, 2, 3, 4), (2, 3, 4)) == (2, 3, 4)

    def test_bad_subset(self):
        with pytest.raises(InputError):
            project((1, 2), (3,))


class TestReconstruct:
    def test_sum_matrix(self):
        from covpkit import Decomposition

        d = Decomposition(
            (2, 2),
            1,
            (((1,), CostTensor((2,), (0, 1))), ((2,), CostTensor((2,), (0, 2)))),
        )
        assert reconstruct(d).data == SUM_MATRIX.data

    def test_zero_components(self, rng):
        from covpkit import Decomposition

        zero = Decomposition(
            (2, 2, 2),
            2,
            tuple((Q, CostTensor((2, 2), (0,) * 4)) for Q in axis_subsets(3, 2)),
        )
        assert all(x == 0 for x in reconstruct(zero).data)

    def test_single_component(self):
        from covpkit import Decomposition

        comps = []
        for Q in axis_subsets(3, 2):
            data = (1, 0, 0, 0) if Q == (2, 3) else (0, 0, 0, 0)
            comps.append((Q, CostTensor((2, 2), data)))
        tensor = reconstruct(Decomposition((2, 2, 2), 2, tuple(comps)))
        for t in tensor.index_tuples():
            expected = 1 if (t[1], t[2]) == (1, 1) else 0
            assert tensor.at(t) == expected


class TestDecompose:
    def test_sum_matrix(self):
        result = decompose(SUM_MATRIX, 1)
        assert result.decomposable
        assert reconstruct(result.decomposition).data == SUM_MATRIX.data

    def test_counterexample_not_decomposable(self):
        result = decompose(counterexample_array(), 2)
        assert not result.decomposable
        assert result.witness is not None

    def test_witness_refutes(self):
        tensor = counterexample_array()
        # y combines the membership equations to 0 = nonzero
        assert refutes(decompose(tensor, 2).witness, tensor, 2)

    def test_roundtrip_random(self, rng):
        for d, s, n in [(3, 2, 3), (3, 1, 3), (4, 2, 2), (4, 3, 2), (2, 1, 4)]:
            for _ in range(5):
                original = random_decomposition(rng, d, s, n)
                tensor = reconstruct(original)
                result = decompose(tensor, s)
                assert result.decomposable, (d, s, n)
                assert reconstruct(result.decomposition).data == tensor.data

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            decompose(SUM_MATRIX, 0)
        with pytest.raises(InputError):
            decompose(SUM_MATRIX, 2)
        with pytest.raises(InputError):
            decompose(CostTensor((1, 1), (1,)), 1)


def random_shaped_decomposition(rng, dims, s):
    components = tuple(
        (Q, random_tensor(rng, tuple(dims[q - 1] for q in Q)))
        for Q in axis_subsets(len(dims), s)
    )
    return Decomposition(tuple(dims), s, components)


class TestEliminationOracle:
    """`decompose` against exact elimination of the membership system."""

    CASES = [
        ((3, 3), 1), ((2, 3, 4), 1), ((3, 2, 3), 2), ((2, 2, 2, 2), 2),
        ((3, 3, 3), 2), ((2, 3, 2, 2), 3), ((4, 1, 3), 1), ((2, 2, 3, 2), 1),
    ]

    @pytest.mark.parametrize("dims,s", CASES)
    def test_agrees_with_solve_linear(self, rng, dims, s):
        for kind in ("random", "decomposable", "perturbed"):
            for _ in range(3):
                if kind == "random":
                    tensor = random_tensor(rng, dims)
                else:
                    tensor = reconstruct(random_shaped_decomposition(rng, dims, s))
                    if kind == "perturbed":
                        data = list(tensor.data)
                        data[rng.randrange(len(data))] += random_scalar(rng) or 1
                        tensor = CostTensor(tensor.dims, tuple(data))
                result = decompose(tensor, s, allow_unequal_extents=True)
                system = membership_system(tensor.dims, s)
                assert result.decomposable == solve_linear(system, tensor.data).consistent
                if result.decomposable:
                    assert reconstruct(result.decomposition).data == tensor.data
                else:
                    assert all(isinstance(y, int) for y in result.witness)
                    assert refutes(result.witness, tensor, s)

    def test_roundtrip_6_1_4(self, rng):
        original = random_decomposition(rng, 6, 1, 4)
        tensor = reconstruct(original)
        result = decompose(tensor, 1)
        assert result.decomposable
        assert reconstruct(result.decomposition).data == tensor.data
        data = list(tensor.data)
        data[-1] += Fraction(1, 3)
        perturbed = CostTensor(tensor.dims, tuple(data))
        result = decompose(perturbed, 1)
        assert not result.decomposable
        assert refutes(result.witness, perturbed, 1)


class TestAxialConstructive:
    def test_sum_matrix_vectors(self):
        result = decompose_axial_constructive(SUM_MATRIX)
        assert result.ok
        # v_1(i) = c(i,1) - c(1,1)/2, v_2(j) = c(1,j) - c(1,1)/2
        assert result.decomposition.component((1,)).data == (0, 1)
        assert result.decomposition.component((2,)).data == (0, 2)

    def test_zero_tensor(self):
        zero = CostTensor.zeros((2, 2, 2))
        result = decompose_axial_constructive(zero)
        assert result.ok
        assert all(
            x == 0 for _, comp in result.decomposition.components for x in comp.data
        )

    def test_single_entry_mismatch(self):
        tensor = CostTensor.from_entries((2, 2), {(2, 2): 1})
        result = decompose_axial_constructive(tensor)
        assert not result.ok
        assert result.mismatch is not None
        # brute-force confirms non-membership
        assert not decompose(tensor, 1).decomposable

    def test_agrees_with_decompose(self, rng):
        for d, n in [(2, 3), (3, 2), (3, 3), (4, 2)]:
            for _ in range(6):
                tensor = reconstruct(random_decomposition(rng, d, 1, n))
                assert decompose_axial_constructive(tensor).ok
            from conftest import random_tensor

            for _ in range(6):
                tensor = random_tensor(rng, (n,) * d)
                assert (
                    decompose_axial_constructive(tensor).ok
                    == decompose(tensor, 1).decomposable
                )


class TestPlanarConstructive:
    def test_sum_matrix(self):
        result = decompose_planar_constructive(SUM_MATRIX)
        assert result.ok
        assert reconstruct(result.decomposition).data == SUM_MATRIX.data

    def test_zero(self):
        result = decompose_planar_constructive(CostTensor.zeros((3, 3, 3)))
        assert result.ok

    def test_counterexample_mismatch(self):
        result = decompose_planar_constructive(counterexample_array())
        assert not result.ok
        assert result.mismatch is not None

    def test_agrees_with_decompose(self, rng):
        from conftest import random_tensor

        for d, n in [(3, 2), (3, 3), (4, 2)]:
            for _ in range(5):
                tensor = reconstruct(random_decomposition(rng, d, d - 1, n))
                assert decompose_planar_constructive(tensor).ok
            for _ in range(5):
                tensor = random_tensor(rng, (n,) * d)
                assert (
                    decompose_planar_constructive(tensor).ok
                    == decompose(tensor, d - 1).decomposable
                )


def inclusion_exclusion_dimension(d, s, n):
    """Sum of (-1)^(|I|+1) n^(|∩I|) over nonempty families I of s-subsets;
    an empty intersection counts n^0 = 1 (the constants)."""
    masks = [sum(1 << (q - 1) for q in Q) for Q in axis_subsets(d, s)]
    total = 0
    for family in range(1, 1 << len(masks)):
        inter = (1 << d) - 1
        for idx, mask in enumerate(masks):
            if family >> idx & 1:
                inter &= mask
        term = n ** bin(inter).count("1")
        total += term if bin(family).count("1") % 2 else -term
    return total


class TestDimension:
    def test_paper_value(self):
        assert savs_dimension(4, 2, 3) == 33

    def test_axial_closed_form(self):
        for d in range(2, 7):
            for n in range(2, 6):
                assert savs_dimension(d, 1, n) == d * n - d + 1

    def test_planar_closed_form(self):
        for d in range(2, 7):
            for n in range(2, 6):
                assert savs_dimension(d, d - 1, n) == n**d - (n - 1) ** d

    def test_examples(self):
        assert savs_dimension(3, 1, 3) == 7
        assert savs_dimension(3, 2, 3) == 19

    def test_component_sum_identity(self):
        # the closed form sum over j <= s of C(d,j)(n-1)^j against the
        # independent inclusion-exclusion route over families of s-subsets
        for d in range(2, 6):
            for s in range(1, d):
                for n in range(2, 5):
                    assert savs_dimension(d, s, n) == inclusion_exclusion_dimension(d, s, n)

    def test_without_family_enumeration(self):
        # 2^C(7,3) = 2^35 families: out of reach for inclusion-exclusion
        assert savs_dimension(7, 3, 3) == 379

    def test_validation(self):
        with pytest.raises(InputError):
            savs_dimension(3, 3, 2)
        with pytest.raises(InputError):
            savs_dimension(3, 1, 1)


class TestGeneratorMatrix:
    def test_small_ranks(self):
        assert rank(savs_generator_matrix(2, 1, 2)) == 3
        assert rank(savs_generator_matrix(3, 2, 2)) == 7
        assert rank(savs_generator_matrix(4, 2, 3)) == 33

    def test_shape(self):
        M = savs_generator_matrix(2, 1, 2)
        assert (M.rows, M.cols) == (4, 4)

    def test_rank_equals_dimension_small(self):
        for d in range(2, 5):
            for s in range(1, d):
                for n in (2, 3):
                    assert rank(savs_generator_matrix(d, s, n)) == savs_dimension(d, s, n)
