import pytest

from covpkit import (
    CostTensor,
    FeasibleSolution,
    InputError,
    SearchBudget,
    TransportInstance,
    apply_transformation,
    axial_reduction,
    blow_up,
    certify_optimal,
    covp_check_axial_tp,
    decompose,
    enumerate_axial,
    enumerate_general,
    enumerate_transport_plans,
    objective,
    reconstruct,
    transport_covp_bruteforce,
)

from conftest import random_decomposition, random_tensor


class TestApply:
    def test_identity_transformation(self, rng):
        tensor = random_tensor(rng, (2, 2))
        result = apply_transformation(tensor, CostTensor.zeros((2, 2)), 1)
        assert result.accepted
        assert result.z == 0
        assert result.reduced.data == tensor.data

    def test_sum_matrix_subtrahend(self):
        tensor = CostTensor((2, 2), (1, 2, 3, 4))
        subtrahend = CostTensor.from_function(
            (2, 2), lambda t: (1 if t[0] == 1 else 3) + (0 if t[1] == 1 else 1)
        )
        result = apply_transformation(tensor, subtrahend, 1)
        assert result.accepted and result.z == 5
        assert all(x == 0 for x in result.reduced.data)

    def test_counterexample_self(self):
        from covpkit import counterexample_array

        tensor = counterexample_array()
        result = apply_transformation(tensor, tensor, 2)
        assert result.accepted and result.z == 1
        assert all(x == 0 for x in result.reduced.data)

    def test_refusal_carries_witness(self):
        tensor = CostTensor((2, 2), (1, 2, 3, 4))
        bad = CostTensor.from_entries((2, 2), {(1, 1): 1})
        result = apply_transformation(tensor, bad, 1)
        assert not result.accepted
        assert result.refusal.witness is not None

    def test_provisional_subtrahend_refused(self):
        # the budget runs out before the stream reaches an unequal pair, so
        # the verdict "holds" only provisionally and certifies no shift
        unit = CostTensor.from_entries((4, 4, 4, 4), {(1, 1, 1, 2): 1})
        result = apply_transformation(
            CostTensor.zeros((4, 4, 4, 4)), unit, 2, SearchBudget(max_nodes=300)
        )
        assert not result.accepted and result.z is None
        assert result.refusal.provisional

    def test_shift_law(self, rng):
        # objective(C,F) - objective(C-B,F) = z for every feasible F
        for d, s, n in [(2, 1, 3), (3, 1, 2), (3, 2, 3), (3, 1, 3)]:
            for _ in range(6):
                tensor = random_tensor(rng, (n,) * d)
                subtrahend = reconstruct(random_decomposition(rng, d, s, n))
                result = apply_transformation(tensor, subtrahend, s)
                assert result.accepted
                for sol in enumerate_general(d, s, n).solutions:
                    assert (
                        objective(tensor, sol) - objective(result.reduced, sol)
                        == result.z
                    )


class TestAxialReduction:
    def test_matrix_example(self):
        outcome = axial_reduction(CostTensor((2, 2), (1, 2, 3, 4)))
        assert outcome.z == 5
        assert all(x == 0 for x in outcome.reduced.data)

    def test_zero(self):
        outcome = axial_reduction(CostTensor.zeros((3, 3)))
        assert outcome.z == 0

    def test_reduction_is_admissible(self, rng):
        for d, n in [(2, 3), (3, 2), (3, 3)]:
            for _ in range(8):
                tensor = random_tensor(rng, (n,) * d)
                outcome = axial_reduction(tensor)
                assert all(x >= 0 for x in outcome.reduced.data)
                assert outcome.reduced.data == (tensor - outcome.transformation.subtrahend).data
                for sol in enumerate_axial(d, n).solutions:
                    assert (
                        objective(tensor, sol) - objective(outcome.reduced, sol)
                        == outcome.z
                    )

    def test_bound_below_optimum(self, rng):
        for d, n in [(2, 3), (2, 4), (3, 3)]:
            for _ in range(10):
                tensor = CostTensor(
                    (n,) * d,
                    tuple(abs(x) for x in random_tensor(rng, (n,) * d).data),
                )
                outcome = axial_reduction(tensor)
                best = min(
                    objective(tensor, sol) for sol in enumerate_axial(d, n).solutions
                )
                assert outcome.z <= best


class TestCertify:
    SOL = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 2)])

    def test_optimal(self):
        verdict = certify_optimal(CostTensor.zeros((2, 2)), self.SOL, 5)
        assert verdict.optimal and verdict.value == 5

    def test_negative_entry(self):
        reduced = CostTensor.from_entries((2, 2), {(1, 2): -1})
        verdict = certify_optimal(reduced, self.SOL, 5)
        assert not verdict.optimal and verdict.violated == "nonnegativity"

    def test_nonzero_solution(self):
        reduced = CostTensor.from_entries((2, 2), {(1, 1): 2})
        verdict = certify_optimal(reduced, self.SOL, 5)
        assert not verdict.optimal and verdict.violated == "zero-cost-solution"

    def test_infeasible_rejected(self):
        bad = FeasibleSolution.build(2, 1, 2, [(1, 1), (2, 1)])
        with pytest.raises(InputError):
            certify_optimal(CostTensor.zeros((2, 2)), bad, 0)


class TestTransport:
    def test_sum_matrix_holds(self):
        instance = TransportInstance(
            CostTensor((2, 2), (0, 2, 1, 3)), ((2, 1), (1, 2))
        )
        assert covp_check_axial_tp(instance).decomposable

    def test_non_sum_fails_and_brute_agrees(self):
        instance = TransportInstance(
            CostTensor.from_entries((2, 2), {(2, 2): 1}), ((1, 1), (1, 1))
        )
        assert not covp_check_axial_tp(instance).decomposable
        assert not transport_covp_bruteforce(instance).holds

    def test_unbalanced_rejected(self):
        with pytest.raises(InputError):
            TransportInstance(CostTensor.zeros((2, 2)), ((2, 1), (1, 1)))

    def test_non_integral_rejected(self):
        from fractions import Fraction

        with pytest.raises(InputError):
            TransportInstance(
                CostTensor.zeros((2, 2)),
                ((Fraction(1, 2), Fraction(1, 2)), (1, 0)),
            )

    def test_plan_enumeration(self):
        instance = TransportInstance(
            CostTensor.zeros((2, 2)), ((2, 1), (1, 2))
        )
        plans = enumerate_transport_plans(instance)
        assert sorted(p.amounts for p in plans) == [(0, 2, 1, 0), (1, 1, 0, 1)]

    def test_brute_oracle_agreement_random(self, rng):
        # random costs: agreement is generic; decomposable costs: both hold
        for _ in range(25):
            d = rng.choice([2, 3])
            dims = tuple(rng.randint(1, 3) for _ in range(d))
            total = rng.randint(max(dims), 4)
            parts = [_random_composition(rng, total, extent) for extent in dims]
            if any(p is None for p in parts):
                continue
            supplies = tuple(tuple(p) for p in parts)
            costs = random_tensor(rng, dims)
            instance = TransportInstance(costs, supplies)
            fast = covp_check_axial_tp(instance).decomposable
            brute = transport_covp_bruteforce(instance)
            if fast:
                assert brute.holds
            subtensor_decomposable = decompose(
                costs, 1, allow_unequal_extents=True
            ).decomposable
            assert fast == subtensor_decomposable


def _random_composition(rng, total, parts):
    """Composition of total into exactly ``parts`` positive integers.

    Zero supplies would drop slices from the blow-up, so transport tests
    stay in the positive-supply regime where the reduction to the
    assignment problem is faithful.
    """
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


class TestBlowUp:
    def test_all_ones_supplies_identity(self, rng):
        tensor = random_tensor(rng, (3, 3))
        instance = TransportInstance(tensor, ((1, 1, 1), (1, 1, 1)))
        assert blow_up(instance).data == tensor.data

    def test_single_cell(self):
        instance = TransportInstance(CostTensor((1, 1), (1,)), ((2,), (2,)))
        blown = blow_up(instance)
        assert blown.dims == (2, 2) and blown.data == (1, 1, 1, 1)

    def test_zero_total_rejected(self):
        instance = TransportInstance(CostTensor((1, 1), (0,)), ((0,), (0,)))
        with pytest.raises(InputError):
            blow_up(instance)

    def test_preserves_decomposability_both_ways(self, rng):
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            d = rng.choice([2, 3])
            dims = tuple(rng.randint(1, 3) for _ in range(d))
            total = rng.randint(max(dims), 5)
            parts = [_random_composition(rng, total, extent) for extent in dims]
            if any(p is None for p in parts):
                continue
            supplies = [tuple(p) for p in parts]
            if rng.random() < 0.5:
                costs = random_tensor(rng, dims)
            else:
                costs = reconstruct(_random_axial_split(rng, dims))
            instance = TransportInstance(costs, tuple(supplies))
            before = decompose(costs, 1, allow_unequal_extents=True).decomposable
            blown = blow_up(instance)
            after = decompose(blown, 1, allow_unequal_extents=True).decomposable
            assert before == after
            checked += 1
        assert checked == 50


def _random_axial_split(rng, dims):
    from covpkit import Decomposition
    from conftest import random_scalar

    components = []
    for axis, extent in enumerate(dims, start=1):
        data = tuple(random_scalar(rng) for _ in range(extent))
        components.append(((axis,), CostTensor((extent,), data)))
    return Decomposition(tuple(dims), 1, tuple(components))
