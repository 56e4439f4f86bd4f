"""Admissible cost transformations and the axial transportation problem.

Subtracting a constant-objective-value array B shifts every feasible
solution's cost by the same index z, so optimality certificates and lower
bounds survive the rewrite.  The transportation variant reduces to the
assignment case by blowing supplies up into unit facilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .covp import CovpVerdict, covp_check_axial_fast, covp_check_bruteforce, covp_check_planar_p2
from .errors import InputError, SizeLimitError
from .exact import CostTensor, Scalar, all_index_tuples
from .feasible import FeasibleSolution, SearchBudget, is_feasible_solution, objective
from .savs import DecomposeResult, Decomposition, decompose, reconstruct


@dataclass(frozen=True)
class AdmissibleTransformation:
    """A certified rewrite: subtracting ``subtrahend`` shifts every feasible
    objective by exactly ``index_z``."""

    subtrahend: CostTensor
    index_z: Scalar


@dataclass(frozen=True)
class ApplyResult:
    accepted: bool
    reduced: CostTensor | None = None
    transformation: AdmissibleTransformation | None = None
    refusal: CovpVerdict | None = None

    @property
    def z(self) -> Scalar | None:
        return self.transformation.index_z if self.transformation else None


def _verdict_for(tensor: CostTensor, s: int, budget) -> CovpVerdict:
    d = tensor.d
    if s == 1:
        return covp_check_axial_fast(tensor)
    if s == d - 1:
        return covp_check_planar_p2(tensor)
    return covp_check_bruteforce(tensor, s, budget)


def apply_transformation(
    tensor: CostTensor,
    subtrahend: CostTensor,
    s: int,
    budget: SearchBudget | None = None,
) -> ApplyResult:
    """Subtract a constant-value array and report the objective shift.

    The subtrahend is verified first; a non-constant subtrahend is refused
    together with its two-solution witness.  A vacuously constant subtrahend
    (no feasible solutions at all) is refused as well, since no shift index
    is defined.  So is a provisional verdict: a search cut short by its
    budget has not seen every solution, so it certifies no shift.
    """
    if tensor.dims != subtrahend.dims:
        raise InputError(
            f"shape mismatch: {tensor.dims} vs {subtrahend.dims}"
        )
    verdict = _verdict_for(subtrahend, s, budget)
    if (not verdict.holds or verdict.vacuous or verdict.provisional
            or verdict.common_value is None):
        return ApplyResult(accepted=False, refusal=verdict)
    return ApplyResult(
        accepted=True,
        reduced=tensor - subtrahend,
        transformation=AdmissibleTransformation(subtrahend, verdict.common_value),
    )


@dataclass(frozen=True)
class AxialReduction:
    transformation: AdmissibleTransformation
    reduced: CostTensor
    vectors: Decomposition

    @property
    def z(self) -> Scalar:
        return self.transformation.index_z


def axial_reduction(tensor: CostTensor) -> AxialReduction:
    """Iterated slice reduction: a valid lower bound for the axial problem.

    Passes over the axes in order 1..d subtract each slice's minimum from
    the slice and accumulate it into that axis's vector; later subtractions
    never destroy earlier zeros, so the second pass is already a fixpoint
    check.  The subtracted array is 1-sum-decomposable, hence constant on
    feasible solutions with index z = sum of all subtracted minima, and the
    reduced tensor is entrywise nonnegative: z never exceeds the optimum.
    """
    d = tensor.d
    n = tensor.cubical_extent
    data = list(tensor.data)
    dims = tensor.dims
    vectors = [[0] * n for _ in range(d)]
    offsets_by_axis = []
    for axis in range(d):
        slices = [[] for _ in range(n)]
        for off, t in enumerate(all_index_tuples(dims)):
            slices[t[axis] - 1].append(off)
        offsets_by_axis.append(slices)
    changed = True
    while changed:
        changed = False
        for axis in range(d):
            for j in range(n):
                offsets = offsets_by_axis[axis][j]
                m = min(data[off] for off in offsets)
                if m != 0:
                    changed = True
                    vectors[axis][j] += m
                    for off in offsets:
                        data[off] -= m
    components = tuple(
        ((axis + 1,), CostTensor((n,), tuple(vectors[axis]))) for axis in range(d)
    )
    vec = Decomposition(dims, 1, components)
    subtrahend = reconstruct(vec)
    z = sum(sum(v) for v in vectors)
    return AxialReduction(
        transformation=AdmissibleTransformation(subtrahend, z),
        reduced=CostTensor(dims, tuple(data)),
        vectors=vec,
    )


@dataclass(frozen=True)
class OptimalityVerdict:
    optimal: bool
    value: Scalar | None = None
    violated: str | None = None
    detail: str | None = None


def certify_optimal(
    reduced: CostTensor, solution: FeasibleSolution, z: Scalar
) -> OptimalityVerdict:
    """Check the two-part optimality criterion on a reduced instance:
    (i) the reduced costs are nonnegative, (ii) the candidate solution has
    reduced cost zero.  Both together certify optimality with value z;
    condition (i) alone still certifies z as a lower bound."""
    if not is_feasible_solution(solution):
        raise InputError("candidate solution is not feasible")
    for t, value in zip(all_index_tuples(reduced.dims), reduced.data):
        if value < 0:
            return OptimalityVerdict(
                optimal=False,
                violated="nonnegativity",
                detail=f"reduced cost at {t} is {value}",
            )
    cost = objective(reduced, solution)
    if cost != 0:
        return OptimalityVerdict(
            optimal=False,
            violated="zero-cost-solution",
            detail=f"candidate has reduced cost {cost}; z stays a lower bound",
        )
    return OptimalityVerdict(optimal=True, value=z)


@dataclass(frozen=True)
class TransportInstance:
    """Axial transportation data: a cost tensor and one balanced supply
    vector of nonnegative integers per axis."""

    costs: CostTensor
    supplies: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.supplies) != self.costs.d:
            raise InputError(
                f"{self.costs.d}-dimensional costs need {self.costs.d} supply vectors"
            )
        for axis, (extent, vec) in enumerate(zip(self.costs.dims, self.supplies), 1):
            if len(vec) != extent:
                raise InputError(
                    f"axis {axis} has extent {extent} but {len(vec)} supplies"
                )
            if any(isinstance(b, bool) or not isinstance(b, int) or b < 0 for b in vec):
                raise InputError("supplies must be nonnegative integers")
        totals = {sum(vec) for vec in self.supplies}
        if len(totals) != 1:
            raise InputError(f"unbalanced supplies: axis totals {sorted(totals)}")

    @property
    def total(self) -> int:
        return sum(self.supplies[0])


def covp_check_axial_tp(instance: TransportInstance) -> DecomposeResult:
    """Constant-value test for the axial transportation problem.

    Decided by 1-sum-decomposability of the cost tensor; the membership
    system is solved directly on the (possibly unequal) extents.  Supplies
    only enter through the balance validation: with every supply positive
    and total at least 3, decomposability coincides with the constant-value
    property over transport plans.
    """
    return decompose(instance.costs, 1, allow_unequal_extents=True)


def blow_up(instance: TransportInstance) -> CostTensor:
    """Equivalent assignment costs: each facility with supply t becomes t
    unit facilities with copied costs.  The result is N x ... x N for
    N = total supply; decomposability is preserved in both directions."""
    N = instance.total
    if N == 0:
        raise InputError("cannot blow up an instance with zero total supply")
    index_maps = []
    for vec in instance.supplies:
        expanded = []
        for orig, b in enumerate(vec, start=1):
            expanded.extend([orig] * b)
        index_maps.append(expanded)
    dims = tuple(N for _ in instance.supplies)
    data = []
    for t in all_index_tuples(dims):
        orig = tuple(index_maps[axis][x - 1] for axis, x in enumerate(t))
        data.append(instance.costs.at(orig))
    return CostTensor(dims, tuple(data))


@dataclass(frozen=True)
class TransportPlan:
    """Integral transport plan: shipments per cell, row-major."""

    dims: tuple[int, ...]
    amounts: tuple[int, ...]

    def cost(self, tensor: CostTensor) -> Scalar:
        return sum(x * c for x, c in zip(self.amounts, tensor.data) if x)


def enumerate_transport_plans(instance: TransportInstance, limit: int = 500_000):
    """All integral plans of a small instance (brute-force oracle).

    Cells are filled in row-major order; a cell's shipment is capped by the
    tightest remaining axis supply, and each axis-1 slice must be saturated
    by the time the fill leaves it.
    """
    dims = instance.costs.dims
    remaining = [list(vec) for vec in instance.supplies]
    cells = list(all_index_tuples(dims))
    plans: list[TransportPlan] = []
    amounts = [0] * len(cells)
    slice_size = prod(dims[1:]) if len(dims) > 1 else 1

    def bt(ci: int) -> None:
        if len(plans) > limit:
            raise SizeLimitError("transport-plan enumeration limit exceeded")
        if ci == len(cells):
            if all(all(r == 0 for r in rem) for rem in remaining):
                plans.append(TransportPlan(dims, tuple(amounts)))
            return
        t = cells[ci]
        cap = min(remaining[axis][t[axis] - 1] for axis in range(len(dims)))
        for x in range(cap + 1):
            amounts[ci] = x
            for axis in range(len(dims)):
                remaining[axis][t[axis] - 1] -= x
            # leaving an axis-1 slice with supply unshipped is a dead end
            last_of_slice = (ci + 1) % slice_size == 0
            ok = not last_of_slice or remaining[0][t[0] - 1] == 0
            if ok:
                bt(ci + 1)
            for axis in range(len(dims)):
                remaining[axis][t[axis] - 1] += x
        amounts[ci] = 0

    bt(0)
    return plans


def transport_covp_bruteforce(instance: TransportInstance) -> CovpVerdict:
    """Direct constant-value check over all integral transport plans."""
    plans = enumerate_transport_plans(instance)
    if not plans:
        return CovpVerdict(holds=True, vacuous=True, method="tp-brute-force")
    values = [plan.cost(instance.costs) for plan in plans]
    head = values[0]
    for j in range(1, len(values)):
        if values[j] != head:
            return CovpVerdict(
                holds=False,
                witness_values=(head, values[j]),
                method="tp-brute-force",
                detail=f"plans {plans[0].amounts} and {plans[j].amounts} disagree",
            )
    return CovpVerdict(holds=True, common_value=head, method="tp-brute-force")
