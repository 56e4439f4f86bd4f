"""Sum-decomposable arrays: membership, constructive splits, dimensions.

A d-dimensional array is s-sum-decomposable when it is a sum of C(d,s)
components, one per s-subset Q of the axes, each depending only on the
coordinates in its Q.  Membership is decided by ANOVA projection onto the
functions of at most s coordinates; the dimension of the space of all such
arrays has a closed form, and the generator matrix gives an independent
route to it by exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from .errors import InputError
from .exact import (
    CostTensor,
    ExactMatrix,
    all_index_tuples,
    flatten_index,
)

IndexSubset = tuple[int, ...]  # 1-based axis numbers, strictly increasing


def axis_subsets(d: int, s: int) -> list[IndexSubset]:
    """All s-subsets of {1..d} in lexicographic order."""
    return list(combinations(range(1, d + 1), s))


def project(t: tuple[int, ...], Q: IndexSubset) -> tuple[int, ...]:
    """Subtuple of t at the (1-based) positions in Q, in position order."""
    if any(not 1 <= q <= len(t) for q in Q):
        raise InputError(f"subset {Q} invalid for a {len(t)}-tuple")
    return tuple(t[q - 1] for q in Q)


def _check_parameters(d: int, s: int) -> None:
    if not 0 < s < d:
        raise InputError(f"need 0 < s < d, got s={s}, d={d}")


@dataclass(frozen=True)
class Decomposition:
    """Components A^Q of a sum-decomposition, in canonical subset order."""

    dims: tuple[int, ...]
    s: int
    components: tuple[tuple[IndexSubset, CostTensor], ...]

    def __post_init__(self):
        expected = axis_subsets(len(self.dims), self.s)
        got = [Q for Q, _ in self.components]
        if got != expected:
            raise InputError(f"components must cover {expected} in order, got {got}")
        for Q, comp in self.components:
            want = tuple(self.dims[q - 1] for q in Q)
            if comp.dims != want:
                raise InputError(f"component {Q} has shape {comp.dims}, expected {want}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        extents = set(self.dims)
        if len(extents) != 1:
            raise InputError("decomposition extents are not all equal")
        return self.dims[0]

    def component(self, Q: IndexSubset) -> CostTensor:
        for subset, comp in self.components:
            if subset == tuple(Q):
                return comp
        raise InputError(f"no component for subset {Q}")


def reconstruct(decomposition: Decomposition) -> CostTensor:
    """Tensor with entry Σ_Q A^Q(h_Q(t)) at every index tuple t."""
    comps = decomposition.components
    data = []
    for t in all_index_tuples(decomposition.dims):
        data.append(sum(comp.at(project(t, Q)) for Q, comp in comps))
    return CostTensor(decomposition.dims, tuple(data))


@dataclass(frozen=True)
class DecomposeResult:
    """Either a decomposition, or an exact refutation.

    On success ``decomposition`` is the canonical ANOVA split (see
    `decompose`); compare decompositions by reconstruction, since any
    decomposition can trade constants and lower-order terms between
    components.  On failure ``witness`` is the high-order ANOVA residual of
    the tensor scaled to coprime integers, indexed by the tensor's tuples in
    row-major order: every marginal sum of it over at most s axes vanishes,
    so yᵀ·(membership system) = 0, while Σ y_t c(t) is a positive multiple
    of its squared norm, proving no decomposition exists.
    """

    decomposition: Decomposition | None = None
    witness: tuple[int, ...] | None = None

    @property
    def decomposable(self) -> bool:
        return self.decomposition is not None


def _projection_offsets(dims: tuple[int, ...], positions) -> list[int]:
    """For every tuple of the `dims` grid in row-major order, the row-major
    offset of its subtuple at the 0-based `positions` in the subgrid."""
    offsets = [0]
    for axis, extent in enumerate(dims):
        if axis in positions:
            offsets = [o * extent + i for o in offsets for i in range(extent)]
        else:
            offsets = [o for o in offsets for _ in range(extent)]
    return offsets


def _marginal(values, offsets, size: int) -> list:
    sums = [0] * size
    for o, x in zip(offsets, values):
        sums[o] += x
    return sums


def decompose(
    tensor: CostTensor, s: int, *, allow_unequal_extents: bool = False
) -> DecomposeResult:
    """Test membership in the space of s-sum-decomposable arrays.

    The s-sum-decomposable arrays are exactly the functions of at most s
    coordinates, i.e. the arrays whose ANOVA (Hoeffding) components f_U
    vanish for |U| > s.  Their low-order part is the orthogonal projection

        g = Σ_{|V|<=s} (-1)^(s-|V|) C(d-|V|-1, s-|V|) · M_V,

    where M_V is the mean of the tensor over the axes outside V.  Each V
    term is folded into the first s-subset Q ⊇ V in canonical order, which
    gives the returned decomposition; the tensor is decomposable iff g
    rebuilds it exactly.  Otherwise c - g is the refutation witness.  All
    arithmetic is exact (the data are scaled to integers once); the work is
    O(C(d,s) · (N + 2^s n^s)) for N tensor entries, memory beyond the
    components is O(N), and no linear system is built.
    """
    d = tensor.d
    _check_parameters(d, s)
    if not allow_unequal_extents:
        n = tensor.cubical_extent
        if n < 2:
            raise InputError("sum-decomposability is defined for extent n >= 2")
    dims = tensor.dims
    N = len(tensor.data)
    scale = lcm(*(x.denominator for x in tensor.data if isinstance(x, Fraction)))
    values = [int(x * scale) for x in tensor.data]
    subsets = axis_subsets(d, s)

    # Every part below is N * scale times its true value, so it stays integral.
    seen: set[IndexSubset] = set()
    parts = []
    residual = [N * x for x in values]
    for Q in subsets:
        shape = tuple(dims[q - 1] for q in Q)
        offsets = _projection_offsets(dims, {q - 1 for q in Q})
        q_sums = _marginal(values, offsets, prod(shape))
        part = [0] * prod(shape)
        for k in range(s + 1):
            coef = (-1) ** (s - k) * comb(d - k - 1, s - k)
            for pos in combinations(range(s), k):
                V = tuple(Q[p] for p in pos)
                if V in seen:
                    continue
                seen.add(V)
                sub = _projection_offsets(shape, set(pos))
                size = prod(shape[p] for p in pos)
                v_sums = _marginal(q_sums, sub, size)
                weight = coef * size
                for i, o in enumerate(sub):
                    part[i] += weight * v_sums[o]
        parts.append((Q, shape, part))
        residual = [r - part[o] for r, o in zip(residual, offsets)]

    if any(residual):
        g = gcd(*residual)
        return DecomposeResult(witness=tuple(r // g for r in residual))
    denominator = N * scale
    components = []
    for Q, shape, part in parts:
        data = []
        for x in part:
            f = Fraction(x, denominator)
            data.append(f.numerator if f.denominator == 1 else f)
        components.append((Q, CostTensor(shape, tuple(data))))
    return DecomposeResult(
        decomposition=Decomposition(dims, s, tuple(components))
    )


@dataclass(frozen=True)
class ConstructiveResult:
    """Outcome of a closed-form decomposition attempt.

    ``mismatch`` is the first row-major index tuple where the rebuilt tensor
    differs from the input (None when the construction succeeds).
    """

    decomposition: Decomposition | None = None
    mismatch: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.decomposition is not None


def decompose_axial_constructive(tensor: CostTensor) -> ConstructiveResult:
    """Closed-form axial (s=1) split: v_k(i) = c(1,..,i,..,1) - (d-1)/d·c(1,..,1).

    Succeeds exactly on 1-sum-decomposable tensors; on others it reports the
    first tuple the rebuilt tensor gets wrong.
    """
    d = tensor.d
    n = tensor.cubical_extent
    if n < 2 or d < 2:
        raise InputError("need d >= 2 and n >= 2")
    origin = (1,) * d
    base = Fraction(d - 1, d) * tensor.at(origin)
    components = []
    for axis in range(1, d + 1):
        values = []
        for i in range(1, n + 1):
            t = tuple(i if pos == axis else 1 for pos in range(1, d + 1))
            value = tensor.at(t) - base
            values.append(value.numerator if value.denominator == 1 else value)
        components.append(((axis,), CostTensor((n,), tuple(values))))
    candidate = Decomposition(tensor.dims, 1, tuple(components))
    return _verify_candidate(tensor, candidate)


def decompose_planar_constructive(tensor: CostTensor) -> ConstructiveResult:
    """Closed-form planar (s=d-1) split via signed corner sums.

    Component j at position u is an alternating sum over the corners of the
    box {1,u_1}x...x{1,u_(d-1)} with axis j pinned to 1: a corner with i-1
    box coordinates at the low end contributes with coefficient (-1)^(i+1)/i.
    Box slots are formal, so positions u_l = 1 degenerate harmlessly.
    """
    d = tensor.d
    n = tensor.cubical_extent
    if n < 2 or d < 2:
        raise InputError("need d >= 2 and n >= 2")
    by_subset = {}
    for axis in range(1, d + 1):
        others = [pos for pos in range(1, d + 1) if pos != axis]
        shape = tuple(n for _ in others)
        data = []
        for u in all_index_tuples(shape):
            total = Fraction(0)
            for mask in range(1 << (d - 1)):
                i = bin(mask).count("1") + 1
                x = [0] * d
                x[axis - 1] = 1
                for pos_idx, pos in enumerate(others):
                    x[pos - 1] = 1 if (mask >> pos_idx) & 1 else u[pos_idx]
                total += Fraction((-1) ** (i + 1), i) * tensor.at(tuple(x))
            data.append(total.numerator if total.denominator == 1 else total)
        by_subset[tuple(others)] = CostTensor(shape, tuple(data))
    candidate = Decomposition(
        tensor.dims,
        d - 1,
        tuple((Q, by_subset[Q]) for Q in axis_subsets(d, d - 1)),
    )
    return _verify_candidate(tensor, candidate)


def _verify_candidate(tensor: CostTensor, candidate: Decomposition) -> ConstructiveResult:
    rebuilt = reconstruct(candidate)
    if rebuilt.data == tuple(tensor.data):
        return ConstructiveResult(decomposition=candidate)
    for t, a, b in zip(all_index_tuples(tensor.dims), tensor.data, rebuilt.data):
        if a != b:
            return ConstructiveResult(mismatch=t)
    raise AssertionError("unreachable: tensors differ but no entry does")


def savs_dimension(d: int, s: int, n: int) -> int:
    """dim of the s-sum-decomposable space: Σ_{k<=s} C(d,k)(n-1)^k.

    The space is the direct sum of the ANOVA subspaces W_U, |U| <= s, and
    W_U has dimension (n-1)^|U| (functions of the coordinates in U whose
    average over any one of them is zero).
    """
    _check_parameters(d, s)
    if n < 2:
        raise InputError("dimension formulas require n >= 2")
    return sum(comb(d, k) * (n - 1) ** k for k in range(s + 1))


def savs_generator_matrix(d: int, s: int, n: int) -> ExactMatrix:
    """0-1 matrix whose rows span the s-sum-decomposable space.

    One row per subset Q and per pattern k: the indicator of all tuples t
    with h_Q(t) = k, flattened row-major.  Its exact rank must equal
    `savs_dimension(d, s, n)`.
    """
    _check_parameters(d, s)
    if n < 2:
        raise InputError("generator matrix requires n >= 2")
    dims = (n,) * d
    N = prod(dims)
    rows = []
    for Q in axis_subsets(d, s):
        free = [pos for pos in range(1, d + 1) if pos not in Q]
        for k in all_index_tuples(tuple(n for _ in Q)):
            row = [0] * N
            for rest in all_index_tuples(tuple(n for _ in free)):
                t = [0] * d
                for qi, q in enumerate(Q):
                    t[q - 1] = k[qi]
                for fi, f in enumerate(free):
                    t[f - 1] = rest[fi]
                row[flatten_index(tuple(t), dims)] = 1
            rows.append(row)
    return ExactMatrix.from_rows(rows)
