"""Constant-objective-value verdicts and COVP-space analysis.

Provides the brute-force equality check, the fast axial and planar
characterizations with explicit two-solution witnesses, incidence matrices
of solution sets, the dimension of the space of constant-value cost arrays
(by an ANOVA order test on orbit representatives), the recursive block
matrices behind the planar n=3 rank law, and the fixed four-dimensional
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial

from .errors import BudgetExceeded, InputError
from .exact import CostTensor, ExactMatrix, Scalar, determinant, flatten_index, rank
from .feasible import (
    FeasibleSolution,
    SearchBudget,
    enumerate_general,
    iter_solutions,
    objective,
    planar_corner_solution_pair,
    relabel_solution,
)
from .savs import (
    ConstructiveResult,
    decompose,
    decompose_axial_constructive,
    savs_dimension,
)


@dataclass(frozen=True)
class CovpVerdict:
    """Outcome of a constant-objective-value check.

    ``vacuous`` marks instances with a complete search and no feasible
    solution: the property holds, but emptily, and no common value exists.
    ``provisional`` marks verdicts reached under an exhausted budget.
    """

    holds: bool
    common_value: Scalar | None = None
    witness: tuple[FeasibleSolution, FeasibleSolution] | None = None
    witness_values: tuple[Scalar, Scalar] | None = None
    vacuous: bool = False
    provisional: bool = False
    method: str = ""
    mismatch: tuple[int, ...] | None = None
    detail: str | None = None


def _first_unequal(tensor: CostTensor, stream):
    """Value the streamed solutions in order, straight from ``tensor.data``,
    and stop at the first whose value differs from the first one's.

    Returns (first tuples, first value, unequal tuples or None); the first
    two are None on an empty stream.  The search cores only build
    coordinates in 1..n, so index tuples go to a lookup built once from the
    row-major data and are not validated one by one.
    """
    n = tensor.cubical_extent
    value_of = dict(zip(product(range(1, n + 1), repeat=tensor.d), tensor.data)).__getitem__
    first = head = None
    for tuples in stream:
        value = sum(map(value_of, tuples))
        if first is None:
            first, head = tuples, value
        elif value != head:
            return first, head, tuples
    return first, head, None


def _pair_verdict(tensor, stream, first, other, method, **extra) -> CovpVerdict:
    d, s, n = stream.d, stream.s, stream.n
    pair = (FeasibleSolution.build(d, s, n, first), FeasibleSolution.build(d, s, n, other))
    return CovpVerdict(
        holds=False,
        witness=pair,
        witness_values=(objective(tensor, pair[0]), objective(tensor, pair[1])),
        method=method,
        **extra,
    )


def covp_check_bruteforce(
    tensor: CostTensor,
    s: int,
    budget: SearchBudget | None = None,
) -> CovpVerdict:
    """Stream the feasible solutions and compare their values directly.

    Solutions come one at a time from `iter_solutions` and none is kept
    beyond the first: the check stops at the first solution whose value
    differs from the first solution's, and only then builds the two
    witness solutions (the first unequal pair in canonical order) and
    recomputes their values with `objective`.  "holds" needs the whole
    stream; under an exhausted budget it is marked provisional.
    """
    d = tensor.d
    n = tensor.cubical_extent
    if not 0 < s < d:
        raise InputError(f"need 0 < s < d, got s={s}, d={d}")
    stream = iter_solutions(d, s, n, budget)
    first, value, other = _first_unequal(tensor, stream)
    if other is not None:
        return _pair_verdict(tensor, stream, first, other, "brute-force")
    if first is None:
        if stream.complete:
            return CovpVerdict(
                holds=True, vacuous=True, method="brute-force",
                detail="no feasible solutions exist; the property holds emptily",
            )
        return CovpVerdict(
            holds=True, provisional=True, method="brute-force",
            detail="no solutions found before the budget ran out",
        )
    return CovpVerdict(
        holds=True,
        common_value=value,
        provisional=not stream.complete,
        method="brute-force",
    )


def _diagonal_axial_solution(d: int, n: int) -> FeasibleSolution:
    return FeasibleSolution.build(d, 1, n, [(i,) * d for i in range(1, n + 1)])


def _cyclic_planar_solution(d: int, n: int) -> FeasibleSolution:
    tuples = []
    for head in product(range(1, n + 1), repeat=d - 1):
        last = (sum(x - 1 for x in head)) % n + 1
        tuples.append(head + (last,))
    return FeasibleSolution.build(d, d - 1, n, tuples)


def _completion_tuples(d: int, n: int, t, u) -> list[tuple[int, ...]]:
    # t and u disagree in every coordinate; the j-th filler takes the j-th
    # smallest unused value per coordinate, giving a permutation columnwise.
    rests = []
    for pos in range(d):
        rests.append(sorted(set(range(1, n + 1)) - {t[pos], u[pos]}))
    return [tuple(rests[pos][j] for pos in range(d)) for j in range(n - 2)]


def _axial_exchange_witness(tensor: CostTensor, d: int, n: int):
    """Search the exchange identities implied by the constant-value property.

    Any two everywhere-disagreeing tuples t, u can be swapped against a
    crossover pair (v, v̄) inside otherwise identical solutions, so the pair
    sums must match.  Anchored identities (u = all-ones, singleton crossover)
    are tried first; they are the classical construction.  For n >= 3 a
    non-decomposable tensor always violates one of these identities.
    """
    ones = (1,) * d
    # anchored scan
    for t in product(range(2, n + 1), repeat=d):
        s_pair = tensor.at(t) + tensor.at(ones)
        for k in range(d):
            v = tuple(t[pos] if pos == k else 1 for pos in range(d))
            vbar = tuple(1 if pos == k else t[pos] for pos in range(d))
            if s_pair != tensor.at(v) + tensor.at(vbar):
                return t, ones, v, vbar
    # general scan
    tuples = list(product(range(1, n + 1), repeat=d))
    for i, t in enumerate(tuples):
        for u in tuples[i + 1 :]:
            if any(a == b for a, b in zip(t, u)):
                continue
            s_pair = tensor.at(t) + tensor.at(u)
            for mask in range(1, 2**d - 1):
                v = tuple(t[p] if (mask >> p) & 1 else u[p] for p in range(d))
                vbar = tuple(u[p] if (mask >> p) & 1 else t[p] for p in range(d))
                if s_pair != tensor.at(v) + tensor.at(vbar):
                    return t, u, v, vbar
    return None


def covp_check_axial_fast(tensor: CostTensor) -> CovpVerdict:
    """Decide the axial (s=1) property without enumerating solutions.

    For n >= 3 the closed-form split decides membership in the axial
    sum-decomposable space, which is exactly the constant-value property;
    on failure an explicit pair of solutions differing in one exchange is
    produced.  For n = 2 the property is strictly weaker than
    decomposability, so the complement-pair sums are compared instead.
    """
    d = tensor.d
    n = tensor.cubical_extent
    if d < 2 or n < 2:
        raise InputError("need d >= 2 and n >= 2")

    if n == 2:
        # solutions are exactly the complement pairs {t, t̄} with t_1 = 1
        pairs = []
        for tail in product((1, 2), repeat=d - 1):
            t = (1,) + tail
            tbar = tuple(3 - x for x in t)
            pairs.append((t, tbar, tensor.at(t) + tensor.at(tbar)))
        head = pairs[0][2]
        for t, tbar, value in pairs[1:]:
            if value != head:
                f0 = FeasibleSolution.build(d, 1, 2, [pairs[0][0], pairs[0][1]])
                f1 = FeasibleSolution.build(d, 1, 2, [t, tbar])
                return CovpVerdict(
                    holds=False, witness=(f0, f1),
                    witness_values=(head, value), method="axial-fast",
                )
        return CovpVerdict(
            holds=True, common_value=head, method="axial-fast",
            detail="n=2: all complement-pair sums agree",
        )

    split: ConstructiveResult = decompose_axial_constructive(tensor)
    if split.ok:
        return CovpVerdict(
            holds=True,
            common_value=objective(tensor, _diagonal_axial_solution(d, n)),
            method="axial-fast",
        )
    found = _axial_exchange_witness(tensor, d, n)
    if found is None:
        # cannot happen for n >= 3: the exchange identities cut out exactly
        # the decomposable space; keep a hard failure rather than guessing
        raise AssertionError("reconstruction failed but no exchange identity did")
    t, u, v, vbar = found
    filler = _completion_tuples(d, n, t, u)
    f1 = FeasibleSolution.build(d, 1, n, [t, u] + filler)
    f2 = FeasibleSolution.build(d, 1, n, [v, vbar] + filler)
    return CovpVerdict(
        holds=False,
        witness=(f1, f2),
        witness_values=(objective(tensor, f1), objective(tensor, f2)),
        method="axial-fast",
        mismatch=split.mismatch,
    )


def covp_check_planar_p2(tensor: CostTensor) -> CovpVerdict:
    """Decide the planar (s = d-1) property via the size-2 subproblem test.

    Checks, for every box {1,i_1}x...x{1,i_d} with i_j >= 2, that the two
    feasible solutions of the induced size-2 subproblem have equal value,
    i.e. that the alternating corner sum vanishes.  This is equivalent to
    the constant-value property for every n.
    """
    d = tensor.d
    n = tensor.cubical_extent
    if d < 2 or n < 2:
        raise InputError("need d >= 2 and n >= 2")
    for box in product(range(2, n + 1), repeat=d):
        acc = 0
        for mask in range(1 << d):
            x = tuple(1 if (mask >> p) & 1 else box[p] for p in range(d))
            term = tensor.at(x)
            acc = acc + term if bin(mask).count("1") % 2 == 0 else acc - term
        if acc != 0:
            return _planar_failure_verdict(tensor, d, n, box, acc)
    return CovpVerdict(
        holds=True,
        common_value=objective(tensor, _cyclic_planar_solution(d, n)),
        method="planar-p2",
    )


def _planar_failure_verdict(tensor, d, n, box, violation) -> CovpVerdict:
    if n == 3:
        # no order-3 Latin square has a 2x2 subsquare, so the lifting
        # construction cannot work; with only 3·2^(d-1) solutions brute
        # force is cheap
        stream = iter_solutions(d, d - 1, n)
        first, _, other = _first_unequal(tensor, stream)
        if other is None:
            raise AssertionError("size-2 test failed but all objectives agree")
        return _pair_verdict(tensor, stream, first, other, "planar-p2", mismatch=box)
    pair = planar_corner_solution_pair(d, n)
    relabel = [{2: box[pos], box[pos]: 2} for pos in range(d)]
    f1 = relabel_solution(pair[0], relabel)
    f2 = relabel_solution(pair[1], relabel)
    v1, v2 = objective(tensor, f1), objective(tensor, f2)
    if v1 == v2:
        raise AssertionError("lifted box witness does not separate values")
    return CovpVerdict(
        holds=False, witness=(f1, f2), witness_values=(v1, v2),
        method="planar-p2", mismatch=box,
    )


@dataclass(frozen=True)
class IncidenceMatrix:
    """0-1 matrix of solutions (rows) against index tuples (columns)."""

    matrix: ExactMatrix
    row_index: tuple[FeasibleSolution, ...]
    dims: tuple[int, ...]


def build_incidence(solutions, d: int, n: int) -> IncidenceMatrix:
    """Incidence of the given solutions over the row-major tuple order."""
    dims = (n,) * d
    N = n**d
    rows = []
    for sol in solutions:
        if (sol.d, sol.n) != (d, n):
            raise InputError("solutions disagree on (d, n)")
        row = [0] * N
        for t in sol.tuples:
            row[flatten_index(t, dims)] = 1
        rows.append(tuple(row))
    return IncidenceMatrix(
        matrix=ExactMatrix(len(rows), N, tuple(rows)),
        row_index=tuple(solutions),
        dims=dims,
    )


@dataclass(frozen=True)
class OrderRefutation:
    """A checkable proof that no W_U with |U| = ``order`` lies in the
    constant-value space.

    ``test_array`` is an integer array in W_U for U = {1..order}: the top-order
    interaction of the first solution's U-marginal count table, broadcast to
    the grid.  The second solution is the first relabeled by
    ``transposition`` = (axis, a, b), which swaps the labels a and b on that
    axis; ``values`` are the two objective values on ``test_array``, which
    differ by the strict Cauchy–Schwarz inequality.
    """

    order: int
    pair: tuple[FeasibleSolution, FeasibleSolution]
    test_array: CostTensor
    transposition: tuple[int, int, int]
    values: tuple[Scalar, Scalar]


@dataclass(frozen=True)
class ConstantValueOrders:
    """The ANOVA orders k whose subspaces W_U (|U| = k) make up the
    constant-value space.

    ``kept`` lists the proven orders: every k <= s, and each k > s that every
    representative of a complete reduced enumeration passed.  ``refuted``
    carries one artifact per refuted order.  On an incomplete search the
    orders > s in neither list are undecided and there is no dimension.
    """

    d: int
    s: int
    n: int
    kept: tuple[int, ...]
    refuted: tuple[OrderRefutation, ...]
    representatives: int
    complete: bool

    @property
    def vacuous(self) -> bool:
        return self.complete and self.representatives == 0

    @property
    def solution_count(self) -> int:
        """Solutions covered: each representative stands for (n!)^(d-s)."""
        return self.representatives * factorial(self.n) ** (self.d - self.s)

    @property
    def dimension(self) -> int | None:
        if not self.complete:
            return None
        return sum(comb(self.d, k) * (self.n - 1) ** k for k in self.kept)


def _marginal_counts(sol: FeasibleSolution, k: int) -> CostTensor:
    """How often each pattern of the first k coordinates occurs in sol."""
    dims = (sol.n,) * k
    counts = [0] * sol.n**k
    for t in sol.tuples:
        counts[flatten_index(t[:k], dims)] += 1
    return CostTensor(dims, tuple(counts))


def _moving_transposition(w, k: int, n: int) -> tuple[int, int, int]:
    # transpositions (1 b) generate S_n, so if none on any axis moved w it
    # would be invariant, hence constant along every axis, hence 0
    for axis in range(k):
        stride = n ** (k - 1 - axis)
        for b in range(2, n + 1):
            shift = (b - 1) * stride
            for i in range(len(w)):
                if (i // stride) % n == 0 and w[i] != w[i + shift]:
                    return axis + 1, 1, b
    raise AssertionError("nonzero interaction invariant under every transposition")


def _refute_order(sol: FeasibleSolution, k: int, w) -> OrderRefutation:
    d, n = sol.d, sol.n
    axis, a, b = _moving_transposition(w, k, n)
    relabel = [{a: b, b: a} if pos == axis - 1 else {} for pos in range(d)]
    moved = relabel_solution(sol, relabel)
    repeat = n ** (d - k)
    x = CostTensor((n,) * d, tuple(v for v in w for _ in range(repeat)))
    values = (objective(x, sol), objective(x, moved))
    if values[0] == values[1]:
        raise AssertionError("transposed solution does not separate the values")
    return OrderRefutation(k, (sol, moved), x, (axis, a, b), values)


def constant_value_orders(
    d: int, s: int, n: int, budget: SearchBudget | None = None
) -> ConstantValueOrders:
    """Which ANOVA subspaces W_U lie in the constant-value space V.

    V is invariant under relabelings, so it is a direct sum of whole W_U
    (Hoeffding 1948), and W_U ⊆ V exactly when the U-marginal count table of
    every feasible solution has no top-order interaction.  That property is
    the same on a relabeling orbit and, by the symmetry of the axes, for
    every U of one size.  So the test runs on U = {1..k}, one per order
    k > s, over the orbit representatives of `enumerate_general` with
    ``reduced=True``; `decompose` at s = k-1 on the count table decides it,
    and its witness is the test array of the refutation.
    """
    enum = enumerate_general(d, s, n, budget, reduced=True)
    kept = list(range(s + 1))
    refuted = []
    # at n = 1 every W_U with U nonempty is zero and lies in V trivially
    pending = list(range(s + 1, d + 1))
    for sol in enum.solutions if n > 1 else ():
        for k in list(pending):
            witness = decompose(_marginal_counts(sol, k), k - 1).witness
            if witness is not None:
                refuted.append(_refute_order(sol, k, witness))
                pending.remove(k)
        if not pending:
            break
    if enum.complete:
        kept += pending
    return ConstantValueOrders(
        d, s, n, tuple(kept), tuple(refuted), enum.count, enum.complete
    )


def covp_space_dimension(
    d: int, s: int, n: int, budget: SearchBudget | None = None
) -> int:
    """Dimension of the space of cost arrays on which every feasible
    solution has the same value: Σ C(d,k)(n-1)^k over the orders k kept by
    `constant_value_orders`.  No solution set is materialized beyond one
    representative per relabeling orbit, and no rank is taken.  Needs a
    complete reduced enumeration; with no feasible solutions at all, every
    order is kept and n^d is returned."""
    orders = constant_value_orders(d, s, n, budget)
    if not orders.complete:
        raise BudgetExceeded(
            f"enumeration of ({d},{s})-AP at n={n} exceeded the budget"
        )
    return orders.dimension


# ---------------------------------------------------------------------------
# block-recursive incidence matrices for the planar problem at n = 3


_A0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_B0 = ((0, 1, 0), (1, 0, 0), (1, 0, 0))
_C0 = ((0, 0, 1), (0, 0, 1), (0, 1, 0))


def _hcat(*blocks):
    return tuple(sum(row_blocks, ()) for row_blocks in zip(*blocks))


def _vcat(top, bottom):
    return top + bottom


def _block_level(k: int):
    A, B, C = _A0, _B0, _C0
    for _ in range(k):
        A, B, C = (
            _vcat(_hcat(A, B, C), _hcat(A, C, B)),
            _vcat(_hcat(B, C, A), _hcat(B, A, C)),
            _vcat(_hcat(C, A, B), _hcat(C, B, A)),
        )
    return A, B, C


def build_Md(d: int) -> ExactMatrix:
    """Incidence matrix of the planar problem at n = 3, built by the block
    recursion; 3·2^(d-1) rows by 3^d columns.  Equals the incidence of
    `enumerate_planar(d, 3)` up to row order."""
    if d < 1:
        raise InputError("need d >= 1")
    A, _, _ = _block_level(d - 1)
    return ExactMatrix.from_rows(A)


_A0P = ((1, 0), (0, 1))
_B0P = ((0, 1), (1, 0))
_C0P = ((0, 0), (0, 0))


def build_reduced(k: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The 2^(k+1)-square reduced blocks (A'_k, B'_k, C'_k)."""
    if k < 0:
        raise InputError("need k >= 0")
    A, B, C = _A0P, _B0P, _C0P
    for _ in range(k):
        A, B, C = (
            _vcat(_hcat(A, B), _hcat(A, C)),
            _vcat(_hcat(B, C), _hcat(B, A)),
            _vcat(_hcat(C, A), _hcat(C, B)),
        )
    return tuple(ExactMatrix.from_rows(M) for M in (A, B, C))


def reduced_kept_indices(k: int) -> tuple[list[int], list[int]]:
    """Row/column indices (0-based) of the full blocks that survive the
    reduction to the primed blocks, applied recursively level by level."""
    rows, cols = [0, 1], [0, 1]
    for level in range(1, k + 1):
        rows = rows + [3 * 2 ** (level - 1) + r for r in rows]
        cols = cols + [3**level + c for c in cols]
    return rows, cols


def build_M_prime(d: int) -> ExactMatrix:
    """The (2^d + 1)-square submatrix certifying rank(M_d) >= 2^d + 1:
    the primed rows/columns plus the reinserted third row and column."""
    return _primed_submatrix(build_Md(d), d)


def _primed_submatrix(M: ExactMatrix, d: int) -> ExactMatrix:
    rows, cols = reduced_kept_indices(d - 1)
    rows = sorted(rows + [2])
    cols = sorted(cols + [2])
    entries = tuple(tuple(M.entries[r][c] for c in cols) for r in rows)
    return ExactMatrix.from_rows(entries)


@dataclass(frozen=True)
class DetSequence:
    """Determinants of the reduced blocks: z_k = det A'_k,
    u_k = det(C'_k - B'_k), v_k = det(B'_k + C'_k - 2A'_k)."""

    k_max: int
    z: tuple[Scalar, ...]
    u: tuple[Scalar, ...]
    v: tuple[Scalar, ...]


def _mat_combine(coeffs_mats) -> ExactMatrix:
    first = coeffs_mats[0][1]
    n = first.rows
    rows = []
    for i in range(n):
        rows.append(
            tuple(
                sum(c * M.entries[i][j] for c, M in coeffs_mats)
                for j in range(n)
            )
        )
    return ExactMatrix.from_rows(rows)


def det_sequence(k_max: int) -> DetSequence:
    """Direct (elimination-based) determinant sequence up to k_max."""
    zs, us, vs = [], [], []
    for k in range(k_max + 1):
        A, B, C = build_reduced(k)
        zs.append(determinant(A))
        us.append(determinant(_mat_combine([(1, C), (-1, B)])))
        vs.append(determinant(_mat_combine([(1, B), (1, C), (-2, A)])))
    return DetSequence(k_max, tuple(zs), tuple(us), tuple(vs))


@dataclass(frozen=True)
class RankMdReport:
    d: int
    rank: int
    expected_rank: int
    rank_ok: bool
    sequence: DetSequence
    recursion_ok: bool
    eliminated_recursion_ok: bool
    z_nonzero: bool
    z_magnitude_ok: bool
    u_magnitude_ok: bool
    m_prime_det: Scalar
    m_prime_matches_z: bool
    alt_exponent_value: int
    alt_exponent_matches: bool


def verify_rank_Md(d: int, k_max: int | None = None) -> RankMdReport:
    """Exact rank of M_d against 2^d + 1, plus the determinant recursion.

    The sequence is computed twice (direct elimination and the recursion
    z_k = z_(k-1)·u_(k-1), u_k = u_(k-1)·v_(k-1), v_k = 3^(2^k)·v_(k-1)·u_(k-1))
    and both routes must agree.  det M'_d is compared against z_(d-1); the
    alternative closed form 3^(d·2^(d+1)+1) is evaluated and recorded but not
    asserted, since it does not solve the recursion (see the repro report).
    """
    if d < 1:
        raise InputError("need d >= 1")
    if k_max is None:
        k_max = max(d - 1, 4)
    k_max = min(k_max, 6)
    seq = det_sequence(k_max)
    recursion_ok = all(
        seq.z[k] == seq.z[k - 1] * seq.u[k - 1]
        and seq.u[k] == seq.u[k - 1] * seq.v[k - 1]
        and seq.v[k] == 3 ** (2**k) * seq.v[k - 1] * seq.u[k - 1]
        for k in range(1, k_max + 1)
    )
    # the eliminated form v_k = 3^(2^k)·u_k is valid from k = 1 on, so the
    # squared recursion it induces holds in value only from k = 2 (at k = 1
    # squaring loses the sign of u_0: the true u_1 is negative)
    eliminated_ok = all(
        seq.u[k] == 3 ** (2 ** (k - 1)) * seq.u[k - 1] ** 2
        for k in range(2, k_max + 1)
    ) and (k_max < 1 or abs(seq.u[1]) == 3 * abs(seq.u[0]) ** 2)
    z_magnitude_ok = all(
        abs(seq.z[k]) == 3 ** ((k - 2) * 2 ** (k - 1) + 1)
        for k in range(2, k_max + 1)
    )
    u_magnitude_ok = all(
        abs(seq.u[k]) == 3 ** (k * 2 ** (k - 1)) for k in range(2, k_max + 1)
    )
    M = build_Md(d)
    r = rank(M)
    m_prime_det = determinant(_primed_submatrix(M, d))
    z_prev = seq.z[d - 1] if d - 1 <= k_max else None
    alt_value = 3 ** (d * 2 ** (d + 1) + 1)
    return RankMdReport(
        d=d,
        rank=r,
        expected_rank=2**d + 1,
        rank_ok=r == 2**d + 1,
        sequence=seq,
        recursion_ok=recursion_ok,
        eliminated_recursion_ok=eliminated_ok,
        z_nonzero=all(z != 0 for z in seq.z),
        z_magnitude_ok=z_magnitude_ok,
        u_magnitude_ok=u_magnitude_ok,
        m_prime_det=m_prime_det,
        m_prime_matches_z=(z_prev is not None and m_prime_det == z_prev),
        alt_exponent_value=alt_value,
        alt_exponent_matches=abs(m_prime_det) == alt_value,
    )


_COUNTEREXAMPLE_ONES = (
    (1, 1, 1, 2),
    (1, 1, 2, 1),
    (1, 2, 1, 1),
    (1, 2, 2, 2),
    (2, 1, 1, 1),
    (2, 1, 2, 2),
    (2, 2, 1, 2),
    (2, 2, 2, 1),
    (3, 3, 3, 3),
)


def counterexample_array() -> CostTensor:
    """The fixed 3x3x3x3 array with constant value 1 on all 72 solutions of
    the (4,2) problem that is nevertheless not 2-sum-decomposable."""
    return CostTensor.from_entries(
        (3, 3, 3, 3), {t: 1 for t in _COUNTEREXAMPLE_ONES}
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of the constant-value space with the decomposable space."""

    d: int
    s: int
    n: int
    solution_count: int
    complete: bool
    vacuous: bool
    covp_dim: int | None
    savs_dim: int
    equal: bool | None


def conjecture_experiment(
    d: int, s: int, n: int, budget: SearchBudget | None = None
) -> ConjectureReport:
    """Compare dim(constant-value space) with dim(decomposable space).

    Equality means decomposability characterizes the constant-value property
    at these parameters (the decomposable space is always contained in the
    constant-value space).  The constant-value dimension comes from the
    order test of `constant_value_orders` on one solution per relabeling
    orbit, with no rank; ``solution_count`` is the number of representatives
    times the orbit size (n!)^(d-s).  Incomplete enumerations yield an
    inconclusive report rather than a dimension.
    """
    orders = constant_value_orders(d, s, n, budget)
    savs = savs_dimension(d, s, n)
    count = orders.solution_count
    if not orders.complete:
        return ConjectureReport(d, s, n, count, False, False, None, savs, None)
    if orders.vacuous:
        return ConjectureReport(d, s, n, 0, True, True, None, savs, None)
    covp_dim = orders.dimension
    return ConjectureReport(
        d, s, n, count, True, False, covp_dim, savs, covp_dim == savs
    )
