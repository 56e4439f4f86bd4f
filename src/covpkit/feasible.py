"""Feasible-solution enumeration for the (d,s) assignment problem.

Axial solutions are tuples of permutations, planar solutions are Latin
hypercubes, s=2 solutions are tuples of mutually orthogonal Latin squares,
and the general case is an index-1 orthogonal array search.  All streams are
deterministic and duplicate-free; bounded searches report whether the tree
was exhausted, and infeasibility is only ever claimed on a complete search.

Relabeling the values of axes s+1..d maps solutions to solutions, and this
group of (n!)^(d-s) relabelings acts freely.  Each orbit has exactly one
*reduced* member: the one containing (1,…,1,j,j,…,j), with s-1 leading ones,
for every j.  Every enumerator takes ``reduced=True`` to emit only those
representatives; it fixes the first n cells of its search to them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import permutations, product
from math import prod

from .errors import InputError
from .exact import CostTensor, Scalar
from .savs import axis_subsets, project

DEFAULT_MAX_NODES = 5_000_000
DEFAULT_MAX_SOLUTIONS = 1_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps on node expansions and emitted solutions."""

    max_nodes: int = DEFAULT_MAX_NODES
    max_solutions: int = DEFAULT_MAX_SOLUTIONS

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_solutions <= 0:
            raise InputError("budget limits must be positive")

    @staticmethod
    def default() -> "SearchBudget":
        nodes = os.environ.get("COVPKIT_MAX_NODES")
        if nodes is not None:
            return SearchBudget(max_nodes=int(nodes))
        return SearchBudget()


@dataclass(frozen=True)
class FeasibleSolution:
    """A set of index tuples satisfying every (d,s) covering constraint."""

    d: int
    s: int
    n: int
    tuples: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(d: int, s: int, n: int, tuples) -> "FeasibleSolution":
        return FeasibleSolution(d, s, n, tuple(sorted(tuple(t) for t in tuples)))


@dataclass
class EnumerationResult:
    """Solutions in canonical order plus search accounting.

    ``complete`` is True only when the whole tree was visited, so a count of
    zero proves infeasibility exactly when ``complete`` holds.
    """

    d: int
    s: int
    n: int
    solutions: list[FeasibleSolution] = field(default_factory=list)
    complete: bool = True
    nodes: int = 0

    @property
    def count(self) -> int:
        return len(self.solutions)


def is_feasible_solution(sol: FeasibleSolution) -> bool:
    """Exact check of the covering constraints: |F| = n^s and every
    pattern of every s-subset of axes is hit exactly once."""
    d, s, n = sol.d, sol.s, sol.n
    if not 0 < s < d or n < 1:
        return False
    if len(sol.tuples) != n**s:
        return False
    for t in sol.tuples:
        if len(t) != d or any(not 1 <= x <= n for x in t):
            return False
    for Q in axis_subsets(d, s):
        seen = set()
        for t in sol.tuples:
            key = project(t, Q)
            if key in seen:
                return False
            seen.add(key)
        # n^s distinct patterns out of n^s possible: each hit exactly once.
    return True


def objective(tensor: CostTensor, sol: FeasibleSolution) -> Scalar:
    """Exact sum of the tensor over the solution's tuples."""
    if tensor.dims != (sol.n,) * sol.d:
        raise InputError(
            f"tensor shape {tensor.dims} does not match solution ({sol.d},{sol.n})"
        )
    return sum(tensor.at(t) for t in sol.tuples)


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit):
        self.nodes = 0
        self.limit = limit

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def enumerate_axial(
    d: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All (n!)^(d-1) axial solutions, ordered by their permutation tuples.

    With ``reduced`` only the orbit representative is emitted: for s = 1 it
    is the diagonal {(j,…,j)}, the one solution of the reduced search.
    """
    if d < 2 or n < 1:
        raise InputError("axial enumeration needs d >= 2 and n >= 1")
    budget = budget or SearchBudget.default()
    result = EnumerationResult(d=d, s=1, n=n)
    counter = _Counter(budget.max_nodes)
    base = range(1, n + 1)
    perms = [tuple(base)] if reduced else list(permutations(base))
    for phis in product(perms, repeat=d - 1):
        if not counter.tick() or len(result.solutions) >= budget.max_solutions:
            result.complete = False
            break
        tuples = [
            tuple([i] + [phi[i - 1] for phi in phis]) for i in base
        ]
        result.solutions.append(FeasibleSolution.build(d, 1, n, tuples))
    result.nodes = counter.nodes
    return result


def enumerate_planar(
    d: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All planar (s = d-1) solutions via Latin-hypercube backtracking.

    A solution is a table f on {1..n}^(d-1) in which fixing all arguments but
    one yields a permutation; tables are emitted in row-major lexicographic
    order of their values.  With ``reduced`` the first row f(1,…,1,j) = j is
    fixed, which leaves one table per orbit under relabeling its values.
    """
    if d < 2 or n < 1:
        raise InputError("planar enumeration needs d >= 2 and n >= 1")
    budget = budget or SearchBudget.default()
    result = EnumerationResult(d=d, s=d - 1, n=n)
    counter = _Counter(budget.max_nodes)

    cells = list(product(range(n), repeat=d - 1))
    choices = [range(1, n + 1)] * len(cells)
    if reduced:
        choices[:n] = [(j,) for j in range(1, n + 1)]
    naxes = d - 1
    used = [dict() for _ in range(naxes)]
    for cell in cells:
        for a in range(naxes):
            used[a].setdefault(cell[:a] + cell[a + 1 :], [False] * (n + 1))
    values = [0] * len(cells)
    aborted = False

    def bt(ci: int) -> None:
        nonlocal aborted
        if aborted:
            return
        if ci == len(cells):
            tuples = [
                tuple(x + 1 for x in cell) + (values[i],)
                for i, cell in enumerate(cells)
            ]
            result.solutions.append(FeasibleSolution.build(d, d - 1, n, tuples))
            if len(result.solutions) >= budget.max_solutions:
                aborted = True
            return
        cell = cells[ci]
        lines = [used[a][cell[:a] + cell[a + 1 :]] for a in range(naxes)]
        for v in choices[ci]:
            if not counter.tick():
                aborted = True
                return
            if any(line[v] for line in lines):
                continue
            for line in lines:
                line[v] = True
            values[ci] = v
            bt(ci + 1)
            for line in lines:
                line[v] = False
            if aborted:
                return

    bt(0)
    result.complete = not aborted
    result.nodes = counter.nodes
    return result


def enumerate_mols(
    d: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All s=2 solutions: (d-2)-tuples of mutually orthogonal Latin squares.

    Squares are filled cell by cell (row-major), candidate value vectors in
    lexicographic order, pruning on row/column usage per square and on code
    usage per square pair.  With ``reduced`` the first row of every square is
    fixed to 1..n, which leaves one tuple per orbit under relabeling the
    symbols of each square.
    """
    if d < 3 or n < 1:
        raise InputError("the s=2 search needs d >= 3 and n >= 1")
    budget = budget or SearchBudget.default()
    result = EnumerationResult(d=d, s=2, n=n)
    counter = _Counter(budget.max_nodes)

    K = d - 2
    cells = [(r, c) for r in range(n) for c in range(n)]
    choices = [list(product(range(1, n + 1), repeat=K))] * len(cells)
    if reduced:
        choices[:n] = [[(j,) * K] for j in range(1, n + 1)]
    row_used = [[[False] * (n + 1) for _ in range(n)] for _ in range(K)]
    col_used = [[[False] * (n + 1) for _ in range(n)] for _ in range(K)]
    pairs = [(a, b) for a in range(K) for b in range(a + 1, K)]
    pair_used = {p: [[False] * (n + 1) for _ in range(n + 1)] for p in pairs}
    grid = [[[0] * n for _ in range(n)] for _ in range(K)]
    aborted = False

    def bt(ci: int) -> None:
        nonlocal aborted
        if aborted:
            return
        if ci == len(cells):
            tuples = [
                (r + 1, c + 1) + tuple(grid[k][r][c] for k in range(K))
                for r, c in cells
            ]
            result.solutions.append(FeasibleSolution.build(d, 2, n, tuples))
            if len(result.solutions) >= budget.max_solutions:
                aborted = True
            return
        r, c = cells[ci]
        for vals in choices[ci]:
            if not counter.tick():
                aborted = True
                return
            ok = True
            for k, v in enumerate(vals):
                if row_used[k][r][v] or col_used[k][c][v]:
                    ok = False
                    break
            if ok:
                for a, b in pairs:
                    if pair_used[(a, b)][vals[a]][vals[b]]:
                        ok = False
                        break
            if not ok:
                continue
            for k, v in enumerate(vals):
                row_used[k][r][v] = col_used[k][c][v] = True
                grid[k][r][c] = v
            for a, b in pairs:
                pair_used[(a, b)][vals[a]][vals[b]] = True
            bt(ci + 1)
            for k, v in enumerate(vals):
                row_used[k][r][v] = col_used[k][c][v] = False
            for a, b in pairs:
                pair_used[(a, b)][vals[a]][vals[b]] = False
            if aborted:
                return

    bt(0)
    result.complete = not aborted
    result.nodes = counter.nodes
    return result


def enumerate_general(
    d: int, s: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All (d,s) solutions; dispatches to the specialized enumerators when
    s is 1, 2 or d-1 and otherwise backtracks over index-1 orthogonal
    arrays (one value vector per pattern of the first s axes).

    With ``reduced`` only the orbit representatives are emitted, the
    solutions containing (1,…,1,j,j,…,j) for every j; there are
    count / (n!)^(d-s) of them.
    """
    if not 0 < s < d:
        raise InputError(f"need 0 < s < d, got s={s}, d={d}")
    if n < 1:
        raise InputError("need n >= 1")
    if s == 1:
        return enumerate_axial(d, n, budget, reduced)
    if s == d - 1:
        return enumerate_planar(d, n, budget, reduced)
    if s == 2:
        return enumerate_mols(d, n, budget, reduced)
    budget = budget or SearchBudget.default()
    result = EnumerationResult(d=d, s=s, n=n)
    counter = _Counter(budget.max_nodes)

    cells = list(product(range(1, n + 1), repeat=s))
    choices = [list(product(range(1, n + 1), repeat=d - s))] * len(cells)
    if reduced:
        choices[:n] = [[(j,) * (d - s)] for j in range(1, n + 1)]
    constraint_sets = [Q for Q in axis_subsets(d, s) if Q != tuple(range(1, s + 1))]
    used = {Q: set() for Q in constraint_sets}
    chosen = [None] * len(cells)
    aborted = False

    def bt(ci: int) -> None:
        nonlocal aborted
        if aborted:
            return
        if ci == len(cells):
            tuples = [cells[i] + chosen[i] for i in range(len(cells))]
            result.solutions.append(FeasibleSolution.build(d, s, n, tuples))
            if len(result.solutions) >= budget.max_solutions:
                aborted = True
            return
        head = cells[ci]
        for tail in choices[ci]:
            if not counter.tick():
                aborted = True
                return
            t = head + tail
            keys = [(Q, project(t, Q)) for Q in constraint_sets]
            if any(key in used[Q] for Q, key in keys):
                continue
            for Q, key in keys:
                used[Q].add(key)
            chosen[ci] = tail
            bt(ci + 1)
            for Q, key in keys:
                used[Q].discard(key)
            if aborted:
                return

    bt(0)
    result.complete = not aborted
    result.nodes = counter.nodes
    return result


def latin_square_with_corner(n: int) -> list[list[int]] | None:
    """First (row-major backtracking) order-n Latin square whose upper-left
    2x2 block is [[1,2],[2,1]].  Returns None when none exists; order 3 is
    the only size >= 2 without one."""
    if n < 2:
        return None
    square = [[0] * n for _ in range(n)]
    fixed = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    col_used = [[False] * (n + 1) for _ in range(n)]
    cells = [(r, c) for r in range(n) for c in range(n)]

    def bt(ci: int) -> bool:
        if ci == len(cells):
            return True
        r, c = cells[ci]
        row_vals = square[r]
        candidates = (
            [fixed[(r, c)]] if (r, c) in fixed else range(1, n + 1)
        )
        for v in candidates:
            if v in row_vals[:c] or col_used[c][v]:
                continue
            square[r][c] = v
            col_used[c][v] = True
            if bt(ci + 1):
                return True
            square[r][c] = 0
            col_used[c][v] = False
        return False

    return square if bt(0) else None


def planar_corner_solution_pair(d: int, n: int):
    """Two planar solutions that differ exactly on the cube {1,2}^d.

    Each contains one of the two size-2 subproblem solutions (the parity
    classes of the cube); every element outside the cube is shared.  Exists
    for every n except 3, where no order-n Latin square has the required
    2x2 corner; returns None in that case.
    """
    if d < 2 or n < 2:
        raise InputError("corner pair needs d >= 2 and n >= 2")
    phi = latin_square_with_corner(n)
    if phi is None:
        return None
    solution = {(i, i) for i in range(1, n + 1)}
    for _ in range(d - 2):
        solution = {
            (i,) + a[:-1] + (phi[i - 1][a[-1] - 1],)
            for a in solution
            for i in range(1, n + 1)
        }
    cube_part = {t for t in solution if all(x in (1, 2) for x in t)}
    parity = sum(next(iter(cube_part))) % 2
    other = {
        t
        for t in product((1, 2), repeat=d)
        if sum(t) % 2 != parity
    }
    flipped = (solution - cube_part) | other
    if len(cube_part) != 2 ** (d - 1):
        raise AssertionError("corner construction lost cube elements")
    first = FeasibleSolution.build(d, d - 1, n, solution)
    second = FeasibleSolution.build(d, d - 1, n, flipped)
    return first, second


def relabel_solution(sol: FeasibleSolution, relabelings) -> FeasibleSolution:
    """Apply one value permutation per coordinate (dicts value -> value)."""
    tuples = [
        tuple(relabelings[pos].get(x, x) for pos, x in enumerate(t))
        for t in sol.tuples
    ]
    return FeasibleSolution.build(sol.d, sol.s, sol.n, tuples)


def solution_count_bound(d: int, s: int, n: int) -> int | None:
    """Closed-form solution counts where known: axial only."""
    if s == 1:
        return prod(range(1, n + 1)) ** (d - 1)
    return None
