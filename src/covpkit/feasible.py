"""Feasible-solution enumeration for the (d,s) assignment problem.

Axial solutions are tuples of permutations, planar solutions are Latin
hypercubes, s=2 solutions are tuples of mutually orthogonal Latin squares,
and the general case is an index-1 orthogonal array search.  The four
searches are generator cores behind one stream, `iter_solutions`, which
counts nodes and solutions against one `SearchBudget`; the ``enumerate_*``
functions collect that stream into lists.  All streams are deterministic and
duplicate-free; bounded searches report whether the tree was exhausted, and
infeasibility is only ever claimed on a complete search.

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

from .errors import InputError
from .exact import CostTensor, Scalar
from .savs import axis_subsets, project

DEFAULT_MAX_NODES = 5_000_000
DEFAULT_MAX_SOLUTIONS = 1_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps on node expansions and emitted solutions.  Reaching either one
    stops the search and marks it incomplete."""

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


class _OutOfNodes(Exception):
    """Raised inside a search core when the node budget is spent."""


class SolutionStream:
    """One budgeted depth-first search, consumed by iterating over it.

    Each item is one feasible solution as a list of index tuples, in the
    canonical order of its search core; nothing is collected.  ``nodes``
    counts node expansions and ``count`` the solutions yielded so far.
    ``complete`` turns True only when the iteration ends because the whole
    tree was visited: a spent node budget, reaching ``max_solutions``, or a
    consumer that stops early all leave it False.  The stream is single-pass.
    """

    __slots__ = ("d", "s", "n", "nodes", "count", "complete", "_limit", "_items")

    def __init__(self, core, d, s, n, budget, reduced):
        budget = budget or SearchBudget.default()
        self.d, self.s, self.n = d, s, n
        self.nodes = 0
        self.count = 0
        self.complete = False
        self._limit = budget.max_nodes
        self._items = self._run(core(self.tick, d, s, n, reduced), budget.max_solutions)

    def __iter__(self):
        return self._items

    def tick(self) -> None:
        """Count one node expansion; ends the search past the node budget."""
        self.nodes += 1
        if self.nodes > self._limit:
            raise _OutOfNodes

    def _run(self, solutions, cap):
        try:
            for tuples in solutions:
                self.count += 1
                yield tuples
                if self.count >= cap:
                    return
        except _OutOfNodes:
            return
        self.complete = True


# Search cores: generators of index-tuple lists that call ``tick`` once per
# node.  Each one fixes its first n cells to the reduced tuples when asked.


def _axial_core(tick, d, s, n, reduced):
    # permutation tuples (phi_2..phi_d) in lexicographic order; the solution
    # is {(i, phi_2(i), ..., phi_d(i))}
    base = range(1, n + 1)
    perms = [tuple(base)] if reduced else list(permutations(base))
    for phis in product(perms, repeat=d - 1):
        tick()
        yield list(zip(base, *phis))


def _planar_core(tick, d, s, n, reduced):
    # a Latin hypercube f on {1..n}^(d-1), cell by cell in row-major order
    cells = list(product(range(n), repeat=d - 1))
    heads = [tuple(x + 1 for x in cell) for cell in cells]
    choices = [range(1, n + 1)] * len(cells)
    if reduced:
        choices[:n] = [(j,) for j in range(1, n + 1)]
    used = [dict() for _ in range(d - 1)]
    lines = [
        [used[a].setdefault(cell[:a] + cell[a + 1 :], [False] * (n + 1)) for a in range(d - 1)]
        for cell in cells
    ]
    values = [0] * len(cells)

    def bt(ci):
        if ci == len(cells):
            yield [head + (v,) for head, v in zip(heads, values)]
            return
        cell_lines = lines[ci]
        for v in choices[ci]:
            tick()
            for line in cell_lines:
                if line[v]:
                    break
            else:
                for line in cell_lines:
                    line[v] = True
                values[ci] = v
                yield from bt(ci + 1)
                for line in cell_lines:
                    line[v] = False

    return bt(0)


def _mols_core(tick, d, s, n, reduced):
    # d-2 mutually orthogonal Latin squares, cell by cell in row-major order
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

    def bt(ci):
        if ci == len(cells):
            yield [
                (r + 1, c + 1) + tuple(grid[k][r][c] for k in range(K))
                for r, c in cells
            ]
            return
        r, c = cells[ci]
        for vals in choices[ci]:
            tick()
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
            yield from bt(ci + 1)
            for k, v in enumerate(vals):
                row_used[k][r][v] = col_used[k][c][v] = False
            for a, b in pairs:
                pair_used[(a, b)][vals[a]][vals[b]] = False

    return bt(0)


def _orthogonal_array_core(tick, d, s, n, reduced):
    # one value vector per pattern of the first s axes
    cells = list(product(range(1, n + 1), repeat=s))
    choices = [list(product(range(1, n + 1), repeat=d - s))] * len(cells)
    if reduced:
        choices[:n] = [[(j,) * (d - s)] for j in range(1, n + 1)]
    constraint_sets = [Q for Q in axis_subsets(d, s) if Q != tuple(range(1, s + 1))]
    used = {Q: set() for Q in constraint_sets}
    chosen = [None] * len(cells)

    def bt(ci):
        if ci == len(cells):
            yield [head + tail for head, tail in zip(cells, chosen)]
            return
        head = cells[ci]
        for tail in choices[ci]:
            tick()
            t = head + tail
            keys = [(Q, project(t, Q)) for Q in constraint_sets]
            if any(key in used[Q] for Q, key in keys):
                continue
            for Q, key in keys:
                used[Q].add(key)
            chosen[ci] = tail
            yield from bt(ci + 1)
            for Q, key in keys:
                used[Q].discard(key)

    return bt(0)


def iter_solutions(
    d: int, s: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> SolutionStream:
    """Stream every (d,s) solution as a list of index tuples, one at a time.

    Dispatches to the axial search when s = 1, the Latin-hypercube search
    when s = d-1, the orthogonal Latin squares search when s = 2, and the
    index-1 orthogonal array search otherwise; the order is that of
    `enumerate_general`.  No solution is kept once the consumer moves on, so
    a consumer that stops early (the brute-force check at its first unequal
    value) pays only for the nodes it visited.  ``nodes``, ``count`` and
    ``complete`` are final once the stream is exhausted; ``budget`` caps
    both.  With ``reduced`` only the orbit representatives are streamed,
    the solutions containing (1,…,1,j,j,…,j) for every j.
    """
    if not 0 < s < d:
        raise InputError(f"need 0 < s < d, got s={s}, d={d}")
    if n < 1:
        raise InputError("need n >= 1")
    if s == 1:
        core = _axial_core
    elif s == d - 1:
        core = _planar_core
    elif s == 2:
        core = _mols_core
    else:
        core = _orthogonal_array_core
    return SolutionStream(core, d, s, n, budget, reduced)


def _collect(stream: SolutionStream) -> EnumerationResult:
    d, s, n = stream.d, stream.s, stream.n
    solutions = [FeasibleSolution.build(d, s, n, tuples) for tuples in stream]
    return EnumerationResult(d, s, n, solutions, stream.complete, stream.nodes)


def enumerate_axial(
    d: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All (n!)^(d-1) axial solutions, ordered by their permutation tuples.

    With ``reduced`` only the orbit representative is emitted: for s = 1 it
    is the diagonal {(j,…,j)}, the one solution of the reduced search.
    """
    if d < 2 or n < 1:
        raise InputError("axial enumeration needs d >= 2 and n >= 1")
    return _collect(SolutionStream(_axial_core, d, 1, n, budget, reduced))


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
    return _collect(SolutionStream(_planar_core, d, d - 1, n, budget, reduced))


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
    return _collect(SolutionStream(_mols_core, d, 2, n, budget, reduced))


def enumerate_general(
    d: int, s: int, n: int, budget: SearchBudget | None = None, reduced: bool = False
) -> EnumerationResult:
    """All (d,s) solutions of `iter_solutions`, collected into a list.

    With ``reduced`` only the orbit representatives are emitted, the
    solutions containing (1,…,1,j,j,…,j) for every j; there are
    count / (n!)^(d-s) of them.
    """
    return _collect(iter_solutions(d, s, n, budget, reduced))


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
