"""Exact rational scalars, dense tensors and exact linear algebra.

Everything downstream (decompositions, incidence ranks, certificates) relies
on this module never rounding: scalars are ints or `fractions.Fraction`,
elimination is fraction-free over integers, and verdicts are equalities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from ._kernels import det_bareiss, echelon
from .errors import InputError

Scalar = int | Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value) -> Scalar:
    """Parse an exact scalar: int, Fraction, or a string ``p`` / ``p/q``.

    Floats and decimal-point strings are rejected: there is no safe way to
    know whether ``0.1`` meant 1/10.
    """
    if isinstance(value, bool):
        raise InputError("booleans are not rational scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value if value.denominator != 1 else value.numerator
    if isinstance(value, float):
        raise InputError(
            f"decimal literal {value!r} rejected: use an integer or 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputError(f"malformed rational literal {value!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise InputError(f"zero denominator in {value!r}")
            f = Fraction(int(num), int(den))
            return f if f.denominator != 1 else f.numerator
        return int(text)
    raise InputError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Scalar) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def flatten_index(coords: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Row-major offset of a 1-based index tuple (last index varies fastest)."""
    if len(coords) != len(dims):
        raise InputError(
            f"index tuple has {len(coords)} coordinates, tensor has {len(dims)}"
        )
    off = 0
    for pos, (c, extent) in enumerate(zip(coords, dims), start=1):
        if not 1 <= c <= extent:
            raise InputError(
                f"coordinate {pos} is {c}, outside 1..{extent}"
            )
        off = off * extent + (c - 1)
    return off


def unflatten_index(offset: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    if not 0 <= offset < prod(dims):
        raise InputError(f"offset {offset} outside tensor of shape {dims}")
    coords = []
    for extent in reversed(dims):
        coords.append(offset % extent + 1)
        offset //= extent
    return tuple(reversed(coords))


def all_index_tuples(dims: tuple[int, ...]):
    """All 1-based index tuples of a tensor in row-major order."""
    if not dims:
        yield ()
        return
    t = [1] * len(dims)
    while True:
        yield tuple(t)
        k = len(dims) - 1
        while k >= 0 and t[k] == dims[k]:
            t[k] = 1
            k -= 1
        if k < 0:
            return
        t[k] += 1


@dataclass(frozen=True)
class CostTensor:
    """Dense d-dimensional array of exact rationals, row-major flat storage."""

    dims: tuple[int, ...]
    data: tuple[Scalar, ...]

    def __post_init__(self):
        if any(extent < 1 for extent in self.dims):
            raise InputError(f"tensor extents must be positive, got {self.dims}")
        if len(self.data) != prod(self.dims):
            raise InputError(
                f"tensor of shape {self.dims} needs {prod(self.dims)} entries, "
                f"got {len(self.data)}"
            )

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def cubical_extent(self) -> int:
        """The common extent n; raises if the extents differ."""
        if len(set(self.dims)) != 1:
            raise InputError(f"tensor extents {self.dims} are not all equal")
        return self.dims[0]

    def at(self, coords: tuple[int, ...]) -> Scalar:
        return self.data[flatten_index(coords, self.dims)]

    def index_tuples(self):
        return all_index_tuples(self.dims)

    def __sub__(self, other: "CostTensor") -> "CostTensor":
        if self.dims != other.dims:
            raise InputError(f"shape mismatch: {self.dims} vs {other.dims}")
        return CostTensor(self.dims, tuple(a - b for a, b in zip(self.data, other.data)))

    @staticmethod
    def zeros(dims: tuple[int, ...]) -> "CostTensor":
        return CostTensor(tuple(dims), (0,) * prod(dims))

    @staticmethod
    def from_entries(dims, entries: dict[tuple[int, ...], Scalar]) -> "CostTensor":
        dims = tuple(dims)
        data = [0] * prod(dims)
        for coords, value in entries.items():
            data[flatten_index(tuple(coords), dims)] = value
        return CostTensor(dims, tuple(data))

    @staticmethod
    def from_function(dims, fn) -> "CostTensor":
        dims = tuple(dims)
        return CostTensor(dims, tuple(fn(t) for t in all_index_tuples(dims)))


@dataclass(frozen=True)
class ExactMatrix:
    """Rectangular matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(
            len(row) != self.cols for row in self.entries
        ):
            raise InputError("matrix entries do not match the declared shape")

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        rows = tuple(tuple(row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        return ExactMatrix(len(rows), ncols, rows)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_rows(list(zip(*self.entries)) if self.rows else [])


def _scaled_int_row(row) -> tuple[list[int], int]:
    """Clear denominators of one row; returns the integer row and the scale."""
    if set(map(type, row)) <= {int}:
        return list(row), 1
    scale = 1
    for x in row:
        if isinstance(x, Fraction) and x.denominator != 1:
            scale = lcm(scale, x.denominator)
    if scale == 1:
        return [int(x) for x in row], 1
    out = []
    for x in row:
        f = Fraction(x) * scale
        out.append(f.numerator)
    return out, scale


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    entries = matrix.entries
    # Elimination cost scales with the row count, so work on the transpose
    # when the matrix is much taller than wide.
    if matrix.rows > 4 * matrix.cols:
        entries = tuple(zip(*entries))
    rows = [_scaled_int_row(row)[0] for row in entries]
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    return len(echelon(rows, len(rows[0])))


def determinant(matrix: ExactMatrix) -> Scalar:
    """Exact determinant of a square matrix (Bareiss elimination)."""
    if matrix.rows != matrix.cols:
        raise InputError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    if matrix.rows == 0:
        return 1
    rows = []
    scale = 1
    for row in matrix.entries:
        int_row, s = _scaled_int_row(row)
        rows.append(int_row)
        scale *= s
    det = det_bareiss(rows)
    result = Fraction(det, scale)
    return result.numerator if result.denominator == 1 else result


@dataclass(frozen=True)
class LinearSystemResult:
    """Outcome of solving A x = b exactly.

    Consistent systems carry one particular solution (free variables pinned
    to zero by the deterministic elimination order) and a kernel basis.
    Inconsistent systems carry a row-combination witness y with yᵀA = 0 and
    yᵀb ≠ 0.
    """

    consistent: bool
    solution: tuple[Scalar, ...] | None = None
    kernel: tuple[tuple[Scalar, ...], ...] = ()
    witness: tuple[Scalar, ...] | None = None


def _as_scalar(f: Fraction) -> Scalar:
    return f.numerator if f.denominator == 1 else f


def solve_linear(matrix: ExactMatrix, rhs) -> LinearSystemResult:
    """Solve A x = b over the rationals with an exact certificate either way."""
    m, k = matrix.rows, matrix.cols
    rhs = list(rhs)
    if len(rhs) != m:
        raise InputError(f"matrix has {m} rows but rhs has {len(rhs)} entries")

    # Augmented layout per row: [A | b | tracking block].  The tracking block
    # starts as identity scaled by the row's denominator-clearing factor, so a
    # final row equals (tracking block) · (original rows).
    rows = []
    for i in range(m):
        int_row, scale = _scaled_int_row(list(matrix.entries[i]) + [rhs[i]])
        tracker = [0] * m
        tracker[i] = scale
        rows.append(int_row + tracker)

    pivots = echelon(rows, k) if rows else []
    return _assemble_solution(rows, pivots, m, k)


def _assemble_solution(rows, pivots, m, k) -> LinearSystemResult:
    npiv = len(pivots)
    for r in range(npiv, m):
        if rows[r][k] != 0:
            raw = rows[r][k + 1 :]
            g = 0
            for x in raw:
                g = gcd(g, x)
            witness = tuple(x // g for x in raw) if g > 1 else tuple(raw)
            return LinearSystemResult(consistent=False, witness=witness)

    pivot_set = set(pivots)
    free_cols = [c for c in range(k) if c not in pivot_set]

    def back_substitute(target: list[Fraction]) -> list[Fraction]:
        # rows[i] has its pivot at pivots[i]; solve bottom-up, free vars fixed.
        x = [Fraction(0)] * k
        for i in range(npiv - 1, -1, -1):
            p = pivots[i]
            row = rows[i]
            acc = target[i]
            for j in range(p + 1, k):
                if row[j] != 0 and x[j] != 0:
                    acc -= row[j] * x[j]
            x[p] = acc / row[p]
        return x

    particular = back_substitute([Fraction(rows[i][k]) for i in range(npiv)])

    kernel = []
    for f in free_cols:
        x = [Fraction(0)] * k
        x[f] = Fraction(1)
        for i in range(npiv - 1, -1, -1):
            p = pivots[i]
            row = rows[i]
            acc = Fraction(0)
            for j in range(p + 1, k):
                if row[j] != 0 and x[j] != 0:
                    acc -= row[j] * x[j]
            x[p] = acc / row[p]
        lead = next(v for v in x if v != 0)
        if lead < 0:
            x = [-v for v in x]
        kernel.append(tuple(_as_scalar(v) for v in x))

    return LinearSystemResult(
        consistent=True,
        solution=tuple(_as_scalar(v) for v in particular),
        kernel=tuple(kernel),
    )
