import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from covpkit import (
    ExactMatrix,
    InputError,
    determinant,
    flatten_index,
    parse_rational,
    rank,
    solve_linear,
    unflatten_index,
)
from covpkit.covp import build_reduced
from covpkit.exact import _scaled_int_row, format_rational

from conftest import random_scalar


class TestRationalParsing:
    def test_strings(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == -7
        assert parse_rational("4/2") == 2
        assert isinstance(parse_rational("4/2"), int)

    def test_rejects_decimals_and_floats(self):
        with pytest.raises(InputError):
            parse_rational(0.5)
        with pytest.raises(InputError):
            parse_rational("0.5")
        with pytest.raises(InputError):
            parse_rational("1e3")
        with pytest.raises(InputError):
            parse_rational(True)
        with pytest.raises(InputError):
            parse_rational("1/0")

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_roundtrip(self, num, den):
        value = Fraction(num, den)
        assert parse_rational(format_rational(value)) == value


class TestFlatten:
    def test_examples(self):
        assert flatten_index((1, 1), (2, 2)) == 0
        assert flatten_index((2, 1), (2, 2)) == 2
        assert flatten_index((1, 2, 3), (3, 3, 3)) == 5

    def test_out_of_range_names_coordinate(self):
        with pytest.raises(InputError, match="coordinate 2"):
            flatten_index((1, 3), (2, 2))

    def test_exhaustive_roundtrip(self):
        for dims in [(2, 3, 4), (5,), (2, 2, 2, 2), (10, 10, 10, 10)]:
            size = 1
            for extent in dims:
                size *= extent
            assert size <= 10**4
            for off in range(size):
                assert flatten_index(unflatten_index(off, dims), dims) == off


class TestRank:
    def test_identity(self):
        assert rank(ExactMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(ExactMatrix.from_rows([[0] * 4 for _ in range(4)])) == 0

    def test_m2_rank_five(self):
        from covpkit.covp import build_Md

        assert rank(build_Md(2)) == 5

    def test_rational_entries(self):
        M = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
        )
        assert rank(M) == 2
        singular = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        )
        assert rank(singular) == 1

    def test_matches_fraction_elimination(self, rng):
        # independent oracle: plain Gauss elimination over Fraction
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [
                [Fraction(random_scalar(rng)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert rank(ExactMatrix.from_rows(rows)) == _fraction_rank(rows)


def _fraction_rank(rows):
    rows = [row[:] for row in rows]
    rank_count = 0
    for col in range(len(rows[0])):
        piv = None
        for r in range(rank_count, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank_count], rows[piv] = rows[piv], rows[rank_count]
        head = rows[rank_count]
        for r in range(rank_count + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / head[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
        rank_count += 1
    return rank_count


def _laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _laplace_det(minor)
    return total


class TestScaledRows:
    def test_int_rows_are_copied_unchanged(self):
        row = (3, -1, 0, 7)
        out, scale = _scaled_int_row(row)
        assert out == [3, -1, 0, 7] and scale == 1 and out is not row

    def test_bools_and_fractions_become_plain_ints(self):
        for row, expected in [
            ((True, 2, False), ([1, 2, 0], 1)),
            ((Fraction(4, 1), 1), ([4, 1], 1)),
            ((Fraction(1, 2), Fraction(-2, 3), 1), ([3, -4, 6], 6)),
        ]:
            out, scale = _scaled_int_row(row)
            assert (out, scale) == expected
            assert all(type(x) is int for x in out)


class TestDeterminant:
    def test_identity(self):
        assert determinant(ExactMatrix.identity(2)) == 1

    def test_swap(self):
        assert determinant(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_reduced_block_base(self):
        # z_1 = z_0 * u_0 = -1 by the recursion; direct elimination agrees
        A1, _, _ = build_reduced(1)
        assert determinant(A1) == -1

    def test_non_square(self):
        with pytest.raises(InputError):
            determinant(ExactMatrix.from_rows([[1, 2, 3]]))

    def test_against_laplace(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[random_scalar(rng) for _ in range(n)] for _ in range(n)]
            assert determinant(ExactMatrix.from_rows(rows)) == _laplace_det(rows)

    def test_product_rule(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            AB = [
                [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert determinant(ExactMatrix.from_rows(AB)) == determinant(
                ExactMatrix.from_rows(A)
            ) * determinant(ExactMatrix.from_rows(B))


class TestSolve:
    def test_unique(self):
        res = solve_linear(ExactMatrix.identity(2), [3, 5])
        assert res.consistent and res.solution == (3, 5) and res.kernel == ()

    def test_underdetermined(self):
        res = solve_linear(ExactMatrix.from_rows([[1, 1]]), [2])
        assert res.consistent
        assert res.solution == (2, 0)
        assert res.kernel == ((1, -1),)

    def test_inconsistent_witness(self):
        res = solve_linear(ExactMatrix.from_rows([[1], [1]]), [0, 1])
        assert not res.consistent
        y = res.witness
        assert y[0] + y[1] == 0 and y[0] * 0 + y[1] * 1 != 0

    def test_witness_is_exact_certificate(self, rng):
        # on random inconsistent systems, y^T A = 0 and y^T b != 0
        found = 0
        for _ in range(60):
            m, k = rng.randint(2, 5), rng.randint(1, 3)
            rows = [[random_scalar(rng) for _ in range(k)] for _ in range(m)]
            b = [random_scalar(rng) for _ in range(m)]
            res = solve_linear(ExactMatrix.from_rows(rows), b)
            if res.consistent:
                x = res.solution
                for row, rhs in zip(rows, b):
                    assert sum(a * v for a, v in zip(row, x)) == rhs
                for vec in res.kernel:
                    for row in rows:
                        assert sum(a * v for a, v in zip(row, vec)) == 0
            else:
                found += 1
                y = res.witness
                for col in range(k):
                    assert sum(y[i] * rows[i][col] for i in range(m)) == 0
                assert sum(y[i] * b[i] for i in range(m)) != 0
        assert found > 0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            solve_linear(ExactMatrix.identity(2), [1])


def test_reduced_form_everywhere(rng):
    # arithmetic never leaves fractions unreduced or misrepresented as such
    for _ in range(50):
        value = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        parsed = parse_rational(format_rational(value))
        if isinstance(parsed, Fraction):
            from math import gcd

            assert gcd(parsed.numerator, parsed.denominator) == 1
            assert parsed.denominator > 1
        else:
            assert value.denominator == 1
