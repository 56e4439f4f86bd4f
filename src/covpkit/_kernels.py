"""Integer elimination kernels: the hot loops of `covpkit.exact`.

Pure Python on exact ints, so results are exact regardless of magnitude.
"""

from math import gcd


def echelon(rows, ncols):
    """Fraction-free forward elimination on integer rows, in place.

    Pivot columns are scanned left to right over ``0..ncols-1``; the pivot row
    is the first row at or below the current rank with a nonzero entry in the
    scan column.  Rows may be longer than ``ncols``: surplus columns (right
    hand sides, a tracking block) ride along through every row operation.
    Updated rows are divided by the gcd of their entries to bound growth.

    Returns the list of pivot columns.  ``len(result)`` is the rank of the
    ``ncols``-wide left block.
    """
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = -1
        for r in range(rank, nrows):
            if rows[r][col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        a = prow[col]
        for r in range(rank + 1, nrows):
            b = rows[r][col]
            if b == 0:
                continue
            row = rows[r]
            new = [x * a - y * b for x, y in zip(row, prow)]
            g = 0
            for x in new:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                new = [x // g for x in new]
            rows[r] = new
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


def det_bareiss(rows):
    """Determinant of a square integer matrix by Bareiss elimination.

    Mutates ``rows``.  Every intermediate division is exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            piv = -1
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    piv = r
                    break
            if piv < 0:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k]
        akk = pk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
            ri[k] = 0
        prev = akk
    return sign * rows[n - 1][n - 1]
