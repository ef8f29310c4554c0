"""Exact integer linear algebra: rank over the rationals and Smith normal form.

Small substrate shared by the homology computations.  Matrices arrive as
dense ``IntMatrix`` values, and one exact loop serves both public
functions: the Smith normal form, whose nonzero invariant factors also
count the rank.  Homology hands it only the Morse boundary left by
coreduction, which is empty on every complex the suite builds, so one
dense loop is enough.
"""
from __future__ import annotations


class IntMatrix:
    """Dense integer matrix with explicit dimensions."""

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[0] * cols for _ in range(rows)]
        else:
            entries = [list(row) for row in entries]
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry storage does not match dimensions")
            self.entries = entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i][j] = value

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def rank_over_rationals(M: IntMatrix) -> int:
    """Rank of M over the rationals: the number of its nonzero invariant factors."""
    # not smith_normal_form(M): a traced rank is then one linalg call, not two
    return len(_dense_snf(M))


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of M over the integers.

    Returns [] for the zero matrix and for a matrix with no rows or no
    columns.
    """
    return _dense_snf(M)


def _dense_snf(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors of M, reduced in a copy of its entries.

    Each round moves the smallest nonzero entry of the remaining block to
    the corner and reduces its row and column by it; a nonzero remainder
    is smaller than the pivot, so the next round picks a smaller one.
    Picking from the whole block matters: taking the remainders themselves
    as pivots grew the entries of a 5x5 matrix past a million bits.
    """
    a = [list(row) for row in M.entries]
    n, m = M.rows, M.cols
    factors: list[int] = []
    for t in range(min(n, m)):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, m):
                    v = a[i][j]
                    if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                        pivot = (i, j, v)
            if pivot is None:
                return factors
            pi, pj, p = pivot
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            cleared = True
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    row_i, row_t = a[i], a[t]
                    for j in range(t, m):
                        row_i[j] -= q * row_t[j]
                cleared = cleared and a[i][t] == 0
            for j in range(t + 1, m):
                q = a[t][j] // p
                if q:
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                cleared = cleared and a[t][j] == 0
            if not cleared:
                continue
            # the pivot must divide the rest of the block; adding an
            # offending row to row t makes the next round reduce it
            offender = next(
                (i for i in range(t + 1, n) for j in range(t + 1, m) if a[i][j] % p), None
            )
            if offender is None:
                break
            for j in range(t, m):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
    return factors
