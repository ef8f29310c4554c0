"""Exact integer linear algebra: rank over the rationals and Smith normal form.

Small substrate shared by the homology computations.  Matrices are dense
integer matrices; all operations are exact.
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

    @classmethod
    def from_rows(cls, entries) -> "IntMatrix":
        entries = [list(r) for r in entries]
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        return cls(rows, cols, entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i][j] = value

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def rank_over_rationals(M: IntMatrix) -> int:
    """Rank of M as a matrix over the rationals.

    Fraction-free Bareiss elimination with pivoting on the smallest nonzero
    entry; every intermediate entry is a minor of M, so the computation is
    exact over the integers.
    """
    a = [row[:] for row in M.entries]
    n, m = M.rows, M.cols
    rank = 0
    prev = 1
    k = 0
    while k < n and rank < m:
        # smallest-magnitude nonzero pivot in the remaining block
        pivot = None
        for i in range(k, n):
            for j in range(rank, m):
                v = a[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != rank:
            for row in a:
                row[rank], row[pj] = row[pj], row[rank]
        p = a[k][rank]
        for i in range(k + 1, n):
            f = a[i][rank]
            if f == 0 and prev == 1:
                continue
            row_i, row_k = a[i], a[k]
            for j in range(rank + 1, m):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
            row_i[rank] = 0
        prev = p
        rank += 1
        k += 1
    return rank


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of M over the integers.

    Pivots on the smallest nonzero entry, which keeps intermediate growth
    modest on the small matrices arising here.  Returns [] for the zero
    matrix.
    """
    a = [row[:] for row in M.entries]
    n, m = M.rows, M.cols
    factors: list[int] = []
    t = 0
    while True:
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                v = a[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]

        while True:
            # clear column t by row operations, re-pivoting on remainders
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, n):
                    if a[i][t] == 0:
                        continue
                    q = a[i][t] // a[t][t]
                    for j in range(t, m):
                        a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        changed = True
                # clear row t by column operations
                for j in range(t + 1, m):
                    if a[t][j] == 0:
                        continue
                    q = a[t][j] // a[t][t]
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        changed = True
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, m):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
        t += 1
        if t >= n or t >= m:
            break
    return factors
