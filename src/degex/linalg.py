"""Exact integer linear algebra: rank over the rationals and Smith normal form.

Small substrate shared by the homology computations.  Matrices arrive as
dense ``IntMatrix`` values; both public functions first run a sparse
elimination on unit (+-1) pivots, which is unimodular and so keeps rank and
invariant factors exact, and hand only the residue the units could not
reach to the dense fraction-free loops.  All operations are exact.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress


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

    Unit pivots first, then Bareiss on the residue: rank = units + rank of
    the residue.
    """
    units, residue = unit_eliminate(M)
    return units + (_bareiss_rank(residue) if residue else 0)


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of M over the integers.

    Unit pivots first, then the dense loop on the residue: the factors are
    one 1 per unit pivot followed by those of the residue.  Returns [] for
    the zero matrix.
    """
    units, residue = unit_eliminate(M)
    return [1] * units + (_dense_snf(residue) if residue else [])


def unit_eliminate(M: IntMatrix) -> tuple[int, list[list[int]]]:
    """Eliminate M on +-1 pivots; return the pivot count and the residue.

    The rows are held as ``{col: value}`` dicts with a column -> rows index.
    Each step pivots on the +-1 entry of smallest Markowitz cost
    (r-1)(c-1), where r is its row's and c its column's nonzero count, and
    clears that column from the other rows.  A unit pivot is unimodular, so
    M is equivalent to diag(1, ..., 1, R) over the integers, where R, the
    residue, is what is left once no +-1 entry remains.  R is returned as
    dense rows over its nonzero rows and columns; [] when nothing is left.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, entries in enumerate(M.entries):
        row = dict(compress(enumerate(entries), entries))
        if row:
            rows[i] = row
            for j in row:
                col_rows.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    # candidate pivots by (cost, row, col); an entry whose cost has changed
    # since it was pushed is pushed again, and the stale copy is skipped
    heap = [(cost(i, j), i, j) for i, row in rows.items() for j, v in row.items() if v in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        c, i, j = heappop(heap)
        if i not in rows or rows[i].get(j) not in (1, -1) or c != cost(i, j):
            continue
        prow = rows.pop(i)
        v = prow[j]
        for l in prow:
            col_rows[l].discard(i)
        touched = col_rows.pop(j)
        for k in touched:
            row = rows[k]
            f = row[j] * v
            for l, w in prow.items():
                x = row.get(l, 0) - f * w
                if x:
                    if l not in row:
                        col_rows[l].add(k)
                    row[l] = x
                elif l in row:
                    del row[l]
                    if l != j:
                        col_rows[l].discard(k)
            if not row:
                del rows[k]
        units += 1
        for k in touched:
            for l, w in rows.get(k, {}).items():
                if w in (1, -1):
                    heappush(heap, (cost(k, l), k, l))
        for l in prow:
            for k in col_rows.get(l, ()):
                if k not in touched and rows[k][l] in (1, -1):
                    heappush(heap, (cost(k, l), k, l))
    cols = sorted({j for row in rows.values() for j in row})
    return units, [[row.get(j, 0) for j in cols] for row in rows.values()]


def _bareiss_rank(a: list[list[int]]) -> int:
    """Rank of the dense matrix a by fraction-free Bareiss elimination.

    Pivots on the smallest nonzero entry; every intermediate entry is a
    minor of a, so the computation is exact over the integers.  Mutates a.
    """
    n, m = len(a), len(a[0])
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


def _dense_snf(a: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of the dense matrix a; mutates a.

    Each round moves the smallest nonzero entry of the remaining block to
    the corner and reduces its row and column by it; a nonzero remainder
    is smaller than the pivot, so the next round picks a smaller one.
    Picking from the whole block matters: taking the remainders themselves
    as pivots grew the entries of a 5x5 matrix past a million bits.
    """
    n, m = len(a), len(a[0])
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
