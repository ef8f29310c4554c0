"""Independent reference computations that the tests compare against."""
from fractions import Fraction
from itertools import combinations
from math import gcd

from degex.complexes import DeltaComplex
from degex.linalg import IntMatrix


def rank_oracle_gauss(M: IntMatrix) -> int:
    """Naive Gaussian elimination over Fraction; independent of Bareiss."""
    a = [[Fraction(v) for v in row] for row in M.entries]
    n, m = M.rows, M.cols
    rank = 0
    for j in range(m):
        piv = next((i for i in range(rank, n) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][j]
        for i in range(n):
            if i != rank and a[i][j] != 0:
                f = a[i][j] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def gcd_of_minors(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors of M (0 if all vanish); brute force oracle."""

    def det(rows, cols):
        if len(rows) == 1:
            return M[rows[0], cols[0]]
        total = 0
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = M[rows[0], c] * sub
            total += term if idx % 2 == 0 else -term
        return total

    g = 0
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            g = gcd(g, det(list(rows), list(cols)))
    return g


def face_relation_signature(K: DeltaComplex):
    """Face relations in canonical cell order, for isomorphism-of-export tests."""
    sig = []
    for c in K.cells():
        sig.append(
            (
                c.dim,
                c.label,
                tuple((K[fid].dim, K[fid].label, sign) for fid, sign in c.faces),
            )
        )
    return sig
