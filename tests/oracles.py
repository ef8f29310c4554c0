"""Independent reference computations that the tests compare against."""
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

from degex.complexes import DeltaComplex, boundary_matrix, f_vector
from degex.hilb import components_at_codim, is_stable, make_config
from degex.linalg import IntMatrix, rank_over_rationals, smith_normal_form


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


def elimination_homology(K: DeltaComplex):
    """Betti numbers and H1 torsion from the full boundary matrices of K."""
    fv = f_vector(K)
    ranks = [0] * (K.dimension + 2)
    for d in range(1, K.dimension + 1):
        ranks[d] = rank_over_rationals(boundary_matrix(K, d))
    betti = tuple(fv[d] - ranks[d] - ranks[d + 1] for d in range(K.dimension + 1))
    if K.dimension < 2:
        return betti, []
    return betti, [d for d in smith_normal_form(boundary_matrix(K, 2)) if d > 1]


def brute_force_stable(structure, c: int, m: int):
    """Every multiset of m components of codimension c, filtered by is_stable."""
    return [
        make_config(c, pts)
        for pts in combinations_with_replacement(components_at_codim(structure, c), m)
        if is_stable(pts, c)
    ]


def multichoose(n: int, k: int) -> int:
    """Number of k-element multisets from n kinds."""
    return comb(n + k - 1, k)


def stable_type_count(model, c: int, m: int) -> int:
    """Stable m-point types of codimension c, by inclusion-exclusion over the
    unoccupied levels: with r of the c-1 levels allowed there are
    V + E*r + T*C(r, 2) components to choose m points from."""
    V, E, T = len(model.vertices), len(model.edges), len(model.triangles)
    total = 0
    for s in range(c):
        r = c - 1 - s
        total += (-1) ** s * comb(c - 1, s) * multichoose(V + E * r + T * comb(r, 2), m)
    return total
