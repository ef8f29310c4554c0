import random
from fractions import Fraction

import pytest

from degex.complexes import boundary_matrix
from degex.expansion import get_assignment, subdivide
from degex.hilb import build_pi
from degex.linalg import IntMatrix, rank_over_rationals, smith_normal_form
from degex.models import cube_model, quartic_model

from oracles import (
    elimination_invariant_factors,
    gcd_of_minors,
    int_matrix,
    rank_oracle_gauss,
    sympy_invariant_factors,
    unit_eliminate,
)


def test_rank_identity():
    M = int_matrix([[1, 0], [0, 1]])
    assert rank_over_rationals(M) == 2


def test_rank_zero_matrix():
    # every Morse boundary of a complex the suite builds has no rows or no columns
    for shape in ((3, 4), (0, 3), (3, 0), (0, 0)):
        assert rank_over_rationals(IntMatrix(*shape)) == 0


def test_rank_dependent_rows():
    # hand elimination: second row is twice the first
    assert rank_over_rationals(int_matrix([[1, 2], [2, 4]])) == 1


def test_rank_matches_gauss_oracle_on_random_matrices():
    rng = random.Random(20260810)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        M = int_matrix(
            [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        )
        assert rank_over_rationals(M) == rank_oracle_gauss(M)


def test_snf_identity():
    assert smith_normal_form(int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [1, 1, 1]


def test_snf_zero():
    for shape in ((2, 5), (0, 3), (3, 0), (0, 0)):
        assert smith_normal_form(IntMatrix(*shape)) == []


def test_snf_diagonal_via_minor_gcds():
    M = int_matrix([[2, 0], [0, 4]])
    d = smith_normal_form(M)
    # minors-gcd oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    assert d[0] == gcd_of_minors(M, 1)
    assert d[0] * d[1] == gcd_of_minors(M, 2)
    assert d == [2, 4]


def test_snf_divisibility_and_minor_gcds_random():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        M = int_matrix(
            [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        )
        d = smith_normal_form(M)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        prod = 1
        for k, dk in enumerate(d, start=1):
            prod *= dk
            assert prod == gcd_of_minors(M, k)


def test_rank_equals_number_of_invariant_factors():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = int_matrix(
            [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        )
        assert rank_over_rationals(M) == len(smith_normal_form(M))


def test_rational_roundtrip_exact():
    rng = random.Random(41)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert (a / b) * b == a


def test_snf_of_a_matrix_without_unit_entries():
    # no +-1 entry, so the oracle hands sympy the whole matrix; choosing the
    # pivot from the remainders alone grew these entries past a million bits
    M = int_matrix(
        [
            [-91, 36, 253, -148, 20],
            [-29, 19, 46, -38, -8],
            [-86, 43, 220, -125, 18],
            [-15, -6, 50, -35, 12],
            [55, -30, -137, 78, -16],
        ]
    )
    assert unit_eliminate(M)[0] == 0
    d = smith_normal_form(M)
    assert d == [1, 1, 1, 2, 707560] == elimination_invariant_factors(M)
    prod = 1
    for k, dk in enumerate(d, start=1):
        prod *= dk
        assert prod == gcd_of_minors(M, k)


def boundary_matrices(K):
    return [boundary_matrix(K, d) for d in range(1, K.dimension + 1)]


@pytest.fixture(scope="module")
def cube_pi():
    return build_pi(cube_model(), m=2)[0]


def test_cube_hilb2_boundaries_match_sympy(cube_pi):
    boundaries = boundary_matrices(cube_pi)
    factors = [sympy_invariant_factors(M.entries) for M in boundaries]
    for M, d in zip(boundaries, factors):
        assert elimination_invariant_factors(M) == d
    # the library's dense loop on one real boundary, 150x420
    assert smith_normal_form(boundaries[1]) == factors[1]
    assert rank_over_rationals(boundaries[1]) == len(factors[1])


def test_unit_pivots_leave_no_residue_on_built_complexes(cube_pi):
    cube = cube_model()
    sphere = subdivide(cube, get_assignment(cube, "labeling"), 3).cells
    for K in (build_pi(quartic_model(), m=2)[0], cube_pi, sphere):
        for M in boundary_matrices(K):
            units, residue = unit_eliminate(M)
            assert residue == [] and units > 0
