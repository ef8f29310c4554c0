import random
from fractions import Fraction

from degex.linalg import IntMatrix, rank_over_rationals, smith_normal_form

from oracles import gcd_of_minors, rank_oracle_gauss


def test_rank_identity():
    M = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert rank_over_rationals(M) == 2


def test_rank_zero_matrix():
    assert rank_over_rationals(IntMatrix(3, 4)) == 0


def test_rank_dependent_rows():
    # hand elimination: second row is twice the first
    assert rank_over_rationals(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_matches_gauss_oracle_on_random_matrices():
    rng = random.Random(20260810)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        M = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        )
        assert rank_over_rationals(M) == rank_oracle_gauss(M)


def test_snf_identity():
    assert smith_normal_form(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [1, 1, 1]


def test_snf_zero():
    assert smith_normal_form(IntMatrix(2, 5)) == []


def test_snf_diagonal_via_minor_gcds():
    M = IntMatrix.from_rows([[2, 0], [0, 4]])
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
        M = IntMatrix.from_rows(
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
        M = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        )
        assert rank_over_rationals(M) == len(smith_normal_form(M))


def test_rational_roundtrip_exact():
    rng = random.Random(41)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert (a / b) * b == a
