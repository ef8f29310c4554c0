import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from degex import charts
from degex.charts import (
    ChartPoint,
    TorusElement,
    act,
    delta_coincidence_check,
    failed_equations,
    pairs_proportional,
    sample_chart_point,
    verify_product_identity,
    verify_samples,
    verify_torus_pairs,
)

from oracles import chart_equation_residuals


def test_equations_hold_n1():
    p = sample_chart_point(1, seed=7)
    res = chart_equation_residuals(p)
    assert set(res) == {"x(1)", "y(1)", "y(n)-closure", "cross(1)"}
    assert all(r == 0 for r in res.values())


def test_product_identity_elimination_oracle_n1():
    # eliminate by hand: x = x0 t1 / x1, y = y0 t2 / y1, xz = (y1/y0) t1
    p = sample_chart_point(1, seed=3)
    x0, x1 = p.xs[0]
    y0, y1 = p.ys[0]
    assert p.x == x0 * p.t[0] / x1
    assert p.y == y0 * p.t[1] / y1
    assert p.x * p.z == (y1 / y0) * p.t[0]
    assert p.x * p.y * p.z == p.t[0] * p.t[1]


def test_product_identity_n0_through_3():
    for n in range(0, 4):
        for seed in range(5):
            p = sample_chart_point(n, seed=seed)
            assert failed_equations(p) == []
            assert verify_product_identity(p)


def _perturbed(p: ChartPoint) -> ChartPoint:
    return ChartPoint(p.x, p.y, p.z, (p.t[0] + 1,) + p.t[1:], p.xs, p.ys)


def test_perturbed_point_fails():
    bad = _perturbed(sample_chart_point(1, seed=1))
    assert not verify_product_identity(bad)
    assert failed_equations(bad) != []


def test_verify_samples_reports_failing_relations(monkeypatch):
    sample = charts.sample_chart_point
    monkeypatch.setattr(
        charts, "sample_chart_point", lambda *args, **kwargs: _perturbed(sample(*args, **kwargs))
    )
    rep = verify_samples(2, samples=3, seed=5)
    assert not rep["pass"]
    assert rep["failures"] == [
        failure
        for i in range(3)
        for failure in (
            {"sample": i, "failed_equations": ["x(1)", "y(n)-closure"]},
            {"sample": i, "failed_equations": ["product-identity"]},
        )
    ]


def test_verify_torus_pairs_reports_a_broken_action(monkeypatch):
    def towers_left_behind(g, p):
        return ChartPoint(p.x, p.y, p.z, act(g, p).t, p.xs, p.ys)

    monkeypatch.setattr(charts, "act", towers_left_behind)
    rep = verify_torus_pairs(2, pairs=10, seed=3)
    assert not rep["pass"]
    assert {f["reason"] for f in rep["failures"]} == {"relations broken by action"}

    def not_a_homomorphism(g, p):
        return act(TorusElement(tuple(tau * tau + 1 for tau in g.taus)), p)

    monkeypatch.setattr(charts, "act", not_a_homomorphism)
    rep = verify_torus_pairs(2, pairs=10, seed=3)
    assert not rep["pass"]
    assert {f["reason"] for f in rep["failures"]} == {"group law violated"}


def test_sampled_towers_match_their_definition():
    for n in range(9):
        for seed in range(5):
            p = sample_chart_point(n, seed=seed)
            for k in range(1, n + 1):
                assert pairs_proportional(p.xs[k - 1], (p.x, prod(p.t[:k])))
                assert pairs_proportional(p.ys[k - 1], (p.y, prod(p.t[n + 1 - k :])))


def test_nonzero_rationals_are_every_quotient_a_over_b():
    # drawing uniformly from the table picks each pair (a, b), a nonzero in
    # -9..9 and b in 1..9, with probability 1/162
    table = Counter(charts.NONZERO_RATIONALS)
    assert len(charts.NONZERO_RATIONALS) == 162
    assert table == Counter(
        Fraction(a, b) for a, b in product(range(-9, 10), range(1, 10)) if a != 0
    )
    assert 0 not in table
    assert table[Fraction(1)] == table[Fraction(-1)] == 9
    assert table[Fraction(2, 3)] == 3
    assert table[Fraction(1, 9)] == 1


def test_sampling_deterministic_per_seed():
    assert sample_chart_point(2, seed=5) == sample_chart_point(2, seed=5)
    assert sample_chart_point(2, seed=5) != sample_chart_point(2, seed=6)


def test_identity_acts_trivially():
    p = sample_chart_point(2, seed=9)
    assert act(TorusElement((Fraction(1), Fraction(1))), p) == p


def test_act_example_on_base_parameters():
    p = sample_chart_point(1, seed=11)
    g = TorusElement((Fraction(2),))
    q = act(g, p)
    assert q.t == (2 * p.t[0], p.t[1] / 2)
    # the pair actions are induced by the base action, so the relations and
    # the base product survive
    assert failed_equations(q) == []
    assert verify_product_identity(q)
    assert q.t[0] * q.t[1] == p.t[0] * p.t[1]


def test_action_preserves_relations_random():
    rng = random.Random(0)
    for n in (1, 2, 3):
        rep = verify_torus_pairs(n, pairs=25, seed=rng.randint(0, 10**6))
        assert rep["pass"], rep["failures"][:3]


def test_group_law():
    p = sample_chart_point(3, seed=2)
    g = TorusElement((Fraction(2), Fraction(-3), Fraction(1, 5)))
    h = TorusElement((Fraction(1, 2), Fraction(7), Fraction(5)))
    assert act(g, act(h, p)) == act(g.compose(h), p)


def test_verify_samples_pass():
    rep = verify_samples(2, samples=50, seed=123)
    assert rep["pass"] and rep["failures"] == []


def test_delta_coincidence():
    assert delta_coincidence_check(1, 1)
    assert delta_coincidence_check(2, 1)
    assert delta_coincidence_check(2, 2)
    assert not delta_coincidence_check(1, 1, z_nonzero=False)
    with pytest.raises(ValueError):
        delta_coincidence_check(1, 2)


def test_pairs_proportional():
    assert pairs_proportional((Fraction(1), Fraction(2)), (Fraction(3), Fraction(6)))
    assert not pairs_proportional((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_torus_element_rejects_zero():
    with pytest.raises(ValueError):
        TorusElement((Fraction(0),))
