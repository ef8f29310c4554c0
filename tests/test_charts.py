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

from oracles import (
    FRACTION_TABLE,
    chart_equation_residuals,
    fraction_act,
    fraction_point,
    fraction_sample,
)


def _plus_one(a):
    return (a[0] + a[1], a[1])


def _product(rationals):
    return (prod(a for a, _ in rationals), prod(b for _, b in rationals))


def test_equations_hold_n1():
    p = sample_chart_point(1, seed=7)
    res = chart_equation_residuals(p)
    assert set(res) == {"x(1)", "x(n)-closure", "y(1)", "y(n)-closure", "cross(1)"}
    assert all(r == 0 for r in res.values())


def test_product_identity_elimination_oracle_n1():
    # eliminate by hand: x = x0 t1 / x1, y = y0 t2 / y1, xz = (y1/y0) t1
    p = fraction_point(sample_chart_point(1, seed=3))
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
    return ChartPoint(p.x, p.y, p.z, (_plus_one(p.t[0]),) + p.t[1:], p.xs, p.ys)


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
        return act(TorusElement(tuple((a * a + b * b, b * b) for a, b in g.taus)), p)

    monkeypatch.setattr(charts, "act", not_a_homomorphism)
    rep = verify_torus_pairs(2, pairs=10, seed=3)
    assert not rep["pass"]
    assert {f["reason"] for f in rep["failures"]} == {"group law violated"}


def test_verify_torus_pairs_compares_points_by_value(monkeypatch):
    # an action that also doubles numerator and denominator of every entry
    # changes the integer pairs, by a different factor on the two sides of
    # the group law, but no value
    def doubled(a):
        return (2 * a[0], 2 * a[1])

    def rescaled(g, p):
        q = act(g, p)
        return ChartPoint(
            doubled(q.x),
            doubled(q.y),
            doubled(q.z),
            tuple(map(doubled, q.t)),
            tuple((doubled(a), doubled(b)) for a, b in q.xs),
            tuple((doubled(a), doubled(b)) for a, b in q.ys),
        )

    monkeypatch.setattr(charts, "act", rescaled)
    rep = verify_torus_pairs(3, pairs=10, seed=3)
    assert rep["pass"] and rep["failures"] == []


def test_sampled_towers_match_their_definition():
    for n in range(9):
        for seed in range(5):
            p = sample_chart_point(n, seed=seed)
            for k in range(1, n + 1):
                assert pairs_proportional(p.xs[k - 1], (p.x, _product(p.t[:k])))
                assert pairs_proportional(p.ys[k - 1], (p.y, _product(p.t[n + 1 - k :])))


def test_nonzero_rationals_are_every_quotient_a_over_b():
    # drawing uniformly from the table picks each pair (a, b), a nonzero in
    # -9..9 and b in 1..9, with probability 1/162
    assert charts.NONZERO_RATIONALS == tuple(
        (a, b) for a, b in product(range(-9, 10), range(1, 10)) if a != 0
    )
    table = Counter(Fraction(a, b) for a, b in charts.NONZERO_RATIONALS)
    assert len(charts.NONZERO_RATIONALS) == 162
    assert table == Counter(
        Fraction(a, b) for a, b in product(range(-9, 10), range(1, 10)) if a != 0
    )
    assert tuple(Fraction(a, b) for a, b in charts.NONZERO_RATIONALS) == FRACTION_TABLE
    assert 0 not in table
    assert table[Fraction(1)] == table[Fraction(-1)] == 9
    assert table[Fraction(2, 3)] == 3
    assert table[Fraction(1, 9)] == 1


def test_sampling_deterministic_per_seed():
    assert sample_chart_point(2, seed=5) == sample_chart_point(2, seed=5)
    assert sample_chart_point(2, seed=5) != sample_chart_point(2, seed=6)


def test_identity_acts_trivially():
    p = sample_chart_point(2, seed=9)
    assert act(TorusElement(((1, 1), (1, 1))), p) == p


def test_act_example_on_base_parameters():
    p = sample_chart_point(1, seed=11)
    g = TorusElement(((2, 1),))
    q = act(g, p)
    pf, qf = fraction_point(p), fraction_point(q)
    assert qf.t == (2 * pf.t[0], pf.t[1] / 2)
    # the pair actions are induced by the base action, so the relations and
    # the base product survive
    assert failed_equations(q) == []
    assert verify_product_identity(q)
    assert qf.t[0] * qf.t[1] == pf.t[0] * pf.t[1]


def test_action_preserves_relations_random():
    rng = random.Random(0)
    for n in (1, 2, 3):
        rep = verify_torus_pairs(n, pairs=25, seed=rng.randint(0, 10**6))
        assert rep["pass"], rep["failures"][:3]


def test_group_law():
    p = sample_chart_point(3, seed=2)
    g = TorusElement(((2, 1), (-3, 1), (1, 5)))
    h = TorusElement(((1, 2), (7, 1), (5, 1)))
    # compared by value: the integer pairs need not be equal
    assert fraction_point(act(g, act(h, p))) == fraction_point(act(g.compose(h), p))


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
    assert pairs_proportional(((1, 1), (2, 1)), ((3, 1), (6, 1)))
    assert not pairs_proportional(((1, 1), (0, 1)), ((0, 1), (1, 1)))
    # unreduced entries with negative denominators: (1/2 : 1) = (1 : 2)
    assert pairs_proportional(((1, 2), (-1, -1)), ((1, 1), (2, 1)))
    assert not pairs_proportional(((1, 2), (1, -1)), ((1, 1), (2, 1)))


def test_a_zero_pair_is_proportional_to_nothing():
    # both numerators 0: the pair is zero whatever its denominators, though
    # it is not the tuple (0, 0)
    zero = ((0, 3), (0, 5))
    assert not pairs_proportional(zero, ((1, 1), (2, 1)))
    assert not pairs_proportional(((1, 1), (2, 1)), zero)
    assert not pairs_proportional(zero, zero)


def test_torus_element_rejects_zero():
    for zero in ((0, 1), (0, 7)):
        with pytest.raises(ValueError):
            TorusElement((zero,))


def test_x_chain_refuses_a_point_every_other_relation_passes():
    # x = y = 1, z = 0, t = (1, 1, 0), x-pairs (1 : 1), (1 : 2) and y-pairs
    # (1 : 0), (1 : 0): the y-towers, the cross relations, the closures and
    # the product identity hold, but x^(2) is not (x : t_1 t_2)
    one, zero = (1, 1), (0, 1)
    p = ChartPoint(
        one, one, zero, (one, one, zero), ((one, one), (one, (2, 1))), ((one, zero), (one, zero))
    )
    assert verify_product_identity(p)
    assert failed_equations(p) == ["x-chain(2)"]
    assert [name for name, r in chart_equation_residuals(p).items() if r] == ["x-chain(2)"]


def test_integer_sampler_and_action_match_the_fraction_oracle():
    for n in range(9):
        for seed in range(6):
            p = sample_chart_point(n, seed)
            assert fraction_point(p) == fraction_sample(n, seed)
            # one rng shared across draws, as verify_torus_pairs does
            rng = random.Random(f"oracle:{n}:{seed}")
            oracle_rng = random.Random(f"oracle:{n}:{seed}")
            for _ in range(3):
                p = sample_chart_point(n, seed, rng=rng)
                q = fraction_sample(n, seed, rng=oracle_rng)
                assert fraction_point(p) == q
                g = TorusElement(tuple(rng.choice(charts.NONZERO_RATIONALS) for _ in range(n)))
                taus = tuple(oracle_rng.choice(FRACTION_TABLE) for _ in range(n))
                assert fraction_point(act(g, p)) == fraction_act(taus, q)
