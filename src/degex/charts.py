"""Exact rational sampling of the expanded-family charts.

A depth-n chart point carries the base coordinates (x, y, z), the n+1 base
parameters t_1..t_{n+1} and two towers of projective pairs.  On the dense
locus the defining relations are

    x0^(1) t_1       = x x1^(1)
    x1^(k-1) x0^(k) t_k = x0^(k-1) x1^(k)            (2 <= k <= n)
    x0^(n) y z       = x1^(n) t_{n+1}
    y0^(1) t_{n+1}   = y y1^(1)
    y1^(k-1) y0^(k) t_{n+2-k} = y0^(k-1) y1^(k)      (2 <= k <= n)
    y0^(n) x z       = y1^(n) t_1
    x0^(k) y0^(n+1-k) z = x1^(k) y1^(n+1-k)          (1 <= k <= n)

together with the product identity x y z = t_1 ... t_{n+1}.  Sampling draws
the free coordinates at random, solves for the dependent ones exactly and
randomizes the projective representatives, so verification exercises the
equations rather than the construction; the towers take t_1...t_k and
t_{n+2-k}...t_{n+1} from running products across the levels k.

Every coordinate, tower entry and torus entry is a rational held as an
unreduced integer pair (num, den) with den != 0.  A product multiplies
numerators and denominators, a quotient swaps a pair, and no gcd is ever
taken.  Each relation is a monomial identity lhs = rhs, checked by
cross-multiplying the numerators and denominators of its factors: as no
denominator is 0, the two products are equal exactly when
num(lhs) den(rhs) = num(rhs) den(lhs), whatever the signs.  Projective
pairs are never normalized; comparisons go through cross products.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

Ratio = tuple[int, int]  # (numerator, denominator), denominator nonzero
Pair = tuple[Ratio, Ratio]
Monomial = tuple[Ratio, ...]
Relation = tuple[Monomial, Monomial]

ONE: Ratio = (1, 1)
ZERO: Ratio = (0, 1)


@dataclass(frozen=True)
class ChartPoint:
    x: Ratio
    y: Ratio
    z: Ratio
    t: tuple[Ratio, ...]
    xs: tuple[Pair, ...]
    ys: tuple[Pair, ...]

    @property
    def depth(self) -> int:
        return len(self.t) - 1


@dataclass(frozen=True)
class TorusElement:
    taus: tuple[Ratio, ...]

    def __post_init__(self):
        if any(num == 0 for num, _ in self.taus):
            raise ValueError("torus entries must be nonzero")

    def compose(self, other: "TorusElement") -> "TorusElement":
        if len(self.taus) != len(other.taus):
            raise ValueError("size mismatch")
        return TorusElement(tuple(_mul(a, b) for a, b in zip(self.taus, other.taus)))


# (a, b) standing for a/b, for every nonzero a in -9..9 and b in 1..9, repeats
# of a value kept, so that a uniform draw picks each pair with probability 1/162
NONZERO_RATIONALS = tuple((a, b) for a in range(-9, 10) if a for b in range(1, 10))


def _mul(a: Ratio, b: Ratio) -> Ratio:
    return (a[0] * b[0], a[1] * b[1])


def _quotient(a: Ratio, b: Ratio) -> Ratio:
    return (a[0] * b[1], a[1] * b[0])


def _product(factors: Monomial) -> Ratio:
    num = den = 1
    for a, b in factors:
        num *= a
        den *= b
    return (num, den)


def _nonzero_rational(rng: random.Random) -> Ratio:
    return rng.choice(NONZERO_RATIONALS)


def sample_chart_point(n: int, seed: int, rng: random.Random | None = None) -> ChartPoint:
    """Random chart point of depth n; deterministic per (n, seed)."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    rng = rng or random.Random(f"chart:{n}:{seed}")
    x = _nonzero_rational(rng)
    z = _nonzero_rational(rng)
    t = tuple(_nonzero_rational(rng) for _ in range(n + 1))
    y = _quotient(_product(t), _mul(x, z))
    xs = []
    ys = []
    head = tail = ONE  # t_1...t_k and t_{n+2-k}...t_{n+1}
    for k in range(1, n + 1):
        head = _mul(head, t[k - 1])
        tail = _mul(tail, t[n + 1 - k])
        alpha = _nonzero_rational(rng)
        xs.append((_mul(alpha, x), _mul(alpha, head)))
        beta = _nonzero_rational(rng)
        ys.append((_mul(beta, y), _mul(beta, tail)))
    return ChartPoint(x, y, z, t, tuple(xs), tuple(ys))


def chart_relations(p: ChartPoint) -> dict[str, Relation]:
    """Every defining relation at p as (lhs factors, rhs factors)."""
    n = p.depth
    rels: dict[str, Relation] = {}
    if n == 0:
        return rels
    rels["x(1)"] = ((p.xs[0][0], p.t[0]), (p.x, p.xs[0][1]))
    for k in range(2, n + 1):
        rels[f"x-chain({k})"] = (
            (p.xs[k - 2][1], p.xs[k - 1][0], p.t[k - 1]),
            (p.xs[k - 2][0], p.xs[k - 1][1]),
        )
    rels["x(n)-closure"] = ((p.xs[n - 1][0], p.y, p.z), (p.xs[n - 1][1], p.t[n]))
    rels["y(1)"] = ((p.ys[0][0], p.t[n]), (p.y, p.ys[0][1]))
    for k in range(2, n + 1):
        rels[f"y-chain({k})"] = (
            (p.ys[k - 2][1], p.ys[k - 1][0], p.t[n + 1 - k]),
            (p.ys[k - 2][0], p.ys[k - 1][1]),
        )
    rels["y(n)-closure"] = ((p.ys[n - 1][0], p.x, p.z), (p.ys[n - 1][1], p.t[0]))
    for k in range(1, n + 1):
        rels[f"cross({k})"] = (
            (p.xs[k - 1][0], p.ys[n - k][0], p.z),
            (p.xs[k - 1][1], p.ys[n - k][1]),
        )
    return rels


def _monomials_equal(lhs: Monomial, rhs: Monomial) -> bool:
    """lhs = rhs, compared in integers by cross-multiplying: no denominator
    is 0, so the two products are equal exactly when
    num(lhs) den(rhs) = num(rhs) den(lhs)."""
    lhs_num, lhs_den = _product(lhs)
    rhs_num, rhs_den = _product(rhs)
    return lhs_num * rhs_den == rhs_num * lhs_den


def failed_equations(p: ChartPoint) -> list[str]:
    return sorted(
        name for name, (lhs, rhs) in chart_relations(p).items() if not _monomials_equal(lhs, rhs)
    )


def verify_product_identity(p: ChartPoint) -> bool:
    return _monomials_equal((p.x, p.y, p.z), p.t)


def _entries(p: ChartPoint) -> tuple[Ratio, ...]:
    return (p.x, p.y, p.z, *p.t, *chain.from_iterable(p.xs), *chain.from_iterable(p.ys))


def _same_point(p: ChartPoint, q: ChartPoint) -> bool:
    """p = q coordinate by coordinate, compared by value, not by the
    integer pairs that represent them."""
    return p.depth == q.depth and all(
        a * d == c * b for (a, b), (c, d) in zip(_entries(p), _entries(q))
    )


def act(g: TorusElement, p: ChartPoint) -> ChartPoint:
    """Apply the torus action; the result satisfies the same relations.

    The k-th factor scales t_k up and t_{k+1} down, hence scales the product
    of the first k base parameters by tau_k; the projective towers transform
    by the action this induces through the defining relations.
    """
    n = p.depth
    if len(g.taus) != n:
        raise ValueError(f"torus element of rank {len(g.taus)} on a depth-{n} point")
    if n == 0:
        return p
    # t_i scales by tau_i / tau_{i-1}, with tau_0 = tau_{n+1} = 1
    scale = (ONE, *g.taus, ONE)
    new_t = [_mul(_quotient(scale[i + 1], scale[i]), t) for i, t in enumerate(p.t)]
    xs = tuple((x0, _mul(tau, x1)) for tau, (x0, x1) in zip(g.taus, p.xs))
    # the j-th y-pair scales its first entry by tau_{n+1-j}
    ys = tuple((_mul(tau, y0), y1) for tau, (y0, y1) in zip(reversed(g.taus), p.ys))
    return ChartPoint(p.x, p.y, p.z, tuple(new_t), xs, ys)


def _is_zero(a: Pair) -> bool:
    return a[0][0] == 0 and a[1][0] == 0


def pairs_proportional(a: Pair, b: Pair) -> bool:
    """Projective equality via the cross product a0 b1 = a1 b0; pairs are not
    normalized.  A pair is zero, and proportional to nothing, when both of
    its numerators are 0."""
    if _is_zero(a) or _is_zero(b):
        return False
    return _monomials_equal((a[0], b[1]), (a[1], b[0]))


def _plus_one(a: Ratio) -> Ratio:
    return (a[0] + a[1], a[1])


def delta_coincidence_check(
    n: int, k: int, samples: int = 100, seed: int = 0, z_nonzero: bool = True
) -> bool:
    """On the x = y = 0, z != 0 locus the k-th x-pair and the (n+1-k)-th
    y-pair determine each other through the cross relation
    x0 y0 z = x1 y1; the check verifies this determinacy in both directions
    on random pairs.  With z = 0 the relation degenerates and determinacy
    fails.
    """
    if not 1 <= k <= n:
        raise ValueError("level out of range")
    rng = random.Random(f"coincidence:{n}:{k}:{seed}")
    for _ in range(samples):
        z = _nonzero_rational(rng) if z_nonzero else ZERO
        # a random projective pair, occasionally on a coordinate axis
        shape = rng.randint(0, 9)
        if shape == 0:
            y_pair = (_nonzero_rational(rng), ZERO)
        elif shape == 1:
            y_pair = (ZERO, _nonzero_rational(rng))
        else:
            y_pair = (_nonzero_rational(rng), _nonzero_rational(rng))
        # forward: the relation forces (x0 : x1) = (y1 : y0 z)
        x_pair = (y_pair[1], _mul(y_pair[0], z))
        if _is_zero(x_pair):
            return False
        if not _monomials_equal((x_pair[0], y_pair[0], z), (x_pair[1], y_pair[1])):
            return False
        # backward: the derived pair must pin the y-pair back down
        y_back = (x_pair[1], _mul(x_pair[0], z))
        if not pairs_proportional(y_back, y_pair):
            return False
        # determinacy: leaving the line breaks the relation
        for off in ((_plus_one(x_pair[0]), x_pair[1]), (x_pair[0], _plus_one(x_pair[1]))):
            if not _is_zero(off) and not pairs_proportional(off, x_pair):
                if _monomials_equal((off[0], y_pair[0], z), (off[1], y_pair[1])):
                    return False
                break
    return True


def verify_samples(n: int, samples: int, seed: int) -> dict:
    """Sample chart points and verify every relation exactly; CLI backend."""
    rng = random.Random(f"verify:{n}:{seed}")
    failures = []
    for i in range(samples):
        p = sample_chart_point(n, seed, rng=rng)
        bad = failed_equations(p)
        if bad:
            failures.append({"sample": i, "failed_equations": bad})
        if not verify_product_identity(p):
            failures.append({"sample": i, "failed_equations": ["product-identity"]})
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "pass": not failures,
        "failures": failures,
    }


def verify_torus_pairs(n: int, pairs: int, seed: int) -> dict:
    """Random (g, p) pairs: the action must preserve every relation and the
    base-parameter product, and compose like the group law."""
    rng = random.Random(f"torus:{n}:{seed}")
    failures = []
    for i in range(pairs):
        p = sample_chart_point(n, seed, rng=rng)
        g = TorusElement(tuple(_nonzero_rational(rng) for _ in range(n)))
        h = TorusElement(tuple(_nonzero_rational(rng) for _ in range(n)))
        q = act(g, p)
        if failed_equations(q) or not verify_product_identity(q):
            failures.append({"pair": i, "reason": "relations broken by action"})
        if not _monomials_equal(q.t, p.t):
            failures.append({"pair": i, "reason": "base product not invariant"})
        if not _same_point(act(g, act(h, p)), act(g.compose(h), p)):
            failures.append({"pair": i, "reason": "group law violated"})
    return {"n": n, "pairs": pairs, "pass": not failures, "failures": failures}
