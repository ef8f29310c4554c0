"""Property suites over the module invariants, with fixed seeds."""
import json
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, Phase, assume, find, given, settings
from hypothesis import strategies as st

from degex import dumps
from degex.charts import (
    chart_relations,
    failed_equations,
    sample_chart_point,
    verify_product_identity,
)
from degex.complexes import (
    _morse_boundaries,
    betti_numbers,
    euler_characteristic,
    euler_of_counts,
    f_vector,
    from_json,
    h1_torsion,
    simplex_complex,
    to_json,
    validate,
)
from degex.expansion import check_gluing, get_assignment, subdivide
from degex.hilb import build_pi
from degex.linalg import rank_over_rationals, smith_normal_form
from degex.models import cube_model, find_3_labeling, quartic_model

from oracles import (
    chart_equation_residuals,
    elimination_homology,
    elimination_invariant_factors,
    face_relation_signature,
    gcd_of_minors,
    int_matrix,
    labeling_is_valid,
    occupies_every_level,
    product_identity_residual,
    rank_oracle_gauss,
    stable_points,
    unit_eliminate,
)

FIXED = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@FIXED
@given(matrices)
def test_rank_equals_nonzero_invariant_factors(rows):
    M = int_matrix(rows)
    assert rank_over_rationals(M) == len(smith_normal_form(M))


@FIXED
@given(matrices)
def test_invariant_factors_divide(rows):
    d = smith_normal_form(int_matrix(rows))
    assert all(b % a == 0 for a, b in zip(d, d[1:]))


# mostly 0 and +-1, like a boundary matrix, with some larger entries so that
# the oracle's unit elimination sometimes leaves a residue for sympy
unit_heavy_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(
                st.sampled_from((0,) * 6 + (1, -1) * 3 + (2, -2, 3, -3, 4, -4)),
                min_size=m,
                max_size=m,
            ),
            min_size=n,
            max_size=n,
        )
    )
)


@FIXED
@given(unit_heavy_matrices)
def test_rank_and_invariant_factors_match_the_oracles(rows):
    M = int_matrix(rows)
    d = smith_normal_form(M)
    assert rank_over_rationals(M) == rank_oracle_gauss(M) == len(d)
    assert elimination_invariant_factors(M) == d
    prod = 1
    for k, dk in enumerate(d, start=1):
        prod *= dk
        assert prod == gcd_of_minors(M, k)


def test_unit_heavy_matrices_reach_both_paths():
    for residue_left in (False, True):
        find(
            unit_heavy_matrices,
            lambda rows: bool(unit_eliminate(int_matrix(rows))[1]) == residue_left,
            settings=FIXED,
        )


@FIXED
@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=1, max_value=50),
)
def test_rational_roundtrip(a, b):
    assert (a / b) * b == a


@FIXED
@given(st.integers(0, 3), st.integers(0, 2**30))
def test_subdivision_invariants(n, seed):
    rng = random.Random(seed)
    cuts = sorted({Fraction(rng.randint(1, 23), 24) for _ in range(n)})
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), len(cuts), positions=cuts)
    assert validate(E.cells) == []
    assert euler_characteristic(E.cells) == 2
    assert check_gluing(E).glues


@FIXED
@given(st.integers(0, 2**30))
def test_labeling_invariant_under_relabeling(seed):
    from degex.models import make_surface_model

    rng = random.Random(seed)
    m = cube_model()
    perm = list(m.vertices)
    rng.shuffle(perm)
    rename = dict(zip(m.vertices, perm))
    shuffled = make_surface_model(
        "shuffled", [tuple(rename[v] for v in t) for t in m.triangles]
    )
    lab = find_3_labeling(shuffled)
    assert lab is not None and labeling_is_valid(shuffled, lab)


POINT_POOL = [
    ("Y", "Y1"),
    ("Y", "Y3"),
    ("E", ("Y1", "Y2"), 1),
    ("E", ("Y2", "Y3"), 2),
    ("B", ("Y1", "Y2", "Y3"), 1, 2),
    ("B", ("Y1", "Y3", "Y4"), 2, 3),
]


@FIXED
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5))
def test_canonicalization_idempotent_and_exchange_invariant(i, j, c):
    # a type is its sorted tuple of component indices: all_stable yields
    # every type exactly once and already sorted, so the pair (p, q) shows up
    # once, in sorted order, exactly when it occupies every level
    p, q = POINT_POOL[i], POINT_POOL[j]
    types = stable_points(quartic_model(), c, 2)
    assert all(list(points) == sorted(points) for points in types)
    assert len(set(types)) == len(types)
    pair = tuple(sorted((p, q)))
    assert types.count(pair) == occupies_every_level(pair, c)
    assert p == q or pair[::-1] not in types


# report text: quotes, backslashes, control characters and non-ASCII
# (astral ones included, which JSON escapes as surrogate pairs)
report_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028'), st.characters()))
report_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(0, 200).map(lambda k: (-7) ** k),
        report_text,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(report_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@FIXED
@given(report_values)
def test_the_report_writer_matches_the_standard_library(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_export_import_roundtrip_on_built_complexes():
    complexes = [quartic_model().sphere, cube_model().sphere]
    q = quartic_model()
    complexes.append(subdivide(q, get_assignment(q, "default"), 2).cells)
    complexes.append(build_pi(quartic_model(), m=1)[0])
    for K in complexes:
        K2 = from_json(to_json(K))
        assert validate(K2) == []
        assert tuple(f_vector(K2)) == tuple(f_vector(K))
        assert face_relation_signature(K2) == face_relation_signature(K)


def test_euler_betti_identity_on_built_complexes():
    for K in (quartic_model().sphere, cube_model().sphere, build_pi(quartic_model(), m=1)[0]):
        assert euler_characteristic(K) == euler_of_counts(betti_numbers(K))


triangle_sets = st.sets(st.sampled_from(list(combinations("abcdefg", 3))), min_size=1, max_size=12)
# about one triangle set in a hundred coreduces to a nonzero Morse boundary
MORSE = settings(FIXED, max_examples=300)


@MORSE
@given(triangle_sets)
def test_morse_homology_matches_the_full_boundary_on_random_triangle_sets(triangles):
    K = simplex_complex(triangles)
    assert (betti_numbers(K), h1_torsion(K)) == elimination_homology(K)


def test_random_triangle_sets_reach_a_nonzero_morse_boundary():
    # so the comparison above sees critical parts that pairs have updated
    find(
        triangle_sets,
        lambda triangles: any(
            any(map(any, M.entries)) for M in _morse_boundaries(simplex_complex(triangles))
        ),
        settings=settings(MORSE, phases=[Phase.generate]),  # any example will do
    )


def test_morse_homology_matches_the_full_boundary_on_built_complexes():
    for model, assignment in ((quartic_model(), "default"), (cube_model(), "labeling")):
        complexes = [model.sphere] + [build_pi(model, m=m)[0] for m in (1, 2)]
        complexes += [
            subdivide(model, get_assignment(model, assignment), n).cells for n in (1, 2, 3, 8)
        ]
        for K in complexes:
            assert (betti_numbers(K), h1_torsion(K)) == elimination_homology(K)


def _entry(entry, index):
    for i in index:
        entry = entry[i]
    return entry


def _replaced(entry, index, value):
    if not index:
        return value
    i, *rest = index
    return entry[:i] + (_replaced(entry[i], rest, value),) + entry[i + 1 :]


@st.composite
def perturbed_chart_points(draw):
    """A sampled chart point of depth at most 8, and the same point with one
    coordinate, pair entry or base parameter replaced by another rational."""
    n = draw(st.integers(0, 8))
    p = sample_chart_point(n, draw(st.integers(0, 2**30)))
    slots = [("x",), ("y",), ("z",)] + [("t", i) for i in range(n + 1)]
    slots += [(tower, k, j) for tower in ("xs", "ys") for k in range(n) for j in (0, 1)]
    field, *index = draw(st.sampled_from(slots))
    # a rational as an unreduced integer pair, either sign of denominator
    value = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool)))
    old = _entry(getattr(p, field), index)
    assume(value[0] * old[1] != old[0] * value[1])
    bad = p._replace(**{field: _replaced(getattr(p, field), index, value)})
    return p, bad


@settings(FIXED, max_examples=200)
@given(perturbed_chart_points())
def test_integer_chart_checks_match_the_fraction_residual_oracle(points):
    p, bad = points
    for q in (p, bad):
        residuals = chart_equation_residuals(q)
        assert set(chart_relations(q)) == set(residuals)
        assert failed_equations(q) == sorted(name for name, r in residuals.items() if r != 0)
        assert verify_product_identity(q) == (product_identity_residual(q) == 0)
    assert failed_equations(p) == [] and verify_product_identity(p)
    # every coordinate of a sampled point is nonzero and enters some relation
    # (at depth 0 only the product identity), so the replacement breaks one
    if p.depth:
        assert failed_equations(bad)
    else:
        assert not verify_product_identity(bad)
