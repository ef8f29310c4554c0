import random
from itertools import combinations, product

import pytest

from degex.complexes import euler_characteristic, f_vector, simplex_complex, validate
from degex.models import (
    SurfaceModel,
    cube_model,
    find_3_labeling,
    make_surface_model,
    quartic_model,
)

from oracles import labeling_is_valid


def test_quartic_model_shape_and_metadata():
    m = quartic_model()
    assert tuple(f_vector(m.sphere)) == (4, 6, 4)
    assert validate(m.sphere) == []
    assert euler_characteristic(m.sphere) == 2
    assert m.metadata.resolved_singularities == 24
    assert all(n == 4 for _, n in m.metadata.per_double_curve)
    assert len(m.metadata.per_double_curve) == 6


def brute_force_octahedron_f_vector():
    # divisors of the triple product: (axis, side); two meet iff they are not
    # the two sides of one axis; triple points pick one divisor per axis
    divisors = list(product(range(3), range(2)))
    adj = lambda a, b: a[0] != b[0]
    edges = [(a, b) for a, b in combinations(divisors, 2) if adj(a, b)]
    triples = [
        (a, b, c)
        for a, b, c in combinations(divisors, 3)
        if adj(a, b) and adj(a, c) and adj(b, c)
    ]
    return (len(divisors), len(edges), len(triples))


def test_cube_model_matches_adjacency_oracle():
    m = cube_model()
    assert tuple(f_vector(m.sphere)) == brute_force_octahedron_f_vector() == (6, 12, 8)
    assert validate(m.sphere) == []
    assert m.metadata.resolved_singularities == 24
    assert all(n == 2 for _, n in m.metadata.per_double_curve)
    assert len(m.metadata.per_double_curve) == 12


def test_cube_labeling_exists_and_pairs_opposites():
    m = cube_model()
    lab = find_3_labeling(m)
    assert lab is not None
    assert labeling_is_valid(m, lab)
    # opposite vertices (the non-adjacent pairs) share a label
    edge_set = set(m.edges)
    for a in m.vertices:
        for b in m.vertices:
            if a < b and (a, b) not in edge_set:
                assert lab[a] == lab[b]


def test_quartic_has_no_labeling_exhaustive():
    m = quartic_model()
    assert find_3_labeling(m) is None
    # independent oracle: all 3^4 assignments fail on some triangle
    for labels in product((1, 2, 3), repeat=4):
        lab = dict(zip(sorted(m.vertices), labels))
        assert not labeling_is_valid(m, lab)


def test_make_surface_model_rejects_an_open_or_non_spherical_surface():
    with pytest.raises(ValueError, match=r"edge \('A', 'B'\) has 1 coface triangles"):
        make_surface_model("disk", [("A", "B", "C")])
    # the 7-vertex torus: every edge has two coface triangles, and chi = 0
    names = [f"Y{i}" for i in range(7)]
    torus = [
        (names[i], names[(i + a) % 7], names[(i + 3) % 7]) for i in range(7) for a in (1, 2)
    ]
    with pytest.raises(ValueError, match="model torus: Euler characteristic != 2"):
        make_surface_model("torus", torus)
    # a repeated triangle, in any vertex order, is one cell id twice
    repeated = [*combinations("ABCD", 3), ("C", "B", "A")]
    with pytest.raises(ValueError, match=r"duplicate cell id t:A\|B\|C"):
        make_surface_model("repeated", repeated)
    with pytest.raises(ValueError, match=r"duplicate cell id t:A\|B\|C"):
        simplex_complex([("A", "B", "C"), ("C", "B", "A")])


def test_single_triangle_disk_labeling():
    disk = SurfaceModel(
        "disk",
        simplex_complex([("A", "B", "C")]),
        ("A", "B", "C"),
        (("A", "B"), ("A", "C"), ("B", "C")),
        (("A", "B", "C"),),
    )
    lab = find_3_labeling(disk)
    assert lab is not None
    assert sorted(lab.values()) == [1, 2, 3]


def test_labeling_invariant_under_vertex_relabeling():
    rng = random.Random(3)
    m = cube_model()
    for _ in range(10):
        perm = list(m.vertices)
        rng.shuffle(perm)
        rename = dict(zip(m.vertices, perm))
        shuffled = make_surface_model(
            "cube-shuffled", [tuple(rename[v] for v in t) for t in m.triangles]
        )
        lab = find_3_labeling(shuffled)
        assert lab is not None
        assert labeling_is_valid(shuffled, lab)


def test_labeling_rechecked_on_every_triangle():
    m = cube_model()
    lab = find_3_labeling(m)
    for tri in m.triangles:
        assert sorted(lab[v] for v in tri) == [1, 2, 3]
