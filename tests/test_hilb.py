import pytest

from degex import hilb
from degex.complexes import (
    betti_numbers,
    euler_characteristic,
    euler_of_counts,
    f_vector,
    face_relation_signature,
    h1_torsion,
    validate,
)
from degex.hilb import (
    CUBE_CLAIMED_TOTALS,
    REFERENCE_CP2_10_VERTEX,
    EnumerationMismatch,
    all_stable,
    build_pi,
    classify_config,
    compare_with_reference,
    enumerate_cases,
    make_config,
    structure_for,
)
from degex.models import cube_model, quartic_model

QUARTIC_BREAKDOWNS = {
    0: (10,),
    1: (24, 6, 12, 3),
    2: (10, 16, 48, 30, 6),
    3: (48, 72),
    4: (12, 36),
}


def test_quartic_case_breakdowns_match_proof():
    m = quartic_model()
    for k, expected in QUARTIC_BREAKDOWNS.items():
        bd = enumerate_cases(m, k)
        assert tuple(n for _, n in bd.cases) == expected
        assert bd.total() == REFERENCE_CP2_10_VERTEX[k]


def test_cube_case_totals():
    m = cube_model()
    totals = tuple(enumerate_cases(m, k).total() for k in range(5))
    # codimension-2 types: 150, not the claimed 120; the other entries agree
    assert totals == (21, 150, 420, 480, 192)
    assert euler_of_counts(totals) == 3


def test_quartic_closure_f_vector_and_validation():
    K, info = build_pi(quartic_model(), m=2)
    assert tuple(info["f_vector"]) == REFERENCE_CP2_10_VERTEX
    assert validate(K) == []
    assert len(K) == 333
    assert euler_characteristic(K) == 3


def test_quartic_homology():
    K, _ = build_pi(quartic_model(), m=2)
    assert betti_numbers(K) == (1, 0, 1, 0, 1)
    assert h1_torsion(K) == []


def test_cube_homology():
    K, _ = build_pi(cube_model(), m=2)
    assert betti_numbers(K) == (1, 0, 1, 0, 1)
    assert h1_torsion(K) == []


def test_cube_closure_f_vector():
    K, info = build_pi(cube_model(), m=2)
    assert tuple(info["f_vector"]) == (21, 150, 420, 480, 192)
    assert validate(K) == []
    assert euler_characteristic(K) == 3


def test_m1_reproduces_the_spheres():
    for model in (quartic_model(), cube_model()):
        K, info = build_pi(model, m=1)
        assert tuple(info["f_vector"]) == tuple(f_vector(model.sphere))
        assert validate(K) == []
        assert betti_numbers(K) == (1, 0, 1)
        # identical face structure, not just equal counts
        assert len(face_relation_signature(K)) == len(face_relation_signature(model.sphere))


def test_facet_slots_and_boundary():
    m = quartic_model()
    K, _ = build_pi(m, m=2)
    for cell in K.cells():
        assert len(cell.faces) == (0 if cell.dim == 0 else cell.dim + 1)


def test_specialize_vertex_matches_incidence():
    K, _ = build_pi(quartic_model(), m=2)
    v = make_config(1, (("Y", "Y1"), ("Y", "Y1"))).canonical_key
    # the vertex specializes to exactly the edges having it as a face
    assert sum(1 for e in K.cells_of_dim(1) if v in {fid for fid, _ in e.faces}) == 9


def test_facet_outside_the_stable_types_is_a_dangling_face(monkeypatch):
    collapse_point = hilb.collapse_point

    def leaky(p, i, c, structure):
        # send one component of the codimension-2 fibre nowhere
        if (p, i, c) == (("Y", "Y1"), 1, 2):
            return ("Y", "Y0")
        return collapse_point(p, i, c, structure)

    monkeypatch.setattr(hilb, "collapse_point", leaky)
    with pytest.raises(EnumerationMismatch) as exc:
        build_pi(quartic_model(), m=2)
    assert any(v.startswith("dangling face id") for v in exc.value.diff["violations"])


def test_codim5_is_deepest():
    m = quartic_model()
    s = structure_for(m)
    assert all_stable(s, 5) != []
    assert all_stable(s, 6) == []


def test_same_corner_deep_types_are_three_per_corner():
    m = quartic_model()
    K, info = build_pi(m, m=2)
    same_corner = [
        c
        for c in K.cells_of_dim(4)
        if classify_config(
            make_config(5, _points_from_key(c.id)), m
        )
        == "two splittings of one corner"
    ]
    assert len(same_corner) == 12  # three stable splittings on each corner


def _points_from_key(key: str):
    # reparse a canonical key back into points (test helper)
    body = key.split(":", 1)[1]
    pts = []
    for part in body.split(" + "):
        if part.startswith("B["):
            inside, levels = part[2:].split("]@")
            j, k = levels.split(",")
            pts.append(("B", tuple(inside.split("|")), int(j), int(k)))
        elif part.startswith("E["):
            inside, level = part[2:].split("]@")
            pts.append(("E", tuple(inside.split("|")), int(level)))
        else:
            pts.append(("Y", part))
    return tuple(pts)


def test_canonicalization_idempotent_and_exchange_invariant():
    p1 = ("E", ("Y1", "Y2"), 1)
    p2 = ("B", ("Y1", "Y2", "Y3"), 1, 2)
    a = make_config(3, (p1, p2))
    b = make_config(3, (p2, p1))
    assert a == b
    assert a.canonical_key == b.canonical_key
    assert make_config(3, a.points) == a


def test_compare_with_reference_quartic():
    rep = compare_with_reference(REFERENCE_CP2_10_VERTEX, "quartic", m=2)
    assert rep["matches_reference"]
    assert rep["computed_euler"] == 3
    assert rep["flags"] == []


def test_compare_with_reference_cube_flags():
    rep = compare_with_reference((21, 150, 420, 480, 192), "cube", m=2)
    assert not rep["matches_reference"]
    assert rep["reference"]["euler"] == 33
    assert any("alternating sum 33" in f for f in rep["flags"])
    assert rep["computed_euler"] == 3


def test_compare_with_reference_m1():
    rep = compare_with_reference((4, 6, 4), "quartic", m=1)
    assert rep["matches_reference"] and rep["flags"] == []


def test_symmetry_equivariance_on_cube():
    # swapping the two components of one coordinate pair preserves the
    # labeling and the assignment, so it permutes cells of every dimension
    m = cube_model()
    K, info = build_pi(m, m=2)
    swap = {"Y1": "Y2", "Y2": "Y1"}
    sigma = lambda v: swap.get(v, v)

    def map_point(p):
        if p[0] == "Y":
            return ("Y", sigma(p[1]))
        if p[0] == "E":
            return ("E", tuple(sorted(map(sigma, p[1]))), p[2])
        return ("B", tuple(sorted(map(sigma, p[1]))), p[2], p[3])

    for dim in range(5):
        keys = {c.id for c in K.cells_of_dim(dim)}
        mapped = {
            make_config(dim + 1, tuple(map(map_point, _points_from_key(k)))).canonical_key
            for k in keys
        }
        assert mapped == keys
