import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from degex import hilb
from degex.complexes import (
    DeltaComplex,
    _morse_boundaries,
    betti_numbers,
    euler_characteristic,
    euler_of_counts,
    f_vector,
    h1_torsion,
    validate,
)
from degex.expansion import edge_orientation, edge_roles, subdivide
from degex.hilb import (
    REFERENCE_CP2_10_VERTEX,
    EnumerationMismatch,
    all_stable,
    build_pi,
    builtin_assignment,
    collapse_point,
    compare_with_reference,
    components_at_codim,
    enumerate_cases,
    homology_report,
    type_key,
)
from degex.models import (
    cube_model,
    find_3_labeling,
    get_model,
    make_surface_model,
    quartic_model,
)

from oracles import (
    bad_quartic_assignment,
    brute_force_stable,
    case_collapse_point,
    classify_config,
    face_relation_signature,
    key_per_facet_cells,
    stable_points,
    stable_type_count,
)

QUARTIC_BREAKDOWNS = {
    0: (10,),
    1: (24, 6, 12, 3),
    2: (10, 16, 48, 30, 6),
    3: (48, 72),
    4: (12, 36),
}
CUBE_BREAKDOWNS = {
    0: (21,),
    1: (48, 12, 24, 30, 12, 24),
    2: (36, 48, 192, 132, 12),
    3: (192, 288),
    4: (24, 168),
}


def facet_maps(surface):
    """The role edges and edge orientation the facet maps read, as build_pi
    makes them from the complex's built-in assignment."""
    assignment = builtin_assignment(surface)
    roles = {t: edge_roles(assignment, t) for t in surface.triangles}
    return roles, edge_orientation(surface, assignment)


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_structure_reads_every_edge_from_its_distinguished_endpoint(model):
    # both built-in assignments read every edge from its later vertex in
    # their vertex order: Y1 < Y4 < Y3 < Y2, and labels 1 < 3 < 2
    surface = get_model(model)
    assignment = builtin_assignment(surface)
    orientation = edge_orientation(surface, assignment)
    if model == "quartic":
        rank = {v: ["Y1", "Y4", "Y3", "Y2"].index(v) for v in surface.vertices}
    else:
        rank = {v: [1, 3, 2].index(label) for v, label in find_3_labeling(surface).items()}
    for tri in surface.triangles:
        F, S, T = assignment.roles(tri)
        for (a, b), dist in (((F, S), S), ((S, T), S), ((F, T), T)):
            e = tuple(sorted((a, b)))
            assert orientation[e] == dist == max(e, key=rank.__getitem__)
            assert set(e) == {orientation[e], a if dist == b else b}
    assert len(orientation) == len(surface.edges)


def test_a_structure_needs_a_gluing_assignment():
    # the named edge is the first one check_gluing reports
    with pytest.raises(ValueError, match=r"does not glue on \('Y1', 'Y4'\)"):
        edge_orientation(quartic_model(), bad_quartic_assignment())


def test_quartic_case_breakdowns_match_proof():
    m = quartic_model()
    for k, expected in QUARTIC_BREAKDOWNS.items():
        bd = enumerate_cases(m, k)
        assert tuple(n for _, n in bd.cases) == expected
        assert bd.total() == REFERENCE_CP2_10_VERTEX[k]


def test_cube_case_totals():
    m = cube_model()
    for k, expected in CUBE_BREAKDOWNS.items():
        assert tuple(n for _, n in enumerate_cases(m, k).cases) == expected
    totals = tuple(enumerate_cases(m, k).total() for k in range(5))
    # codimension-2 types: 150, not the claimed 120; the other entries agree
    assert totals == (21, 150, 420, 480, 192)
    assert euler_of_counts(totals) == 3


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_each_listed_type_classifies_into_the_family_that_lists_it(model):
    surface = get_model(model)
    for k in range(5):
        for family, types in enumerate_cases(surface, k).families.items():
            assert types
            for points in types:
                assert classify_config(k + 1, points, surface) == family, (k, points)


def test_quartic_closure_f_vector_and_validation():
    K, _ = build_pi(quartic_model(), m=2)
    assert f_vector(K) == REFERENCE_CP2_10_VERTEX
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


def test_hilb2_coreduces_to_one_critical_cell_in_each_even_degree():
    for model in (quartic_model(), cube_model()):
        K, _ = build_pi(model, m=2)
        assert [M.cols for M in _morse_boundaries(K)] == [1, 0, 1, 0, 1]


def test_quartic_hilb3_homology():
    # 13,444 cells: about 0.35 s to build and 0.06 s to coreduce on a 2-core x86
    # host, where the full boundary matrices take 3 s and 194 MB
    K, breakdowns = build_pi(quartic_model(), m=3)
    assert breakdowns == []
    assert f_vector(K) == (20, 200, 1120, 3160, 4624, 3360, 960)
    assert [M.cols for M in _morse_boundaries(K)] == [1, 0, 1, 0, 1, 0, 1]
    assert betti_numbers(K) == (1, 0, 1, 0, 1, 0, 1)
    assert h1_torsion(K) == []


def test_homology_report_targets_the_betti_numbers_of_cp_m():
    for m, target in ((1, [1, 0, 1]), (2, [1, 0, 1, 0, 1]), (3, [1, 0, 1, 0, 1, 0, 1])):
        report = homology_report(quartic_model(), m)
        assert report["betti"] == report["target_betti"] == target
        assert report["matches_target"] is True


def test_cube_closure_f_vector():
    K, breakdowns = build_pi(cube_model(), m=2)
    assert f_vector(K) == (21, 150, 420, 480, 192)
    assert breakdowns == [enumerate_cases(cube_model(), k) for k in range(5)]
    assert validate(K) == []
    assert euler_characteristic(K) == 3


def test_m1_reproduces_the_spheres():
    for model in (quartic_model(), cube_model()):
        K, breakdowns = build_pi(model, m=1)
        assert breakdowns == []
        assert f_vector(K) == f_vector(model.sphere)
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
    v = type_key(1, (("Y", "Y1"), ("Y", "Y1")))
    # the vertex specializes to exactly the edges having it as a face
    assert sum(1 for e in K.cells_of_dim(1) if v in {fid for fid, _ in e.faces}) == 9


def test_facet_outside_the_stable_types_is_a_dangling_face(monkeypatch):
    collapse_point = hilb.collapse_point

    def leaky(p, i, c, roles, orientation):
        # send one component of the codimension-2 fibre nowhere
        if (p, i, c) == (("Y", "Y1"), 1, 2):
            return ("Y", "Y0")
        return collapse_point(p, i, c, roles, orientation)

    monkeypatch.setattr(hilb, "collapse_point", leaky)
    with pytest.raises(EnumerationMismatch) as exc:
        build_pi(quartic_model(), m=2)
    # the leaked facet keeps its own canonical key, which names no cell
    assert any(
        v.startswith("dangling face id") and v.endswith(": c1:Y0 + Y2")
        for v in exc.value.diff["violations"]
    )


@pytest.mark.parametrize(
    "model, m", [("quartic", 1), ("quartic", 2), ("quartic", 3), ("cube", 1), ("cube", 2)]
)
def test_cells_match_the_key_per_facet_construction(model, m):
    K, _ = build_pi(get_model(model), m)
    reference = DeltaComplex(key_per_facet_cells(get_model(model), m))
    assert [(c.id, c.dim, c.label, c.faces) for c in K.cells()] == [
        (c.id, c.dim, c.label, c.faces) for c in reference.cells()
    ]


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_collapse_point_matches_the_case_analysis(model):
    surface = get_model(model)
    roles, orientation = facet_maps(surface)
    assignment = builtin_assignment(surface)
    for c in range(2, 9):
        for p in components_at_codim(surface, c):
            for i in range(1, c + 1):
                assert collapse_point(p, i, c, roles, orientation) == case_collapse_point(
                    p, i, c, assignment
                ), (p, i, c)


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_collapse_maps_satisfy_the_simplicial_identities(model):
    # d_i d_j = d_{j-1} d_i for i < j, on every component at c = 3..9
    surface = get_model(model)
    roles, orientation = facet_maps(surface)

    def d(i, p, c):
        return collapse_point(p, i, c, roles, orientation)

    for c in range(3, 10):
        for p in components_at_codim(surface, c):
            for i, j in combinations(range(1, c + 1), 2):
                assert d(i, d(j, p, c), c - 1) == d(j - 1, d(i, p, c), c - 1), (p, i, j, c)


def _chord_coordinates(E) -> dict:
    """(triangle, (u, w)) -> id of every non-centre 0-cell of E, where u and
    w are the positions along F-S, from S, at which the chords parallel to
    S-T and to F-T through the cell start.  The S-T side is the chord u = 0
    and the F-T side the chord w = 1."""
    P = (0,) + E.positions + (1,)
    cells = {}
    for tri in E.model.triangles:
        F, S, T = E.assignment.roles(tri)
        cells.update({(tri, (0, 0)): f"v:{S}", (tri, (1, 1)): f"v:{F}", (tri, (0, 1)): f"v:{T}"})
        # at depth 0 there is no node, and no line
        for role, (e, dist) in edge_roles(E.assignment, tri).items() if E.lines else ():
            line = E.lines[e]
            for name, nid in zip(line.names, line.ids[1:-1]):
                p = Fraction(name) if dist == e[0] else 1 - Fraction(name)
                cells[tri, {"FS": (p, p), "ST": (0, p), "FT": (p, 1)}[role]] = nid
    for box in E.boxes:
        j, k = box.levels
        cells[box.triangle, (P[j], P[k])] = box.cell_id
    return cells


def _components(E) -> dict:
    """Cell id -> Hilbert-scheme component of every non-centre 0-cell of E."""
    comps = {f"v:{v}": ("Y", v) for v in E.model.vertices}
    for e, line in E.lines.items():
        for nid, levels in zip(line.ids[1:-1], line.node_levels()):
            (level,) = set(levels.values())
            comps[nid] = ("E", e, level)
    for box in E.boxes:
        comps[box.cell_id] = ("B", box.triangle, *box.levels)
    return comps


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_face_maps_contract_a_segment_of_the_subdivision(model):
    # the components of codimension n+1 are the non-centre 0-cells of the
    # depth-n subdivision; slot i contracts segment t_i, from P_{i-1} to P_i
    # (P_0 = 0 and P_{n+1} = 1), onto the endpoint that stays a node, so
    # P_min(i, n) is dropped and the image is read off by position
    surface = get_model(model)
    assignment = builtin_assignment(surface)
    roles, orientation = facet_maps(surface)
    for n in range(1, 5):
        P = tuple(Fraction(k * k, (n + 1) ** 2 + 1) for k in range(1, n + 1))
        E = subdivide(surface, assignment, n, P)
        cells, comps = _chord_coordinates(E), _components(E)
        assert len(cells) == len(surface.triangles) * (n + 2) * (n + 3) // 2
        assert sorted(set(comps.values())) == components_at_codim(surface, n + 1)
        ends = (0,) + P + (1,)
        for i in range(1, n + 2):
            lo, hi = ends[i - 1], ends[i]
            drop, keep = (hi, lo) if i <= n else (lo, hi)
            move = {drop: keep}
            E2 = subdivide(surface, assignment, n - 1, [p for p in P if p != drop])
            cells2, comps2 = _chord_coordinates(E2), _components(E2)
            for (tri, (u, w)), cid in cells.items():
                image = cells2[tri, (move.get(u, u), move.get(w, w))]
                assert collapse_point(comps[cid], i, n + 1, roles, orientation) == comps2[image]


def test_a_census_mismatch_lists_the_sorted_keys_on_each_side(monkeypatch):
    model = quartic_model()
    census = hilb.enumerate_cases
    double_point = (("E", ("Y1", "Y2"), 1), ("E", ("Y1", "Y2"), 1))
    not_stable = (("Y", "Y1"), ("Y", "Y2"))
    assert double_point in census(model, 1).families["double point on one edge bundle"]
    disjoint = census(model, 1).families["bundles over disjoint edges"]

    def miscounted(surface, k):
        breakdown = census(surface, k)
        if k != 1:
            return breakdown
        families = dict(breakdown.families)
        # listed first, so that an unsorted diff would show
        families["edge bundles meeting one corner"] = [not_stable] + families[
            "edge bundles meeting one corner"
        ]
        # the double point a second time, and no disjoint pair
        families["bundles over disjoint edges"] = [double_point]
        return breakdown._replace(families=families)

    monkeypatch.setattr(hilb, "enumerate_cases", miscounted)
    # types generated in key order would hide an unsorted diff
    generate = hilb.all_stable
    monkeypatch.setattr(hilb, "all_stable", lambda *args: generate(*args)[::-1])
    with pytest.raises(EnumerationMismatch) as exc:
        build_pi(model, m=2)
    diff = exc.value.diff
    assert diff["dimension"] == 1
    assert diff["case_counts"] == dict(miscounted(model, 1).cases)
    assert diff["case_counts"]["bundles over disjoint edges"] == 1
    assert diff["listed_not_stable"] == [type_key(2, double_point), type_key(2, not_stable)]
    assert diff["stable_not_listed"] == sorted(type_key(2, t) for t in disjoint)
    assert len(diff["stable_not_listed"]) == 3


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_pi_does_not_depend_on_the_order_of_the_input_triangles(model):
    # the case census pairs triangles in the model's order, and lists sorted
    # types only when that order is sorted
    built = get_model(model)
    K, breakdowns = build_pi(built)
    rng = random.Random(2021)
    orders = [built.triangles[::-1]]
    for _ in range(3):
        order = [rng.sample(t, 3) for t in built.triangles]
        rng.shuffle(order)
        orders.append(order)
    for triangles in orders:
        rebuilt = make_surface_model(built.name, triangles, built.metadata)
        K2, breakdowns2 = build_pi(rebuilt)
        assert [tuple(c) for c in K2.cells()] == [tuple(c) for c in K.cells()]
        assert [b.cases for b in breakdowns2] == [b.cases for b in breakdowns]
        assert rebuilt.triangles == built.triangles


def test_codim5_is_deepest():
    m = quartic_model()
    assert all_stable(m, 5) != []
    assert all_stable(m, 6) == []


@pytest.mark.parametrize("model", ["quartic", "cube"])
def test_hilb0_is_one_point(model):
    # the empty type occupies every level only at codimension 1
    built = get_model(model)
    assert [all_stable(built, c, 0) for c in (1, 2, 3)] == [[()], [], []]
    K, breakdowns = build_pi(built, 0)
    assert [tuple(c) for c in K.cells()] == [("c1:", 0, "", ())]
    assert breakdowns == []
    assert betti_numbers(K) == (1,)


@pytest.mark.parametrize("model, calls, kept", [("quartic", 1832, 333), ("cube", 6891, 1263)])
def test_the_leaf_test_refuses_full_choices_at_every_codimension_from_two(
    monkeypatch, model, calls, kept
):
    # the prune runs only while points are left to place, so is_stable is
    # the one test of every full choice, and it is not vacuous
    test = hilb.is_stable
    results = []

    def counted(covered, c):
        result = test(covered, c)
        results.append((c, result))
        return result

    monkeypatch.setattr(hilb, "is_stable", counted)
    K, _ = build_pi(get_model(model), 2)
    assert len(results) == calls
    assert sum(result for _, result in results) == kept == len(K)
    assert {c for c, result in results if not result} == {2, 3, 4, 5}
    assert {c for c, result in results if result} == {1, 2, 3, 4, 5}


# cube m=3 is left out: the brute-force filter alone takes about 5 s there
@pytest.mark.parametrize(
    "model, m", [("quartic", 1), ("quartic", 2), ("quartic", 3), ("cube", 1), ("cube", 2)]
)
def test_all_stable_equals_the_brute_force_filter(model, m):
    surface = get_model(model)
    for c in range(1, 2 * m + 3):
        assert stable_points(surface, c, m) == brute_force_stable(surface, c, m)


@pytest.mark.parametrize("model", ["quartic", "cube"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_stable_type_counts_match_the_closed_form(model, m):
    surface = get_model(model)
    counts = [len(all_stable(surface, c, m)) for c in range(1, 2 * m + 3)]
    assert counts == [stable_type_count(surface, c, m) for c in range(1, 2 * m + 3)]
    if (model, m) == ("cube", 3):
        assert counts[:-1] == [56, 1084, 7656, 23840, 36416, 26880, 7680]


def test_same_corner_deep_types_are_three_per_corner():
    m = quartic_model()
    K, _ = build_pi(m, m=2)
    same_corner = enumerate_cases(m, 4).families["two splittings of one corner"]
    assert len(same_corner) == 12  # three stable splittings on each corner
    assert Counter(a[1] for a, _ in same_corner) == {t: 3 for t in m.triangles}
    assert {type_key(5, points) for points in same_corner} <= {c.id for c in K.cells_of_dim(4)}


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
    # a type is its sorted tuple of component indices, and the components
    # are numbered in sorted order: all_stable yields every type exactly
    # once and already sorted, so no caller sorts it again
    p1 = ("E", ("Y1", "Y2"), 1)
    p2 = ("B", ("Y1", "Y2", "Y3"), 1, 2)
    for model in ("quartic", "cube"):
        surface = get_model(model)
        for c in range(1, 7):
            types = stable_points(surface, c, 2)
            assert all(list(points) == sorted(points) for points in types)
            assert len(set(types)) == len(types)
            assert all(list(t) == sorted(t) for t in all_stable(surface, c))
    types = stable_points(quartic_model(), 3, 2)
    assert (p2, p1) in types and (p1, p2) not in types
    assert type_key(3, (p2, p1)) == "c3:B[Y1|Y2|Y3]@1,2 + E[Y1|Y2]@1"


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


def test_compare_with_reference_targets_the_euler_characteristic_of_cp_m():
    # chi(CP^m) = m + 1; the CP^2 counts are no reference for Hilb^3
    for m, fv in ((1, (4, 6, 5)), (2, (10, 45, 110, 120, 49))):
        rep = compare_with_reference(fv, "quartic", m=m)
        assert rep["flags"][-1] == f"computed alternating sum {m + 2} differs from target {m + 1}"
    fv3 = (20, 200, 1120, 3160, 4624, 3360, 960)  # Hilb^3 of the quartic
    assert euler_of_counts(fv3) == 4
    for model in ("quartic", "cube"):
        with pytest.raises(ValueError, match="no reference f-vector for m=3"):
            compare_with_reference(fv3, model, m=3)


def test_symmetry_equivariance_on_cube():
    # swapping the two components of one coordinate pair preserves the
    # labeling and the assignment, so it permutes cells of every dimension
    m = cube_model()
    K, _ = build_pi(m, m=2)
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
        mapped = {type_key(dim + 1, sorted(map(map_point, _points_from_key(k)))) for k in keys}
        assert mapped == keys
