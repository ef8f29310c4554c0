import random
from fractions import Fraction
from hashlib import sha256
from itertools import permutations, product

import pytest

from degex import dumps
from degex.complexes import betti_numbers, euler_characteristic, h1_torsion, to_json, validate
from degex.expansion import (
    BlowupAssignment,
    assignment_from_order,
    check_gluing,
    check_torus_compatibility,
    edge_roles,
    expanded_complex_report,
    get_assignment,
    subdivide,
)
from degex.models import cube_model, quartic_model

from oracles import bad_quartic_assignment, node_census


def closed_surface(K):
    """Every 1-cell must bound exactly two 2-cells."""
    counts = {}
    for c in K.cells_of_dim(2):
        for fid, _ in c.faces:
            counts[fid] = counts.get(fid, 0) + 1
    return all(counts.get(e.id, 0) == 2 for e in K.cells_of_dim(1))


def assert_levels_follow_their_definition(E):
    """Check every side of every edge against the definitions, from the
    assignment's roles alone: a node's level k on a side means it sits at
    P_k from that side's distinguished endpoint (S on F-S and S-T, T on
    F-T), and an atomic segment's symbol is the number of that side's
    levels 0..n+1 on the distinguished side of the segment."""
    n = E.level
    P = (Fraction(0), *E.positions, Fraction(1))
    nodes = {e: [] for e in E.model.edges}
    for node in E.edge_nodes:
        nodes[node.edge].append(node)
    for tri in E.model.triangles:
        F, S, T = E.assignment.roles(tri)
        for (a, b), dist in (((F, S), S), ((S, T), S), ((F, T), T)):
            e = tuple(sorted((a, b)))
            # position of every point of e from its first endpoint
            at = {f"v:{e[0]}": Fraction(0), f"v:{e[1]}": Fraction(1)}
            at.update({node.cell_id: node.position for node in nodes[e]})

            def from_dist(vid):
                return at[vid] if dist == e[0] else 1 - at[vid]

            levels = {node.cell_id: node.levels[tri] for node in nodes[e] if tri in node.levels}
            assert sorted(levels.values()) == list(range(1, n + 1))
            for vid, k in levels.items():
                assert from_dist(vid) == P[k]
            segments = E.colored_segments[e][tri]
            assert len(segments) == len(at) - 1
            for seg in segments:
                ends = [fid for fid, _ in E.cells[seg["segment"]].faces]
                near = min(from_dist(vid) for vid in ends)
                assert seg["symbol"] == sum(1 for p in P if p <= near)


def assert_matches_the_node_census(E):
    """The nodes, levels and atomic segments of every edge side agree with
    the position-keyed census of `oracles.node_census`."""
    census = node_census(E.model, E.assignment, E.positions)
    assert [(node.edge, node.position, node.cell_id, node.levels) for node in E.edge_nodes] == [
        (e, *node) for e, (nodes, _) in census.items() for node in nodes
    ]
    for e, (nodes, segments) in census.items():
        points = [f"v:{e[0]}", *(nid for _, nid, _ in nodes), f"v:{e[1]}"]
        assert list(E.colored_segments[e]) == list(segments)
        for tri, expected in segments.items():
            segs = E.colored_segments[e][tri]
            assert [(s["symbol"], s["length"]) for s in segs] == [
                (k, str(length)) for k, length in expected
            ]
            for seg, a, b in zip(segs, points, points[1:]):
                assert {fid for fid, _ in E.cells[seg["segment"]].faces} == {a, b}


def test_default_assignment_pairs():
    a = get_assignment(quartic_model(), "default")
    assert a.pairs[("Y1", "Y2", "Y3")] == ("Y1", "Y2")
    assert a.pairs[("Y1", "Y3", "Y4")] == ("Y1", "Y3")
    assert a.pairs[("Y2", "Y3", "Y4")] == ("Y4", "Y2")


def test_subdivide_n0_returns_model():
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), 0)
    assert E.cells is m.sphere
    assert E.exceptional_vertex_count() == 0


def test_quartic_n1_census():
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), 1)
    # one glued node per tetrahedron edge; each triangle cut into 3 regions
    assert len(E.edge_nodes) == 6
    assert len(E.boxes) == 0
    assert set(E.regions_per_triangle.values()) == {3}
    assert validate(E.cells) == []
    assert euler_characteristic(E.cells) == 2
    assert closed_surface(E.cells)


def test_quartic_n2_census():
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), 2)
    # explicit cell census: 2 nodes per edge plus one corner box per triangle
    assert len(E.edge_nodes) == 12
    assert len(E.boxes) == 4
    assert E.exceptional_vertex_count() == 16
    assert set(E.regions_per_triangle.values()) == {6}
    assert validate(E.cells) == []
    assert euler_characteristic(E.cells) == 2
    assert closed_surface(E.cells)


def test_quartic_default_glues_n1():
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), 1)
    assert check_gluing(E).glues


def test_bad_assignment_fails_on_Y2_Y3():
    m = quartic_model()
    E = subdivide(m, bad_quartic_assignment(), 1)
    report = check_gluing(E)
    assert not report.glues
    edges = {tuple(f["edge"]) for f in report.failures}
    assert ("Y2", "Y3") in edges
    # the flattened tropical picture also shows the Y1-Y4 copies disagreeing
    assert edges <= {("Y2", "Y3"), ("Y1", "Y4")}


def test_bad_assignment_fails_at_generic_params_too():
    m = quartic_model()
    E = subdivide(m, bad_quartic_assignment(), 1, positions=[Fraction(1, 3)])
    report = check_gluing(E)
    assert not report.glues
    assert ("Y2", "Y3") in {tuple(f["edge"]) for f in report.failures}


@pytest.mark.parametrize(
    "P",
    # the sides of a failing edge share no node, or share each with swapped levels
    [(Fraction(1, 5), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
)
def test_a_gluing_failure_lists_the_nodes_each_side_places(P):
    m = quartic_model()
    E = subdivide(m, bad_quartic_assignment(), 2, positions=P)
    failures = check_gluing(E).failures
    assert failures
    for failure in failures:
        e = tuple(failure["edge"])
        for side in failure["sides"]:
            roles = edge_roles(E.assignment, tuple(side["triangle"]))
            dist = dict(roles.values())[e]
            assert side["distinguished_endpoint"] == dist
            # level k sits at P_k from the side's distinguished endpoint
            from_u = [p if dist == e[0] else 1 - p for p in P]
            nodes = sorted(zip(from_u, (1, 2)))
            assert side["nodes"] == [{"position": str(p), "level": k} for p, k in nodes]


def test_cube_labeling_assignment_glues():
    m = cube_model()
    a = get_assignment(m, "labeling")
    E = subdivide(m, a, 1)
    assert check_gluing(E).glues
    assert len(E.edge_nodes) == 12
    assert set(E.regions_per_triangle.values()) == {3}
    assert validate(E.cells) == []
    assert closed_surface(E.cells)


def test_labeling_assignment_rejects_quartic():
    with pytest.raises(ValueError):
        get_assignment(quartic_model(), "labeling")


def test_single_triangle_pair_from_labeling():
    from degex.complexes import simplex_complex
    from degex.models import SurfaceModel, find_3_labeling

    disk = SurfaceModel(
        "disk",
        simplex_complex([("A", "B", "C")]),
        ("A", "B", "C"),
        (("A", "B"), ("A", "C"), ("B", "C")),
        (("A", "B", "C"),),
    )
    lab = find_3_labeling(disk)
    a = get_assignment(disk, "labeling")
    (f, s) = a.pairs[("A", "B", "C")]
    assert lab[f] == 1 and lab[s] == 2


def test_gluing_holds_up_to_depth_4_random_params():
    rng = random.Random(12345)
    m = quartic_model()
    a = get_assignment(m, "default")
    for n in range(0, 5):
        for _ in range(3):
            cuts = sorted(
                {Fraction(rng.randint(1, 30), 31) for _ in range(n)}
            )
            if len(cuts) != n:
                continue
            E = subdivide(m, a, n, positions=cuts)
            assert check_gluing(E).glues
            assert validate(E.cells) == []
            assert euler_characteristic(E.cells) == 2
            assert closed_surface(E.cells)


def test_gluing_report_independent_of_processing_order():
    m = quartic_model()
    items = list(bad_quartic_assignment().pairs.items())
    a1 = BlowupAssignment(dict(items))
    a2 = BlowupAssignment(dict(reversed(items)))
    r1 = check_gluing(subdivide(m, a1, 1))
    r2 = check_gluing(subdivide(m, a2, 1))
    assert r1.failures == r2.failures


def test_color_length_bookkeeping_matches_across_sides():
    m = quartic_model()
    E = subdivide(m, get_assignment(m, "default"), 2, positions=[Fraction(1, 5), Fraction(1, 2)])
    assert check_gluing(E).glues
    for e, sides in E.colored_segments.items():
        views = [
            [(s["symbol"], s["length"]) for s in segs] for segs in sides.values()
        ]
        assert views[0] == views[1]
        # read from the distinguished endpoint the colors are green, pink, t3
        tri = sorted(sides)[0]
        colors = [s["color"] for s in sides[tri]]
        if E.distinguished[e][tri] != e[0]:
            colors = list(reversed(colors))
        assert colors == ["green", "pink", "t3"]


def test_torus_compatibility_passes_for_good_assignments():
    qm = quartic_model()
    qa = get_assignment(qm, "default")
    cm = cube_model()
    ca = get_assignment(cm, "labeling")
    for n in (1, 2):
        Eq = subdivide(qm, qa, n)
        assert check_torus_compatibility(Eq).compatible
        Ec = subdivide(cm, ca, n)
        assert check_torus_compatibility(Ec).compatible


def test_each_side_gives_a_node_one_level_for_every_quartic_assignment():
    # the lemma that lets the torus check skip chords: a chord endpoint can
    # only disagree with its owning triangle where the node's sides differ
    m = quartic_model()
    assignments = [
        BlowupAssignment(dict(zip(m.triangles, pairs)))
        for pairs in product(*(permutations(t, 2) for t in m.triangles))
    ]
    assert len(assignments) == 1296
    with_foreign_nodes = 0
    gluing = set()
    for assignment in assignments:
        for n in (1, 2):
            E = subdivide(m, assignment, n)
            # read along each edge, the nodes each side places carry its
            # levels 1..n, each once, from one endpoint
            for e, sides in E.distinguished.items():
                on_e = [node for node in E.edge_nodes if node.edge == e]
                for t in sides:
                    levels = [node.levels[t] for node in on_e if t in node.levels]
                    assert levels in (list(range(1, n + 1)), list(range(n, 0, -1)))
            glues = check_gluing(E).glues
            assert check_torus_compatibility(E).compatible == glues
            if n == 1 and glues:
                gluing.add(tuple(sorted(assignment.pairs.items())))
        # at these positions a side whose distinguished endpoint differs from
        # its neighbour's has nodes the neighbour lacks: the neighbour's
        # regions must take them into their boundary cycles
        E = subdivide(m, assignment, 2, positions=[Fraction(1, 5), Fraction(1, 2)])
        with_foreign_nodes += any(len(node.levels) == 1 for node in E.edge_nodes)
        # a node only one side places is a torus conflict too
        assert check_torus_compatibility(E).compatible == check_gluing(E).glues
        assert_levels_follow_their_definition(E)
        assert validate(E.cells) == []
        assert closed_surface(E.cells)
        assert euler_characteristic(E.cells) == 2
        # 1/5 and 1/3 are not mirrors of each other, so the two sides of a
        # failing edge share no node there: only the nodes one side places
        # tell the torus check that the assignment does not glue
        E = subdivide(m, assignment, 2, positions=[Fraction(1, 5), Fraction(1, 3)])
        assert check_torus_compatibility(E).compatible == check_gluing(E).glues
    assert with_foreign_nodes == 1272
    # gluing means a vertex order: every edge read from its later vertex
    orders = {
        tuple(sorted(assignment_from_order(m, order).pairs.items()))
        for order in permutations(m.vertices)
    }
    assert len(orders) == 24
    assert gluing == orders


@pytest.mark.parametrize("positions", [(Fraction(1, 2),), (Fraction(1, 3),)])
def test_every_quartic_assignment_matches_the_node_census_at_depth_1(positions):
    m = quartic_model()
    for pairs in product(*(permutations(t, 2) for t in m.triangles)):
        assignment = BlowupAssignment(dict(zip(m.triangles, pairs)))
        assert_matches_the_node_census(subdivide(m, assignment, 1, positions))


def test_sampled_cube_assignments_match_the_node_census():
    # vertex orders glue; random pairs almost never do; positions not closed
    # under P -> 1 - P give the sides of a failing edge distinct nodes
    m = cube_model()
    rng = random.Random(27)
    glued = 0
    for n in range(1, 5):
        for trial in range(12):
            while True:
                positions = sorted(Fraction(p, 97) for p in rng.sample(range(1, 97), n))
                if {1 - p for p in positions} != set(positions):
                    break
            if trial % 2:
                assignment = BlowupAssignment({t: tuple(rng.sample(t, 2)) for t in m.triangles})
            else:
                assignment = assignment_from_order(m, rng.sample(m.vertices, len(m.vertices)))
            E = subdivide(m, assignment, n, positions)
            glued += check_gluing(E).glues
            assert_matches_the_node_census(E)
    assert glued == 24


def test_foreign_nodes_keep_their_order_along_a_region_side():
    # at these positions a side whose distinguished endpoint differs from its
    # neighbour's has three foreign nodes between its levels 3 and 4; a region
    # cycle that lists them in the wrong order no longer closes up a sphere
    positions = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
    rng = random.Random(19)
    for m in (quartic_model(), cube_model()):
        with_foreign_nodes = 0
        for _ in range(40):
            assignment = BlowupAssignment({t: tuple(rng.sample(t, 2)) for t in m.triangles})
            E = subdivide(m, assignment, 3, positions=positions)
            with_foreign_nodes += any(len(node.levels) == 1 for node in E.edge_nodes)
            # here the sides of a failing edge share no node at all
            assert check_torus_compatibility(E).compatible == check_gluing(E).glues
            assert validate(E.cells) == []
            assert euler_characteristic(E.cells) == 2
            assert betti_numbers(E.cells) == (1, 0, 1)
            assert h1_torsion(E.cells) == []
        assert with_foreign_nodes == 40


@pytest.mark.parametrize(
    "model, assignment, n, positions, cells, digest, report",
    [
        (
            cube_model(),
            get_assignment(cube_model(), "labeling"),
            8,
            None,
            4106,
            "d0eb8cbb7ea0a47a2923a11b574d4777368b285f0c9d0f9237e2a7cef85e7109",
            "5195ba7a667d2f485b2a35aa97243590c07d3c09e90e965c0f79f9a5f422b6a7",
        ),
        # places foreign nodes, so region cycles run across them
        (
            quartic_model(),
            bad_quartic_assignment(),
            2,
            (Fraction(1, 5), Fraction(1, 2)),
            266,
            "2f802ec93a559d6520330a961cd01374301e1d3ec73feb351ed3cfa4afb91d39",
            "ecb48129d04854c532c0359938ee5c7f1ba0598041d11f998f7c0986679c15f7",
        ),
        # the two sides of a failing edge share no node
        (
            quartic_model(),
            bad_quartic_assignment(),
            2,
            (Fraction(1, 5), Fraction(1, 3)),
            278,
            "7a07371462968f9cb11d0523f2240f4945a21e5ff7899489fdae33bb6e7a8d3a",
            "061dd6b5848103f10a0309dda1f99720586313d2b46789dc7a02f64d4494ac09",
        ),
        (
            cube_model(),
            get_assignment(cube_model(), "labeling"),
            1,
            (Fraction(2, 7),),
            242,
            "a85521057c1997130ffc4c505d8c18f817e6d5ae6548d0c520647eab82a82d6c",
            "2d7b0bbcfa4c913810a099e9fff2ef0f2d4bb0cc9ce1e80c442725d38ff0e858",
        ),
        (
            cube_model(),
            get_assignment(cube_model(), "labeling"),
            3,
            (Fraction(1, 9), Fraction(2, 5), Fraction(5, 6)),
            866,
            "ec9ba5fc47c2779051ddc345a44d6afeafb293796cf3b9fd3dad5c32e8b8ed96",
            "7707fd3e7c894222c7c80cb27b94f4672af35351768a25f150d4ea75944b0d24",
        ),
    ],
)
def test_subdivided_complex_is_byte_identical(
    model, assignment, n, positions, cells, digest, report
):
    # expand reports only counts, so this pins the ids, labels, faces and
    # cell order of the expansion itself, and its full report
    E = subdivide(model, assignment, n, positions)
    assert len(E.cells) == cells
    assert sha256(to_json(E.cells).encode()).hexdigest() == digest
    assert sha256(dumps(expanded_complex_report(E)).encode()).hexdigest() == report


def test_sampled_cube_vertex_orders_glue_and_are_torus_compatible():
    m = cube_model()
    orders = list(permutations(m.vertices))
    assert len(orders) == 720
    for order in random.Random(16).sample(orders, 24):
        E = subdivide(m, assignment_from_order(m, order), 1)
        assert check_gluing(E).glues
        assert check_torus_compatibility(E).compatible


def test_cube_levels_follow_their_definition_at_random_positions():
    m = cube_model()
    a = get_assignment(m, "labeling")
    rng = random.Random(15)
    for n in range(1, 5):
        for _ in range(5):
            positions = sorted(Fraction(p, 100) for p in rng.sample(range(1, 100), n))
            assert_levels_follow_their_definition(subdivide(m, a, n, positions))


def flipped_corner_assignment():
    pairs = dict(get_assignment(quartic_model(), "default").pairs)
    f, s = pairs[("Y1", "Y2", "Y3")]
    pairs[("Y1", "Y2", "Y3")] = (s, f)
    return BlowupAssignment(pairs)


def test_flipped_corner_reports_named_conflict():
    m = quartic_model()
    for n in (1, 2):
        E = subdivide(m, flipped_corner_assignment(), n)
        report = check_torus_compatibility(E)
        assert not report.compatible
        assert all("cell" in c for c in report.conflicts)
        assert all(c["kind"] == "node arrow mismatch" for c in report.conflicts)


def test_flipped_corner_also_fails_gluing_on_colors():
    m = quartic_model()
    E = subdivide(m, flipped_corner_assignment(), 1)
    report = check_gluing(E)
    assert not report.glues


def test_position_validation():
    m = quartic_model()
    a = get_assignment(m, "default")
    with pytest.raises(ValueError):
        subdivide(m, a, 2, positions=[Fraction(2, 3), Fraction(1, 3)])
    with pytest.raises(ValueError):
        subdivide(m, a, 1, positions=[Fraction(3, 2)])
    with pytest.raises(ValueError):
        subdivide(m, a, 2, positions=[Fraction(1, 3)])
