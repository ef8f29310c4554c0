import json
import random
import re
from itertools import combinations

import pytest

from degex import complexes
from degex.complexes import (
    Cell,
    DeltaComplex,
    _morse_boundaries,
    betti_numbers,
    boundary_matrix,
    euler_characteristic,
    euler_of_counts,
    export,
    f_vector,
    from_json,
    h1_torsion,
    simplex_complex,
    to_dot,
    to_json,
    validate,
)
from degex.expansion import get_assignment, subdivide
from degex.hilb import build_pi
from degex.linalg import rank_over_rationals, smith_normal_form
from degex.models import get_model, quartic_model

from oracles import elimination_homology, face_relation_signature, unit_eliminate


def tetrahedron():
    return simplex_complex(combinations(["Y1", "Y2", "Y3", "Y4"], 3))


def test_tetrahedron_valid_and_counts():
    K = tetrahedron()
    assert validate(K) == []
    assert tuple(f_vector(K)) == (4, 6, 4)
    assert euler_characteristic(K) == 2


def test_wrong_face_count_detected():
    K = DeltaComplex(
        [
            Cell("v:a", 0, "a"),
            Cell("v:b", 0, "b"),
            Cell("e:ab", 1, "ab", (("v:b", 1), ("v:a", -1))),
            Cell("t:bad", 2, "bad", (("e:ab", 1), ("e:ab", -1))),
        ]
    )
    kinds = [v.kind for v in validate(K)]
    assert "wrong face count" in kinds


def test_dangling_face_detected():
    K = DeltaComplex([Cell("v:a", 0, "a"), Cell("e:x", 1, "x", (("v:a", 1), ("v:gone", -1)))])
    assert any(v.kind == "dangling face id" for v in validate(K))


def test_broken_boundary_detected():
    # triangle whose edges do not close up
    cells = [
        Cell("v:a", 0, "a"),
        Cell("v:b", 0, "b"),
        Cell("v:c", 0, "c"),
        Cell("e:ab", 1, "ab", (("v:b", 1), ("v:a", -1))),
        Cell("e:bc", 1, "bc", (("v:c", 1), ("v:b", -1))),
        Cell("e:ac", 1, "ac", (("v:c", 1), ("v:a", -1))),
        Cell("t:abc", 2, "abc", (("e:bc", 1), ("e:ac", 1), ("e:ab", 1))),
    ]
    assert any(v.kind == "composed boundary nonzero" for v in validate(DeltaComplex(cells)))


def test_violations_are_listed_in_canonical_cell_order():
    # one complex with every first-pass violation, inserted out of order;
    # t:mixed breaks three rules, reported in face-entry order after the count
    K = DeltaComplex(
        [
            Cell("t:mixed", 2, "mixed", (("v:a", 1), ("e:ab", -1), ("e:gone", 1), ("e:ab", 1))),
            Cell("v:a", 0, "a"),
            Cell("v:b", 0, "b"),
            Cell("v:odd", 0, "odd", (("v:a", 1),)),
            Cell("e:ab", 1, "ab", (("v:b", 1), ("v:a", -1))),
            Cell("e:loose", 1, "loose", (("v:b", 1), ("v:gone", -1))),
            Cell("e:flat", 1, "flat", (("e:ab", 1), ("v:a", -1))),
            Cell("t:bad", 2, "bad", (("e:ab", 1), ("e:ab", -1))),
        ]
    )
    assert [str(v) for v in validate(K)] == [
        "wrong face count at v:odd: 0-cell with faces",
        "wrong face dimension at e:flat: face e:ab has dim 1",
        "dangling face id at e:loose: v:gone",
        "wrong face count at t:bad: 2-cell with 2 face entries",
        "wrong face count at t:mixed: 2-cell with 4 face entries",
        "wrong face dimension at t:mixed: face v:a has dim 0",
        "dangling face id at t:mixed: e:gone",
    ]
    # the triangle whose edges do not close up leaves 2 v:c - 2 v:a
    cells = [
        Cell("v:a", 0, "a"),
        Cell("v:b", 0, "b"),
        Cell("v:c", 0, "c"),
        Cell("e:ab", 1, "ab", (("v:b", 1), ("v:a", -1))),
        Cell("e:bc", 1, "bc", (("v:c", 1), ("v:b", -1))),
        Cell("e:ac", 1, "ac", (("v:c", 1), ("v:a", -1))),
        Cell("t:abc", 2, "abc", (("e:bc", 1), ("e:ac", 1), ("e:ab", 1))),
    ]
    assert [str(v) for v in validate(DeltaComplex(cells))] == [
        "composed boundary nonzero at t:abc: ['v:a', 'v:c']"
    ]


def test_euler_examples():
    assert euler_of_counts((10, 45, 110, 120, 48)) == 3
    assert euler_of_counts((21, 120, 420, 480, 192)) == 33


def test_betti_sphere_and_point():
    K = tetrahedron()
    assert betti_numbers(K) == (1, 0, 1)
    P = DeltaComplex([Cell("v:p", 0, "p")])
    assert betti_numbers(P) == (1,)


def test_euler_equals_alternating_betti():
    K = tetrahedron()
    assert euler_characteristic(K) == euler_of_counts(betti_numbers(K))


def projective_plane():
    # standard two-triangle delta-complex of the real projective plane
    cells = [
        Cell("v:0", 0, "v0"),
        Cell("v:1", 0, "v1"),
        Cell("e:a", 1, "a", (("v:1", 1), ("v:0", -1))),
        Cell("e:b", 1, "b", (("v:1", 1), ("v:0", -1))),
        Cell("e:c", 1, "c", (("v:1", 1), ("v:1", -1))),
        Cell("t:U", 2, "U", (("e:a", 1), ("e:b", -1), ("e:c", 1))),
        Cell("t:L", 2, "L", (("e:a", 1), ("e:b", -1), ("e:c", -1))),
    ]
    return DeltaComplex(cells)


def projective_plane_with_a_doubled_edge():
    # a Moebius band whose boundary runs twice along the loop "core", capped
    # by a cone on its rim; once the cone is paired with the rim, the band's
    # only alive face is "core", at coefficient 2
    cells = [
        Cell("v:v", 0, "v"),
        Cell("v:w", 0, "w"),
        Cell("e:rim", 1, "rim", (("v:v", 1), ("v:v", -1))),
        Cell("e:core", 1, "core", (("v:v", 1), ("v:v", -1))),
        Cell("e:spoke", 1, "spoke", (("v:w", 1), ("v:v", -1))),
        Cell("t:band", 2, "band", (("e:core", 1), ("e:rim", -1), ("e:core", 1))),
        Cell("t:cone", 2, "cone", (("e:spoke", 1), ("e:spoke", -1), ("e:rim", 1))),
    ]
    return DeltaComplex(cells)


def test_projective_plane_torsion():
    K = projective_plane()
    assert validate(K) == []
    assert [M.cols for M in _morse_boundaries(K)] == [1, 1, 1]
    assert betti_numbers(K) == (1, 0, 0)
    assert h1_torsion(K) == [2]
    assert elimination_homology(K) == ((1, 0, 0), [2])


def test_a_coefficient_of_two_is_never_paired():
    K = projective_plane_with_a_doubled_edge()
    assert validate(K) == []
    morse = _morse_boundaries(K)
    assert [M.cols for M in morse] == [1, 1, 1]
    assert morse[2].entries == [[2]]
    assert betti_numbers(K) == (1, 0, 0)
    assert h1_torsion(K) == [2]
    assert elimination_homology(K) == ((1, 0, 0), [2])


def subdivided_sphere(name: str, n: int) -> DeltaComplex:
    model = get_model(name)
    kind = "default" if name == "quartic" else "labeling"
    return subdivide(model, get_assignment(model, kind), n).cells


# pinned Morse boundaries and critical cells per degree.  Each complex
# removes pairs whose removed cell has a critical part, and the coface
# update of those pairs makes the RP^2 entries; every other pair's update
# changes nothing and is skipped
@pytest.mark.parametrize(
    "build, entries, critical",
    [
        pytest.param(projective_plane, [[], [[0]], [[-2]]], (1, 1, 1), id="rp2"),
        pytest.param(
            projective_plane_with_a_doubled_edge,
            [[], [[0]], [[2]]],
            (1, 1, 1),
            id="rp2-doubled-edge",
        ),
        pytest.param(
            lambda: build_pi(get_model("quartic"))[0],
            [[], [[]], [], [[]], []],
            (1, 0, 1, 0, 1),
            id="quartic-hilb2",
        ),
        pytest.param(
            lambda: build_pi(get_model("cube"))[0],
            [[], [[]], [], [[]], []],
            (1, 0, 1, 0, 1),
            id="cube-hilb2",
        ),
        pytest.param(
            lambda: subdivided_sphere("quartic", 3), [[], [[]], []], (1, 0, 1), id="quartic-n3"
        ),
        pytest.param(
            lambda: subdivided_sphere("cube", 3), [[], [[]], []], (1, 0, 1), id="cube-n3"
        ),
    ],
)
def test_coreduction_leaves_the_pinned_morse_complex(build, entries, critical):
    morse = _morse_boundaries(build())
    assert [M.entries for M in morse] == entries
    assert tuple(M.cols for M in morse) == critical


def test_a_complex_is_coreduced_once(monkeypatch):
    coreduce = complexes._morse_boundaries
    calls = []

    def counted(K):
        calls.append(K)
        return coreduce(K)

    monkeypatch.setattr(complexes, "_morse_boundaries", counted)
    K = projective_plane_with_a_doubled_edge()
    assert betti_numbers(K) == (1, 0, 0)
    assert h1_torsion(K) == [2]
    assert calls == [K]
    for M in K.morse_boundaries:
        rank_over_rationals(M)
        smith_normal_form(M)
    # reading the shared matrices leaves their entries as coreduction made them
    assert [M.entries for M in K.morse_boundaries] == [M.entries for M in coreduce(K)]
    assert K.morse_boundaries[2].entries == [[2]]
    L = projective_plane()
    assert betti_numbers(L) == (1, 0, 0)
    assert h1_torsion(L) == [2]
    assert calls == [K, L]


def test_projective_plane_torsion_comes_from_the_residue():
    # a unit pivot alone cannot produce the factor 2
    units, residue = unit_eliminate(boundary_matrix(projective_plane(), 2))
    assert units == 1 and residue != []


def test_rank_nullity_consistency():
    K = tetrahedron()
    fv = f_vector(K)
    r1 = rank_over_rationals(boundary_matrix(K, 1))
    r2 = rank_over_rationals(boundary_matrix(K, 2))
    betti = betti_numbers(K)
    assert betti[0] == fv[0] - r1
    assert betti[1] == fv[1] - r1 - r2
    assert betti[2] == fv[2] - r2


def test_json_export_counts_and_roundtrip():
    K = tetrahedron()
    text = to_json(K)
    assert text.count('"dim"') == 14
    K2 = from_json(text)
    assert validate(K2) == []
    assert tuple(f_vector(K2)) == (4, 6, 4)
    assert face_relation_signature(K2) == face_relation_signature(K)


@pytest.mark.parametrize("sign", [0, 2])
def test_a_face_sign_other_than_plus_or_minus_one_is_refused(sign):
    with pytest.raises(ValueError, match=r"^cell e:ab: face sign must be \+1 or -1$"):
        DeltaComplex(
            [
                Cell("v:a", 0, "a"),
                Cell("v:b", 0, "b"),
                Cell("e:ab", 1, "ab", (("v:b", 1), ("v:a", sign))),
            ]
        )


def test_from_json_refuses_a_face_sign_of_two():
    payload = json.loads(to_json(tetrahedron()))
    cell = payload["cells"][-1]
    cell["faces"][0]["sign"] = 2
    with pytest.raises(ValueError, match=re.escape(f"cell {cell['id']}: face sign")):
        from_json(json.dumps(payload))


def test_dot_export():
    dot = to_dot(tetrahedron())
    assert dot.count("--") == 6
    assert dot.count("[label=") == 4 + 6


def test_export_dispatch():
    K = tetrahedron()
    assert export(K, "json").startswith(b"{")
    assert export(K, "dot").startswith(b"graph")
    with pytest.raises(ValueError):
        export(K, "svg")


def test_canonical_order_is_sorted_on_first_read_and_keeps_ties_in_insertion_order():
    model = quartic_model()
    built = subdivide(model, get_assignment(model, "default"), 2).cells
    # the 2-cells of one triangle's pieces tie on (dimension, label)
    labels = [c.label for c in built.cells_of_dim(2)]
    assert len(set(labels)) < len(labels)
    inserted = built.cells()
    random.Random(7).shuffle(inserted)
    K = DeltaComplex(inserted)
    ids = [c.id for c in inserted]
    before = (f_vector(K), len(K), all(i in K for i in ids), "no such cell" in K)
    assert before == (f_vector(built), len(inserted), True, False)
    # counting sorts nothing
    assert "_order" not in vars(K)
    first = K.cells()
    assert first == sorted(inserted, key=lambda c: (c.dim, c.label))
    assert (f_vector(K), len(K), all(i in K for i in ids), "no such cell" in K) == before
    second = K.cells()
    assert second == first and second is not first
    second.clear()
    assert K.cells() == first and len(K) == len(inserted)
