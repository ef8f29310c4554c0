"""Dual complexes of the Hilbert-square degenerations.

Cells are combinatorial types of stable two-point configurations.  In a
fibre of base codimension c the available components are the original
surface components, one exceptional bundle per double curve and expansion
level 1..c-1, and one corner box per triple point and level pair j < k.  A
configuration is stable when its points sit in component interiors and
every expansion level is occupied (finite automorphisms under the fibre
torus); its type records only the components, with the two points unordered.
Stable types are generated point by point rather than filtered from all
multisets, with the covered levels kept as a bitmask: a partial choice is
dropped once its uncovered levels outnumber twice the points still to place,
since a component covers at most two levels, and each full choice is tested
once, by `is_stable`.

k-simplices of the dual complex correspond to types of base codimension
k+1.  The k+1 facet slots un-vanish one base coordinate each: slot i
contracts segment t_i of the expansion's level grid (levels i-1 and i
merge), and `expansion.grid_side` names where each component lands.  The
maps read the gluing as `expansion.edge_orientation` and `edge_roles` of
the model's own vertex order, `expansion.get_assignment(model, "default")`;
stable types read only the model.  The contractions satisfy the simplicial
identities d_i d_j = d_{j-1} d_i for i < j, so the alternating-sign
boundary squares to zero.

The complex is built from one concept: every stable type is a cell, and its
faces are given by the facet maps.  The build checks that every facet is
itself a stable type, and checks the identities on the collapse tables of
each codimension rather than the composed boundary of each cell (see
`table_violations`); the tests keep `complexes.validate` as the oracle.
`all_stable` generates each stable type as the sorted tuple of its indices into
`components_at_codim`, whose list is sorted, so the components a type names
come in sorted order too; its base codimension is the level it sits on.
`build_pi` uses these index tuples as they come: a type's label is one join
of component names formatted once per codimension, and its key is
`c<codim>:` and the label.  Each collapse map is an index table per
codimension and slot, from each component's index to the index of its image
one level below, and a facet, sorted, finds its id among the index tuples of
the level below.  A facet that is not a stable type keeps its own key and
is reported as a dangling face.  The case census (one named family per
proof case, built from the model strata) is an independent listing of the
same cells: each family lists its types, and together they must be exactly
the stable types, each once.  A mismatch is a hard failure whose report
lists the keys listed but not stable and stable but not listed.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, zip_longest
from typing import NamedTuple

from .complexes import (
    Cell,
    DeltaComplex,
    Violation,
    betti_numbers,
    euler_of_counts,
    f_vector,
    h1_torsion,
)
from .expansion import edge_orientation, edge_roles, get_assignment, grid_side
from .models import SurfaceModel, get_model

# f-vector of the known 10-vertex simplicial triangulation of CP^2; the
# quartic complex has the same f-vector but is not simplicial (its 45 edges
# span only 40 vertex pairs), so only the counts are compared
REFERENCE_CP2_10_VERTEX = (10, 45, 110, 120, 48)
# published totals claimed for the cube complex, compared but never forced
CUBE_CLAIMED_TOTALS = (21, 120, 420, 480, 192)


# ---------------------------------------------------------------------------
# stable types: sorted tuples of component indices


def type_key(c: int, points) -> str:
    """Cell id of the type with these sorted points at base codimension c:
    the prefix ``c<c>:`` and the cell's label, its points joined by " + "."""
    return f"c{c}:" + " + ".join(point_str(p) for p in points)


def point_str(p) -> str:
    if p[0] == "Y":
        return p[1]
    if p[0] == "E":
        return f"E[{'|'.join(p[1])}]@{p[2]}"
    return f"B[{'|'.join(p[1])}]@{p[2]},{p[3]}"


def level_mask(p) -> int:
    """Expansion levels component p occupies, as a bitmask: bit l for level l."""
    if p[0] == "Y":
        return 0
    if p[0] == "E":
        return 1 << p[2]
    return 1 << p[2] | 1 << p[3]


def components_at_codim(model: SurfaceModel, c: int) -> list:
    comps = [("Y", v) for v in model.vertices]
    comps += [("E", e, k) for e in model.edges for k in range(1, c)]
    comps += [
        ("B", t, j, k)
        for t in model.triangles
        for j in range(1, c)
        for k in range(j + 1, c)
    ]
    return sorted(comps)


def is_stable(covered: int, c: int) -> bool:
    """Whether points covering the levels in the bitmask `covered` occupy
    every expansion level 1..c-1 of codimension c."""
    return covered == (1 << c) - 2


def all_stable(model: SurfaceModel, c: int, m: int = 2) -> list[tuple[int, ...]]:
    """Stable m-point types of codimension c, each the sorted tuple of its
    indices into components_at_codim, in combinations_with_replacement order:
    each point takes an index at or after the previous point's, so every type
    comes out once and already sorted.  A partial choice is dropped once its
    uncovered levels outnumber twice the points still to place; is_stable is
    the one test of each full choice."""
    masks = [level_mask(p) for p in components_at_codim(model, c)]
    full = (1 << c) - 2
    n = len(masks)
    out = []

    def extend(start: int, chosen: tuple, covered: int, left: int) -> None:
        if (full & ~covered).bit_count() > 2 * left:
            return
        if left == 1:
            for i in range(start, n):
                if is_stable(covered | masks[i], c):
                    out.append(chosen + (i,))
            return
        for i in range(start, n):
            extend(i, chosen + (i,), covered | masks[i], left - 1)

    if m:
        extend(0, (), 0, m)
    elif is_stable(0, c):
        # Hilb^0 is a point: the empty type, at codimension 1 only
        out.append(())
    return out


# ---------------------------------------------------------------------------
# facet maps


def collapse_point(p, i: int, c: int, roles: dict, orientation: dict):
    """Limit of a component when the level-i base coordinate un-vanishes:
    segment t_i of the level grid contracts, so level l stays l for l < i
    and becomes l - 1 otherwise, on the grid of depth c - 2.  A box landing
    on a side of its triangle lands on that side's edge in `roles`, and an
    edge level 0 or c - 1 is the edge's `orientation` endpoint or its other."""
    if p[0] == "Y":
        return p

    def phi(level: int) -> int:
        return level if level < i else level - 1

    if p[0] == "E":
        e, level = p[1], phi(p[2])
    else:
        t, j, k = p[1], phi(p[2]), phi(p[3])
        side = grid_side(j, k, c - 2)
        if side is None:
            return ("B", t, j, k)
        e, level = roles[t][side[0]][0], side[1]
    if 0 < level < c - 1:
        return ("E", e, level)
    dist = orientation[e]
    return ("Y", dist if level == 0 else (e[1] if e[0] == dist else e[0]))


def collapse_tables(
    model: SurfaceModel, c: int, roles: dict, orientation: dict
) -> tuple[list, list]:
    """Collapse map of each facet slot i = 1..c as an index table; slot i
    un-vanishes the i-th base coordinate.  Entry j of a table is the index of
    the image of component j of codimension c in the returned list of
    targets: the components of codimension c - 1, then every image that is
    not one of them (only a broken collapse map makes one)."""
    comps = components_at_codim(model, c)
    index = {p: j for j, p in enumerate(components_at_codim(model, c - 1))}
    tables = [
        [index.setdefault(collapse_point(p, i, c, roles, orientation), len(index)) for p in comps]
        for i in range(1, c + 1)
    ]
    return tables, list(index)


def table_violations(comps: list, size: int, maps: tuple, lower: tuple) -> list[Violation]:
    """What is wrong with the collapse tables of one codimension c.

    `maps` is collapse_tables at c, `comps` the components it maps and
    `size` the number of components at c - 1; `lower` is collapse_tables at
    c - 1, with no tables at c = 2.  Each table must map into the
    components at c - 1, and for i < j the simplicial identity
    d_i d_j = d_{j-1} d_i must hold on every component.  A facet is its
    type's components mapped through one table, then sorted, so when every
    facet is a stable type these make the faces of the faces of every cell
    cancel in pairs: the boundary squares to zero."""
    tables, targets = maps
    lower_tables, lower_targets = lower
    c = len(tables)
    out = [
        Violation(
            "collapse outside the components",
            type_key(c, [comps[x]]),
            f"slot {i} gives {point_str(targets[y])}",
        )
        for i, table in enumerate(tables, 1)
        for x, y in enumerate(table)
        if y >= size
    ]
    if out or not lower_tables:
        return out
    for i, j in combinations(range(1, c + 1), 2):
        left, right = lower_tables[i - 1], lower_tables[j - 2]
        for x, (a, b) in enumerate(zip(tables[j - 1], tables[i - 1])):
            if left[a] != right[b]:
                out.append(
                    Violation(
                        "simplicial identity fails",
                        type_key(c, [comps[x]]),
                        f"slots ({i}, {j}): d_{i} d_{j} gives {point_str(lower_targets[left[a]])}"
                        f", d_{j - 1} d_{i} gives {point_str(lower_targets[right[b]])}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# case census (independent of the complex construction)


def _pair_relation(model: SurfaceModel, e, f) -> str:
    if e == f:
        return "equal"
    if any(set(e) | set(f) <= set(t) for t in model.triangles):
        return "corner"
    if set(e) & set(f):
        return "vertex-only"
    return "disjoint"


def _vertex_edge_relation(model: SurfaceModel, v, e) -> str:
    if v in e:
        return "adjacent"
    if any(set(e) | {v} <= set(t) for t in model.triangles):
        return "corner"
    return "far"


class CaseBreakdown(NamedTuple):
    """The case families of one dimension in proof-case order, each with the
    stable types it lists."""

    dim: int
    families: dict[str, list[tuple]]

    @property
    def cases(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, len(types)) for name, types in self.families.items())

    def to_json_obj(self):
        return {"dim": self.dim, "cases": [{"description": d, "count": n} for d, n in self.cases]}


def enumerate_cases(model: SurfaceModel, k: int) -> CaseBreakdown:
    """Two-point case families at dimension k, each listing its stable types.

    Each family iterates over actual strata of the model (vertices, double
    curves, triple points and their incidences); nothing is hard-coded.  A
    type is a sorted tuple of components: the components that the index
    tuple all_stable yields names.  Families that cannot occur on a model
    (no types) are omitted.
    """
    if not 0 <= k <= 4:
        raise ValueError("dimension out of range for two points")
    V, E, T = model.vertices, model.edges, model.triangles
    if k == 0:
        families = {
            "two points in component interiors": [
                (("Y", a), ("Y", b)) for a, b in combinations_with_replacement(V, 2)
            ],
        }
    elif k == 1:
        edge_pairs = {"corner": [], "equal": [], "vertex-only": [], "disjoint": []}
        for e, f in combinations_with_replacement(E, 2):
            edge_pairs[_pair_relation(model, e, f)].append((("E", e, 1), ("E", f, 1)))
        with_vertex = {"adjacent": [], "corner": [], "far": []}
        for v in V:
            for e in E:
                with_vertex[_vertex_edge_relation(model, v, e)].append((("E", e, 1), ("Y", v)))
        families = {
            "edge bundles meeting one corner": edge_pairs["corner"] + with_vertex["corner"],
            "double point on one edge bundle": edge_pairs["equal"],
            "component with the bundle over an adjacent edge": with_vertex["adjacent"],
            "bundles over disjoint edges": edge_pairs["disjoint"],
            "bundles over edges sharing only a vertex": edge_pairs["vertex-only"],
            "component with the bundle over a far edge": with_vertex["far"],
        }
    elif k == 2:
        families = {
            "two corner boxes": [
                (("B", s, 1, 2), ("B", t, 1, 2)) for s, t in combinations_with_replacement(T, 2)
            ],
            "corner box with a component": [(("B", t, 1, 2), ("Y", v)) for t in T for v in V],
            "corner box with an edge bundle": [
                (("B", t, 1, 2), ("E", e, speed)) for t in T for e in E for speed in (1, 2)
            ],
            "bundles over distinct edges at different speeds": [
                (("E", e, speed), ("E", f, 3 - speed))
                for e, f in combinations(E, 2)
                for speed in (1, 2)
            ],
            "bundles over one edge at different speeds": [(("E", e, 1), ("E", e, 2)) for e in E],
        }
    elif k == 3:
        boxes = [("B", t, j, l) for t in T for j, l in combinations((1, 2, 3), 2)]
        # two different level pairs cover levels 1..3
        families = {
            "corner boxes with complementary level splits": [
                (a, b) for a, b in combinations(boxes, 2) if a[2:] != b[2:]
            ],
            "corner box with the level-matched edge bundle": [
                (b, ("E", e, 6 - b[2] - b[3])) for b in boxes for e in E
            ],
        }
    else:
        boxes = [("B", t, j, l) for t in T for j, l in combinations((1, 2, 3, 4), 2)]
        # two disjoint level pairs cover levels 1..4
        splittings = [(a, b) for a, b in combinations(boxes, 2) if not {*a[2:]} & {*b[2:]}]
        families = {
            "two splittings of one corner": [(a, b) for a, b in splittings if a[1] == b[1]],
            "ordered splittings of two corners": [(a, b) for a, b in splittings if a[1] != b[1]],
        }
    return CaseBreakdown(k, {name: types for name, types in families.items() if types})


# ---------------------------------------------------------------------------
# the complex


class EnumerationMismatch(Exception):
    def __init__(self, message, diff):
        super().__init__(message)
        self.diff = diff


def build_pi(model: SurfaceModel, m: int = 2):
    """Assemble the dual complex and cross-check it against the case census.

    Cells are all stable types of every base codimension down to the deepest
    nonempty one, with faces from the facet maps.  Returns (complex,
    breakdowns).  For m = 2 the types enumerate_cases lists at each level
    must be exactly the stable types, each once, and breakdowns keeps the
    census of every level; for other m it is empty.  Any disagreement raises
    EnumerationMismatch, and so does a facet that is not a stable type (a
    dangling face id) or a collapse table that fails `table_violations`,
    all of them listed under the diff's "violations".
    """
    assignment = get_assignment(model, "default")
    roles = {t: edge_roles(assignment, t) for t in model.triangles}
    orientation = edge_orientation(model, assignment)
    levels = []
    comps_by_level = []
    while types := all_stable(model, len(levels) + 1, m):
        levels.append(types)
        comps_by_level.append(components_at_codim(model, len(levels)))

    breakdowns = []
    if m == 2:
        for k, types in enumerate(levels):
            breakdown = enumerate_cases(model, k)
            listed = Counter(t for ts in breakdown.families.values() for t in ts)
            comps = comps_by_level[k]
            stable = Counter(tuple([comps[i] for i in t]) for t in types)
            if listed != stable:
                raise EnumerationMismatch(
                    f"case census and stable types disagree at dimension {k}",
                    {
                        "dimension": k,
                        "case_counts": dict(breakdown.cases),
                        "listed_not_stable": sorted(
                            type_key(k + 1, t) for t in (listed - stable).elements()
                        ),
                        "stable_not_listed": sorted(
                            type_key(k + 1, t) for t in (stable - listed).elements()
                        ),
                    },
                )
            breakdowns.append(breakdown)

    # a type is its sorted tuple of indices into components_at_codim, which
    # is sorted, and its label one join of names formatted once per level.
    # Each facet, sorted, is looked up among the types of the level below;
    # one that is not a stable type keeps its own key and is reported as a
    # dangling face id
    violations: list[Violation] = []
    below: dict[tuple, str] = {}
    lower: tuple[list, list] = ([], [])
    cells = []
    for k, types in enumerate(levels):
        comps = comps_by_level[k]
        names = [point_str(p) for p in comps]
        prefix = f"c{k + 1}:"
        tables, targets = [], []  # vertices have no facet slots
        if k:
            tables, targets = collapse_tables(model, k + 1, roles, orientation)
            size = len(comps_by_level[k - 1])
            violations += table_violations(comps, size, (tables, targets), lower)
            lower = tables, targets
        slots = [(table, (-1) ** i) for i, table in enumerate(tables)]
        keys = {}
        for indices in types:
            label = " + ".join([names[j] for j in indices])
            key = keys[indices] = prefix + label
            faces = []
            for table, sign in slots:
                facet = tuple(sorted([table[j] for j in indices]))
                face = below.get(facet)
                if face is None:
                    face = type_key(k, sorted(targets[j] for j in facet))
                    violations.append(Violation("dangling face id", key, face))
                faces.append((face, sign))
            cells.append(Cell(key, k, label, tuple(faces)))
        below = keys
    if violations:
        raise EnumerationMismatch(
            "complex failed its build checks", {"violations": [str(v) for v in violations]}
        )
    K = DeltaComplex(cells)
    return K, breakdowns


def compare_with_reference(fv, model_name: str, m: int = 2) -> dict:
    """Equality report against the embedded reference counts.

    The target Euler characteristic is chi(CP^m) = m + 1.  For m=1 the
    reference is the model's own sphere.  For m=2 it is the 10-vertex
    triangulation f-vector on the quartic, and on the cube the published
    claimed totals, whose alternating sum is surfaced next to the target
    rather than silently accepted.  No reference exists for m >= 3, which
    raises ValueError.
    """
    fv = tuple(fv)
    flags = []
    target_euler = m + 1
    if m == 1:
        ref = f_vector(get_model(model_name).sphere)
        ref_name = f"dual complex of the {model_name} fibre"
    elif m != 2:
        raise ValueError(f"no reference f-vector for m={m}; only m=1 and m=2 have one")
    elif model_name == "quartic":
        ref = REFERENCE_CP2_10_VERTEX
        ref_name = "10-vertex triangulation counts"
    else:
        ref = CUBE_CLAIMED_TOTALS
        ref_name = "claimed cube totals"
    if euler_of_counts(ref) != target_euler:
        flags.append(
            f"reference f-vector has alternating sum {euler_of_counts(ref)}, "
            f"inconsistent with the target {target_euler}"
        )
    if fv != ref:
        dims = [d for d, (a, b) in enumerate(zip_longest(fv, ref, fillvalue=0)) if a != b]
        flags.append(f"computed f-vector differs from {ref_name} at dimensions {dims}")
    if euler_of_counts(fv) != target_euler:
        flags.append(
            f"computed alternating sum {euler_of_counts(fv)} differs from target {target_euler}"
        )
    return {
        "reference": {"name": ref_name, "f_vector": list(ref), "euler": euler_of_counts(ref)},
        "matches_reference": fv == ref,
        "flags": flags,
    }


def homology_report(model: SurfaceModel, m: int = 2) -> dict:
    K, _ = build_pi(model, m)
    report = {
        "model": model.name,
        "m": m,
        "f_vector": list(f_vector(K)),
        "betti": list(betti_numbers(K)),
        "h1_torsion": h1_torsion(K),
        # the rational homology of CP^m; CP^1 is the model's sphere
        "target_betti": [1, 0] * m + [1],
    }
    report["matches_target"] = report["betti"] == report["target_betti"]
    return report
