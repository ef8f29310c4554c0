"""Subdivision calculus on the sphere models: local blow-up assignments,
iterated subdivision, the gluing-consistency certificate and the torus-arrow
compatibility check.

Conventions.  Each triangle carries an ordered pair (first, second): `first`
is blown up along the first family of base parameters and `second` along the
second.  In a triangle with corners (F, S, T) = (first, second, third) the
level-k subdivision node sits on the F-S edge at distance P_k from S, where
P_1 < P_2 < ... < P_n are the position parameters, and spawns two chords,
one parallel to the S-T side (cutting off the F corner) and one parallel to
the F-T side (cutting off S).  Consequently every edge of the triangle
carries the same sequence of segment symbols t_1 .. t_{n+1} read from a
distinguished endpoint: S on the F-S and S-T edges, T on the F-T edge.  Two
triangles glue along a shared edge exactly when they induce the same node
positions and the same symbol sequence there, i.e. the same distinguished
endpoint.

Realization is combinatorial.  Each side of an edge, that is the edge as
one adjacent triangle sees it, has one level list: level k sits at P_k from
the side's distinguished endpoint, levels 0 and n+1 being the endpoints
(`edge_sides`).  `edge_orientation` is the one owner of gluing agreement.
The node census, each node's levels and the segment symbols derive from the
level lists: segment t_l runs from level l-1 to level l.  A node that only
the neighbouring triangle places on a shared edge is a foreign point and
sits between two consecutive levels.  Foreign points occur only where the
two sides of an edge disagree on its distinguished endpoint, that is for
assignments that do not glue, and not even there when the positions are
symmetric under P -> 1 - P.  Grid point (a, b), 0 <= a <= b <= n+1, is
where the level-a chord parallel to S-T meets the level-b chord parallel to
F-T (levels 0 and n+1 being the sides themselves).  `grid_side` is the one
classifier of grid points, used by `subdivide` and by the Hilbert-square
face maps: the point lies on the F-S edge when a = b, on the S-T edge when
a = 0, on the F-T edge when b = n+1, and is otherwise the corner box (a, b).

Grid region (i, j), 0 <= i <= j <= n, is a triangle along F-S when i = j
and a quadrilateral otherwise.  `subdivide` walks the regions in order,
each as the cycle (i, j+1) -> (i+1, j+1) -> [(i+1, j) when i < j] -> (i, j),
and makes every cell once, where the walk first meets it.  By `grid_side`
three sides of these cycles lie on base edges: (i, n+1) -> (i+1, n+1) on
F-T when j = n, (i+1, i+1) -> (i, i) on F-S when i = j, and (0, j) ->
(0, j+1) on S-T when i = 0; the foreign points are inserted along those.
Each cycle is star triangulated from an auxiliary center vertex, which
preserves the closed-surface invariants, and is then dropped: only the
count of regions per triangle is kept.  The 1-cells are the sides of the
region cycles (chord pieces and atomic segments of the base edges) and the
spokes to the centers.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import Cell, DeltaComplex, euler_of_counts, f_vector
from .models import SurfaceModel, edge_key, find_3_labeling

Pair = tuple[str, str]


def color_name(symbol_index: int) -> str:
    """Historic two-parameter color names; higher symbols keep plain names."""
    return {1: "green", 2: "pink"}.get(symbol_index, f"t{symbol_index}")


class BlowupAssignment:
    """Ordered pair (first, second) of corners for every triangle."""

    def __init__(self, pairs: dict[tuple[str, str, str], Pair]):
        self.pairs = {tuple(sorted(t)): (f, s) for t, (f, s) in pairs.items()}
        for tri, (f, s) in self.pairs.items():
            if f == s or f not in tri or s not in tri:
                raise ValueError(f"invalid pair {(f, s)} for triangle {tri}")

    def roles(self, tri) -> tuple[str, str, str]:
        """(F, S, T) for a triangle: blown-up pair plus the remaining corner."""
        tri = tuple(sorted(tri))
        f, s = self.pairs[tri]
        (t,) = [v for v in tri if v not in (f, s)]
        return f, s, t

    def validate_for(self, model: SurfaceModel):
        missing = [t for t in model.triangles if t not in self.pairs]
        extra = [t for t in self.pairs if t not in set(model.triangles)]
        if missing or extra:
            raise ValueError(f"assignment does not match model: missing={missing} extra={extra}")


def edge_roles(assignment: BlowupAssignment, tri) -> dict[str, tuple[Pair, str]]:
    """The triangle's F-S, S-T and F-T edges, each with its distinguished
    endpoint: S on the F-S and S-T edges, T on the F-T edge."""
    F, S, T = assignment.roles(tri)
    return {"FS": (edge_key(F, S), S), "ST": (edge_key(S, T), S), "FT": (edge_key(F, T), T)}


def edge_sides(model: SurfaceModel, assignment: BlowupAssignment) -> dict:
    """{edge: {triangle: distinguished endpoint}}: what each adjacent
    triangle reads the edge's levels from."""
    sides: dict = {}
    for tri in model.triangles:
        for e, dist in edge_roles(assignment, tri).values():
            sides.setdefault(e, {})[tri] = dist
    return sides


def edge_orientation(model: SurfaceModel, assignment: BlowupAssignment) -> dict:
    """{edge: distinguished endpoint} of a gluing assignment, the endpoint
    both adjacent triangles read the edge's levels from.  An assignment whose
    sides disagree on an edge does not glue, and is refused there."""
    assignment.validate_for(model)
    orientation = {}
    for e, sides in sorted(edge_sides(model, assignment).items()):
        dist, *others = set(sides.values())
        if others:
            raise ValueError(
                f"assignment does not glue on {e}; build the complex "
                "with a gluing assignment"
            )
        orientation[e] = dist
    return orientation


def grid_side(a: int, b: int, n: int) -> tuple[str, int] | None:
    """(edge role, level on that edge) of grid point (a, b) at depth n, or None
    for the corner box (a, b).  Corners are named on F-S: (0, 0) is S."""
    if a == b:
        return "FS", a
    if a == 0:
        return "ST", b
    if b == n + 1:
        return "FT", a
    return None


def assignment_from_order(model: SurfaceModel, order) -> BlowupAssignment:
    """In each triangle, first is the corner earliest in `order` and second the
    latest, so every edge's distinguished endpoint is its later vertex."""
    rank = {v: i for i, v in enumerate(order)}
    pairs = {}
    for tri in model.triangles:
        ranked = sorted(tri, key=rank.__getitem__)
        pairs[tri] = (ranked[0], ranked[-1])
    return BlowupAssignment(pairs)


# the built-in assignments as vertex orders: the quartic's, and the order of
# the labels of a 3-labeling (first = the label-1 corner, second = label 2)
QUARTIC_ORDER = ("Y1", "Y4", "Y3", "Y2")
LABEL_ORDER = (1, 3, 2)


def get_assignment(model: SurfaceModel, kind: str) -> BlowupAssignment:
    if kind == "default":
        if model.name != "quartic":
            raise ValueError("the default assignment is defined for the quartic model")
        return assignment_from_order(model, QUARTIC_ORDER)
    if kind == "labeling":
        labeling = find_3_labeling(model)
        if labeling is None:
            raise ValueError(f"model {model.name} admits no 3-labeling")
        return assignment_from_order(
            model, sorted(labeling, key=lambda v: LABEL_ORDER.index(labeling[v]))
        )
    raise ValueError(f"unknown assignment kind: {kind}")


def assignment_from_json_obj(model: SurfaceModel, obj) -> BlowupAssignment:
    """Parse {"triangles": [{"opposite": ...| "vertices": [...], "first":, "second":}]}"""
    tris = obj.get("triangles") if isinstance(obj, dict) else None
    if not isinstance(tris, list):
        raise ValueError("assignment file must be an object carrying a 'triangles' list")
    pairs = {}
    for entry in tris:
        if not isinstance(entry, dict):
            raise ValueError("each triangle entry must be an object")
        if "vertices" in entry:
            names = entry["vertices"]
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                raise ValueError("triangle entry field 'vertices' must be a list of vertex names")
            tri = tuple(sorted(names))
        elif "opposite" in entry:
            opp = entry["opposite"]
            candidates = [t for t in model.triangles if opp not in t]
            if len(candidates) != 1:
                raise ValueError(f"'opposite': {opp} does not determine a triangle")
            tri = candidates[0]
        else:
            raise ValueError("each triangle entry needs 'vertices' or 'opposite'")
        if "first" not in entry or "second" not in entry:
            raise ValueError("each triangle entry needs 'first' and 'second'")
        if tri in pairs:
            raise ValueError(f"triangle {'|'.join(tri)} is listed twice")
        pairs[tri] = (entry["first"], entry["second"])
    assignment = BlowupAssignment(pairs)
    assignment.validate_for(model)
    return assignment


class EdgeNode(NamedTuple):
    edge: Pair
    position: Fraction  # measured from the canonical (sorted-first) endpoint
    cell_id: str
    levels: dict  # triangle key -> level index claimed by that side


class CornerBox(NamedTuple):
    triangle: tuple[str, str, str]
    levels: tuple[int, int]  # (j, k) with j < k
    cell_id: str


class GluingReport(NamedTuple):
    glues: bool
    failures: list

    def to_json_obj(self):
        return {"glues": self.glues, "failures": self.failures}


class TorusReport(NamedTuple):
    compatible: bool
    conflicts: list

    def to_json_obj(self):
        return {"compatible": self.compatible, "conflicts": self.conflicts}


class ExpandedComplex(NamedTuple):
    model: SurfaceModel
    assignment: BlowupAssignment
    level: int
    positions: tuple[Fraction, ...]
    cells: DeltaComplex
    edge_nodes: list[EdgeNode]  # sorted by edge, then by position along it
    boxes: list[CornerBox]
    regions_per_triangle: dict  # triangle key -> number of grid regions
    colored_segments: dict  # edge -> {triangle key -> (segment records, ...)}
    distinguished: dict  # edge -> {triangle key -> distinguished endpoint}

    def exceptional_vertex_count(self) -> int:
        return len(self.edge_nodes) + len(self.boxes)


def _vid(name: str) -> str:
    return f"v:{name}"


def default_positions(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, n + 1) for k in range(1, n + 1))


def _check_positions(n: int, positions) -> tuple[Fraction, ...]:
    positions = tuple(Fraction(p) for p in positions)
    if len(positions) != n:
        raise ValueError(f"expected {n} position parameters, got {len(positions)}")
    if any(not (0 < p < 1) for p in positions):
        raise ValueError("position parameters must lie strictly between 0 and 1")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("position parameters must be strictly increasing")
    return positions


def subdivide(
    model: SurfaceModel,
    assignment: BlowupAssignment,
    n: int,
    positions=None,
) -> ExpandedComplex:
    """Apply n levels of subdivision to every triangle of the model.

    For n = 0 the model's own complex is returned unchanged.  Shared edge
    points are identified by position, so the construction is defined even
    for assignments that do not glue; check_gluing reports those.
    """
    assignment.validate_for(model)
    if n < 0:
        raise ValueError("subdivision depth must be nonnegative")
    P = default_positions(n) if positions is None else _check_positions(n, positions)
    if n == 0:
        regions = {t: 1 for t in model.triangles}
        return ExpandedComplex(model, assignment, 0, P, model.sphere, [], [], regions, {}, {})

    # a list, so that DeltaComplex refuses an id made twice; the labels of
    # the vertices are kept apart, for the labels of the edges
    cells: list[Cell] = []
    labels: dict[str, str] = {}
    edges: dict[tuple[str, str], str] = {}

    def vertex(vid: str, label: str) -> None:
        cells.append(Cell(vid, 0, label))
        labels[vid] = label

    def pair_cell(a: str, b: str) -> str:
        """The 1-cell joining vertices a and b, keyed canonically and made
        when the pair is first met."""
        lo, hi = (a, b) if a < b else (b, a)
        eid = edges.get((lo, hi))
        if eid is None:
            eid = edges[lo, hi] = f"E[{lo}][{hi}]"
            cells.append(Cell(eid, 1, f"{labels[lo]} / {labels[hi]}", ((hi, 1), (lo, -1))))
        return eid

    for v in model.vertices:
        vertex(_vid(v), v)

    # ---- one level list per edge side --------------------------------------
    # level k of a side sits at P_k from its distinguished endpoint (levels 0
    # and n+1 are the endpoints), at its position from the edge's first
    # endpoint u; every other list is derived from these
    distinguished = edge_sides(model, assignment)
    ladder = (Fraction(0), *P, Fraction(1))
    reversed_ladder = tuple(1 - pos for pos in ladder)
    edge_nodes = []
    colored_segments: dict = {}
    lines: dict = {}  # (edge, triangle) -> (edge point ids, index there of each level)
    for e in sorted(distinguished):
        sides = {
            tri: ladder if dist == e[0] else reversed_ladder
            for tri, dist in distinguished[e].items()
        }
        nodes: dict[Fraction, dict] = {}
        for tri in sorted(sides):
            for k in range(1, n + 1):
                nodes.setdefault(sides[tri][k], {})[tri] = k
        # every point of the edge, sorted by position from u
        pts = [(Fraction(0), _vid(e[0]))]
        for pos, levels in sorted(nodes.items()):
            nid = f"x:{e[0]}|{e[1]}@{pos}"
            vertex(nid, f"{e[0]}-{e[1]} node at {pos}")
            edge_nodes.append(EdgeNode(e, pos, nid, levels))
            pts.append((pos, nid))
        pts.append((Fraction(1), _vid(e[1])))
        ids = [vid for _, vid in pts]
        index = {pos: i for i, (pos, _) in enumerate(pts)}
        segments = [(pair_cell(a, b), str(pb - pa)) for (pa, a), (pb, b) in zip(pts, pts[1:])]
        for tri, levels in sides.items():
            at = [index[pos] for pos in levels]
            lines[e, tri] = ids, at
            # segment t_l runs from level l-1 to level l, across any foreign
            # nodes between them
            symbols = [0] * len(segments)
            for l in range(1, n + 2):
                lo, hi = sorted(at[l - 1 : l + 1])
                symbols[lo:hi] = [l] * (hi - lo)
            colored_segments.setdefault(e, {})[tri] = tuple(
                {"segment": sid, "symbol": k, "color": color_name(k), "length": length}
                for k, (sid, length) in zip(symbols, segments)
            )

    # ---- one walk of each triangle's level grid ----------------------------
    boxes = []
    regions: dict = {}
    for tri in model.triangles:
        tkey, name = "|".join(tri), "-".join(tri)
        role_lines = {r: lines[e, tri] for r, (e, _) in edge_roles(assignment, tri).items()}

        def point(a: int, b: int) -> str:
            """Vertex id of grid point (a, b)."""
            side = grid_side(a, b, n)
            if side is None:
                return f"b:{tkey}#{a},{b}"
            ids, at = role_lines[side[0]]
            return ids[at[side[1]]]

        def between(r: str, l0: int, l1: int) -> list[str]:
            """Vertex ids strictly between levels l0 and l1 of base edge r, in
            the l0 -> l1 direction: the nodes only the neighbouring triangle
            puts there."""
            ids, at = role_lines[r]
            p, q = at[l0], at[l1]
            return ids[p + 1 : q] if p < q else ids[p - 1 : q : -1]

        for i in range(n + 1):
            for j in range(i, n + 1):
                if i < j < n:
                    # the walk meets the box (i+1, j+1) first as this region's corner
                    bid = point(i + 1, j + 1)
                    vertex(bid, f"box({i + 1},{j + 1}) in {name}")
                    boxes.append(CornerBox(tri, (i + 1, j + 1), bid))
                cycle = [point(i, j + 1)]
                if j == n:
                    cycle += between("FT", i, i + 1)
                cycle.append(point(i + 1, j + 1))
                if i < j:
                    cycle.append(point(i + 1, j))
                else:
                    cycle += between("FS", i + 1, i)
                cycle.append(point(i, j))
                if i == 0:
                    cycle += between("ST", j, j + 1)
                regions[tri] = regions.get(tri, 0) + 1
                # star triangulation from the region's center
                cid = f"c:{tkey}#{i},{j}"
                vertex(cid, f"center {(i, j)} in {name}")
                label = f"piece of {(i, j)} in {name}"
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    # the three ids in sorted order, by comparison
                    if b < a:
                        a, b = b, a
                    if cid < a:
                        s0, s1, s2 = cid, a, b
                    elif cid < b:
                        s0, s1, s2 = a, cid, b
                    else:
                        s0, s1, s2 = a, b, cid
                    tid = f"T[{s0}][{s1}][{s2}]"
                    faces = (pair_cell(s1, s2), 1), (pair_cell(s0, s2), -1), (pair_cell(s0, s1), 1)
                    cells.append(Cell(tid, 2, label, faces))

    return ExpandedComplex(
        model,
        assignment,
        n,
        P,
        DeltaComplex(cells),
        edge_nodes,
        boxes,
        regions,
        colored_segments,
        distinguished,
    )


def check_gluing(E: ExpandedComplex) -> GluingReport:
    """Compare induced node positions and colored symbol sequences across
    each edge.

    Both sides must place their nodes at the same positions with the same
    levels and must color the resulting segments with the same symbol
    sequence; a node at a matching position with mismatched colors is still
    a failure.  The report is assembled in sorted edge order, so it is
    independent of any triangle processing order.
    """
    placed: dict = {}  # edge -> {triangle -> [(position from u, level), ...]}
    for node in E.edge_nodes:
        for t, level in node.levels.items():
            placed.setdefault(node.edge, {}).setdefault(t, []).append((node.position, level))
    failures = []
    for e in sorted(placed):
        sides = placed[e]
        tris = sorted(sides)

        def side_view(t):
            symbols = tuple(s["symbol"] for s in E.colored_segments[e][t])
            return (sides[t], symbols)

        if side_view(tris[0]) != side_view(tris[1]):
            failures.append(
                {
                    "edge": list(e),
                    "sides": [
                        {
                            "triangle": list(t),
                            "nodes": [
                                {"position": str(pos), "level": lev}
                                for pos, lev in sides[t]
                            ],
                            "symbols": [s["symbol"] for s in E.colored_segments[e][t]],
                            "distinguished_endpoint": E.distinguished[e][t],
                        }
                        for t in tris
                    ],
                }
            )
    return GluingReport(glues=not failures, failures=failures)


def check_torus_compatibility(E: ExpandedComplex) -> TorusReport:
    """Report every subdivision node whose sides disagree on its arrows.

    Each side that places a node gives it one arrow, at its level, pointing
    along the carrier edge toward that side's distinguished endpoint; both
    come from the node census (`EdgeNode.levels`, `distinguished`).  A node
    only one side places gets no arrow from the other, whose torus moves it
    along its segment, a conflict of its own kind; so the check passes
    exactly when the sides of every edge agree, that is when the assignment
    glues.  The owning triangle always agrees with its own arrow at a chord
    endpoint, so a chord can only disagree where a node does: chords need no
    check of their own.
    """
    conflicts = []
    for node in sorted(E.edge_nodes, key=lambda node: node.cell_id):
        arrows = {
            t: {str(node.levels[t]): _vid(dist)} if t in node.levels else {}
            for t, dist in E.distinguished[node.edge].items()
        }
        if len({tuple(a.items()) for a in arrows.values()}) > 1:
            one_sided = len(node.levels) == 1
            conflicts.append(
                {
                    "cell": node.cell_id,
                    "kind": "node placed by one side" if one_sided else "node arrow mismatch",
                    "sides": [{"triangle": list(t), "arrows": a} for t, a in arrows.items()],
                }
            )
    return TorusReport(compatible=not conflicts, conflicts=conflicts)


def expanded_complex_report(E: ExpandedComplex) -> dict:
    counts = list(f_vector(E.cells))
    return {
        "model": E.model.name,
        "level": E.level,
        "positions": [str(p) for p in E.positions],
        "f_vector": counts,
        "euler_characteristic": euler_of_counts(counts),
        "edge_nodes": [
            {
                "edge": list(node.edge),
                "position": str(node.position),
                "levels": {"|".join(t): lev for t, lev in node.levels.items()},
            }
            for node in E.edge_nodes
        ],
        "boxes": [
            {"triangle": list(b.triangle), "levels": list(b.levels)} for b in E.boxes
        ],
        "exceptional_vertex_count": E.exceptional_vertex_count(),
        "regions_per_triangle": {
            "-".join(t): c for t, c in sorted(E.regions_per_triangle.items())
        },
        "colored_segments": {
            f"{e[0]}-{e[1]}": {
                "|".join(t): list(segs) for t, segs in sorted(sides.items())
            }
            for e, sides in sorted(E.colored_segments.items())
        },
    }
