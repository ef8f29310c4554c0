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
one adjacent triangle sees it, reads the edge in one direction: forward
from its first endpoint u when that is the side's distinguished endpoint
(`edge_sides`), backward otherwise.  Level k sits at P_k from where the
side reads the edge, levels 0 and n+1 being the endpoints.  Each edge
keeps one `EdgeLine`, at depth 0 too, which stores each side's level
indices once, laid out once per call for each set of directions
(`_edge_layout`), and the rest derives from them: the distinguished
endpoint is where level 0 sits, a node's levels are their inverse, and
segment t_l runs from level l-1 to level l.  A node that only the
neighbouring triangle places on a shared edge is a foreign point and sits
between two consecutive levels.  Foreign points occur only where the two
sides of an edge disagree on its distinguished endpoint, that is for
assignments that do not glue, and not even there when the positions are
symmetric under P -> 1 - P.  Grid point (a, b), 0 <= a <= b <= n+1, is where the level-a
chord parallel to S-T meets the level-b chord parallel to F-T (levels 0
and n+1 being the sides themselves).  `grid_side` is the one classifier
of grid points, used by `subdivide` and by the Hilbert-square face maps:
the point lies on the F-S edge when a = b, on the S-T edge when a = 0, on
the F-T edge when b = n+1, and is otherwise the corner box (a, b).

Grid region (i, j), 0 <= i <= j <= n, is a triangle along F-S when i = j
and a quadrilateral otherwise.  `subdivide` walks the regions in order,
each as the cycle (i, j+1) -> (i+1, j+1) -> [(i+1, j) when i < j] ->
(i, j), and makes every cell once: each triangle first tabulates the vertex id
of every grid point, making its corner boxes there, and the walk makes
every other cell where it first meets it.  By `grid_side` three sides of
these cycles lie on base edges: (i, n+1) -> (i+1, n+1) on F-T when j = n,
(i+1, i+1) -> (i, i) on F-S when i = j, and (0, j) -> (0, j+1) on S-T when
i = 0; the foreign points are inserted along those.  Each cycle is star
triangulated from an auxiliary center vertex, which preserves the
closed-surface invariants, and is then dropped.  The 1-cells are the
sides of the region cycles (chord pieces and atomic segments of the base
edges) and the spokes to the centers.  A region makes its spokes once,
since no other region meets them, and each of its triangles from two
spokes and one lookup of its cycle side.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import Cell, DeltaComplex, euler_of_counts, f_vector
from .models import SurfaceModel, edge_key, find_3_labeling

Pair = tuple[str, str]


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
    """The assignment of a vertex order.  "labeling" orders a 3-labeling by
    LABEL_ORDER.  "default" is the model's own order: QUARTIC_ORDER on the
    quartic, else a 3-labeling's, else the sorted vertex order.  Every vertex
    order glues."""
    if kind not in ("default", "labeling"):
        raise ValueError(f"unknown assignment kind: {kind}")
    if kind == "default" and model.name == "quartic":
        return assignment_from_order(model, QUARTIC_ORDER)
    labeling = find_3_labeling(model)
    if labeling is not None:
        order = sorted(labeling, key=lambda v: LABEL_ORDER.index(labeling[v]))
    elif kind == "labeling":
        raise ValueError(f"model {model.name} admits no 3-labeling")
    else:
        order = sorted(model.vertices)
    return assignment_from_order(model, order)


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


class EdgeLine(NamedTuple):
    """A base edge (u, v) as the subdivision places points on it, from its
    first endpoint u.  A side's level 0 sits at its distinguished endpoint,
    and each node's levels and each side's symbols derive from `sides`."""

    ids: list[str]  # vertex ids of the edge's points, in order from u
    names: list[str]  # the interior points' positions from u, as strings
    sides: dict  # triangle key -> index among `ids` of each level 0..n+1

    def endpoint(self, tri) -> int:
        """The index in (u, v) of the distinguished endpoint of `tri`'s side,
        where its level 0 sits."""
        return 0 if self.sides[tri][0] == 0 else 1

    def node_levels(self) -> list[dict]:
        """{triangle: level} of each interior point, in order from u, over
        the sides that place it."""
        levels = [{} for _ in self.names]
        for tri, at in self.sides.items():
            for k in range(1, len(at) - 1):
                levels[at[k] - 1][tri] = k
        return levels

    def symbols(self, tri) -> list[int]:
        """The symbol of each atomic segment, in order from u, as the side
        of `tri` reads it: segment t_l runs from level l-1 to level l, across
        any foreign points between them."""
        at = self.sides[tri]
        symbols = [0] * (len(self.ids) - 1)
        for l in range(1, len(at)):
            lo, hi = sorted(at[l - 1 : l + 1])
            symbols[lo:hi] = [l] * (hi - lo)
        return symbols


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
    lines: dict  # edge -> EdgeLine
    boxes: list[CornerBox]


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


def _edge_layout(P: tuple[Fraction, ...], directions) -> tuple:
    """The points of an edge whose sides read it in `directions` (True for
    forward, from the edge's first endpoint u; False for backward), as
    (the interior positions from u as strings, {direction: index among the
    edge's points of each level 0..n+1}).  Level k of a direction sits at
    P_k from where it reads the edge."""
    ladder = (Fraction(0), *P, Fraction(1))
    ladders = {True: ladder, False: tuple(1 - pos for pos in ladder)}
    interior = sorted({ladders[d][k] for d in directions for k in range(1, len(P) + 1)})
    points = [Fraction(0), *interior, Fraction(1)]
    index = {pos: i for i, pos in enumerate(points)}
    at = {d: tuple(index[pos] for pos in ladders[d]) for d in directions}
    return [str(pos) for pos in interior], at


def f_vector_target(model: SurfaceModel, n: int) -> tuple[int, ...]:
    """The f-vector of a gluing expansion at depth n, the model's own at
    n = 0: a triangle's n+1 triangle regions give 3 pieces each and its
    n(n+1)/2 quadrilaterals 4, and a sphere of f2 triangles has 3 f2 / 2
    edges and 2 + f2 / 2 vertices.  Foreign points add to every count."""
    if n == 0:
        return f_vector(model.sphere)
    f2 = len(model.triangles) * (n + 1) * (2 * n + 3)
    return 2 + f2 // 2, 3 * f2 // 2, f2


def subdivide(
    model: SurfaceModel,
    assignment: BlowupAssignment,
    n: int,
    positions=None,
) -> ExpandedComplex:
    """Apply n levels of subdivision to every triangle of the model.

    For n = 0 the model's own complex is returned unchanged, with a line of
    two points on every edge.  Shared edge points are identified by
    position, so the construction is defined even for assignments that do
    not glue; check_gluing reports those.
    """
    assignment.validate_for(model)
    if n < 0:
        raise ValueError("subdivision depth must be nonnegative")
    P = default_positions(n) if positions is None else _check_positions(n, positions)

    # ---- one layout per set of side directions -----------------------------
    # a side reads its edge forward when its distinguished endpoint is the
    # edge's first endpoint u, backward otherwise; an edge reads the layout of
    # the directions its sides take, and each side its direction's levels
    layouts: dict = {}
    lines: dict = {}
    for e, sides in sorted(edge_sides(model, assignment).items()):
        u, v = e
        forward = {tri: dist == u for tri, dist in sides.items()}
        pattern = frozenset(forward.values())
        if pattern not in layouts:
            layouts[pattern] = _edge_layout(P, pattern)
        names, at = layouts[pattern]
        ids = [_vid(u), *(f"x:{u}|{v}@{name}" for name in names), _vid(v)]
        lines[e] = EdgeLine(ids, names, {tri: at[d] for tri, d in forward.items()})
    if n == 0:
        return ExpandedComplex(model, assignment, 0, P, model.sphere, lines, [])

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
    for (u, v), line in lines.items():
        for nid, name in zip(line.ids[1:-1], line.names):
            vertex(nid, f"{u}-{v} node at {name}")
        for a, b in zip(line.ids, line.ids[1:]):
            pair_cell(a, b)

    # ---- one walk of each triangle's level grid ----------------------------
    boxes = []
    for tri in model.triangles:
        tkey, name = "|".join(tri), "-".join(tri)
        role_lines = {
            r: (lines[e].ids, lines[e].sides[tri])
            for r, (e, _) in edge_roles(assignment, tri).items()
        }
        # the vertex id of every grid point (a, b), a <= b, made once
        grid = []
        for a in range(n + 2):
            row = [None] * a
            grid.append(row)
            for b in range(a, n + 2):
                side = grid_side(a, b, n)
                if side is None:
                    bid = f"b:{tkey}#{a},{b}"
                    vertex(bid, f"box({a},{b}) in {name}")
                    boxes.append(CornerBox(tri, (a, b), bid))
                    row.append(bid)
                else:
                    ids, at = role_lines[side[0]]
                    row.append(ids[at[side[1]]])

        def between(r: str, l0: int, l1: int) -> list[str]:
            """Vertex ids strictly between levels l0 and l1 of base edge r, in
            the l0 -> l1 direction: the nodes only the neighbouring triangle
            puts there."""
            ids, at = role_lines[r]
            p, q = at[l0], at[l1]
            return ids[p + 1 : q] if p < q else ids[p - 1 : q : -1]

        for i in range(n + 1):
            for j in range(i, n + 1):
                cycle = [grid[i][j + 1]]
                if j == n:
                    cycle += between("FT", i, i + 1)
                cycle.append(grid[i + 1][j + 1])
                if i < j:
                    cycle.append(grid[i + 1][j])
                else:
                    cycle += between("FS", i + 1, i)
                cycle.append(grid[i][j])
                if i == 0:
                    cycle += between("ST", j, j + 1)
                # star triangulation from the region's center: its spokes
                # are made here, since no other region meets them
                cid = f"c:{tkey}#{i},{j}"
                center = f"center {(i, j)} in {name}"
                vertex(cid, center)
                spokes = []
                for a in cycle:
                    if a < cid:
                        sid = f"E[{a}][{cid}]"
                        cells.append(Cell(sid, 1, f"{labels[a]} / {center}", ((cid, 1), (a, -1))))
                    else:
                        sid = f"E[{cid}][{a}]"
                        cells.append(Cell(sid, 1, f"{center} / {labels[a]}", ((a, 1), (cid, -1))))
                    spokes.append(sid)
                # each triangle is a cycle side a-b with the spokes to a and b,
                # its ids in sorted order, by comparison
                label = f"piece of {(i, j)} in {name}"
                ends = list(zip(cycle, spokes))
                for (a, sa), (b, sb) in zip(ends, ends[1:] + ends[:1]):
                    rim = pair_cell(a, b)
                    if b < a:
                        a, b, sa, sb = b, a, sb, sa
                    if cid < a:
                        tid, faces = f"T[{cid}][{a}][{b}]", ((rim, 1), (sb, -1), (sa, 1))
                    elif cid < b:
                        tid, faces = f"T[{a}][{cid}][{b}]", ((sb, 1), (rim, -1), (sa, 1))
                    else:
                        tid, faces = f"T[{a}][{b}][{cid}]", ((sb, 1), (sa, -1), (rim, 1))
                    cells.append(Cell(tid, 2, label, faces))

    return ExpandedComplex(model, assignment, n, P, DeltaComplex(cells), lines, boxes)


def check_gluing(E: ExpandedComplex) -> GluingReport:
    """Compare induced node positions, levels and segment symbols across
    each edge.

    Both sides must place their nodes at the same positions with the same
    levels and must give the resulting segments the same symbol sequence; a
    node at a matching position with mismatched symbols is still a failure.
    A side's levels sit at the points `EdgeLine.sides` gives it, and its
    symbols follow from them, so the sides agree exactly when those level
    indices do, that is when they read the edge from the same endpoint.  At
    depth 0 an edge has no node and one segment, so only that endpoint is
    compared.  The report is assembled in sorted edge order, so it is
    independent of any triangle processing order.
    """
    failures = []
    for e, line in sorted(E.lines.items()):
        if len(set(line.sides.values())) > 1:
            failures.append(
                {
                    "edge": list(e),
                    "sides": [
                        {
                            "triangle": list(t),
                            "nodes": [
                                {"position": line.names[i - 1], "level": k}
                                for i, k in sorted(zip(at[1:-1], range(1, len(at) - 1)))
                            ],
                            "symbols": line.symbols(t),
                            "distinguished_endpoint": e[line.endpoint(t)],
                        }
                        for t, at in sorted(line.sides.items())
                    ],
                }
            )
    return GluingReport(glues=not failures, failures=failures)


def check_torus_compatibility(E: ExpandedComplex) -> TorusReport:
    """Report every subdivision node whose sides disagree on its arrows.

    Each side that places a node gives it one arrow, at its level, pointing
    along the carrier edge toward that side's distinguished endpoint, where
    its level 0 sits; both come from the edge's `EdgeLine`.  A node only
    one side places gets no arrow from the other, whose torus moves it
    along its segment, a conflict of its own kind; so the check passes
    exactly when the sides of every edge agree, that is when the assignment
    glues, at every depth n >= 1.  At depth 0 there is no node to compare,
    so the check passes and only the gluing check can refuse.  The owning
    triangle always agrees with its own arrow at a chord endpoint, so a
    chord can only disagree where a node does: chords need no check of
    their own.
    """
    nodes = [
        (nid, levels, line)
        for line in E.lines.values()
        for nid, levels in zip(line.ids[1:-1], line.node_levels())
    ]
    conflicts = []
    for nid, levels, line in sorted(nodes, key=lambda node: node[0]):
        arrows = {
            t: {str(levels[t]): line.ids[at[0]]} if t in levels else {}
            for t, at in line.sides.items()
        }
        if len({tuple(a.items()) for a in arrows.values()}) > 1:
            one_sided = len(levels) == 1
            conflicts.append(
                {
                    "cell": nid,
                    "kind": "node placed by one side" if one_sided else "node arrow mismatch",
                    "sides": [{"triangle": list(t), "arrows": a} for t, a in arrows.items()],
                }
            )
    return TorusReport(compatible=not conflicts, conflicts=conflicts)


def expanded_complex_report(E: ExpandedComplex) -> dict:
    """The expansion's counts and its orientation, the distinguished endpoint
    of every edge whose sides agree on it: each fact once.  Each side's
    reading of an edge whose sides differ is in the gluing failures."""
    counts = list(f_vector(E.cells))
    orientation = {}
    for (u, v), line in sorted(E.lines.items()):
        ends = {line.endpoint(t) for t in line.sides}
        if len(ends) == 1:
            orientation[f"{u}-{v}"] = (u, v)[ends.pop()]
    return {
        "model": E.model.name,
        "level": E.level,
        "positions": [str(p) for p in E.positions],
        "f_vector": counts,
        "euler_characteristic": euler_of_counts(counts),
        "orientation": orientation,
        "exceptional_vertex_count": len(E.boxes)
        + sum(len(line.names) for line in E.lines.values()),
    }
