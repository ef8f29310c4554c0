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

Realization is barycentric: each triangle is the standard 2-simplex with
rational coordinates (a_F, a_S); parallelism is meant in these terms, so
only positions and symbol bookkeeping matter.  Quadrilateral subdivision
regions are recorded as polygonal regions; the delta-complex view star
triangulates every region from an auxiliary center vertex, which preserves
the closed-surface invariants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Cell, DeltaComplex
from .models import SurfaceModel, edge_key

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

    def to_json_obj(self) -> list[dict]:
        return [
            {"vertices": list(t), "first": f, "second": s}
            for t, (f, s) in sorted(self.pairs.items())
        ]


def edge_roles(assignment: BlowupAssignment, tri) -> dict[str, tuple[Pair, str]]:
    """The triangle's F-S, S-T and F-T edges, each with its distinguished
    endpoint: S on the F-S and S-T edges, T on the F-T edge."""
    F, S, T = assignment.roles(tri)
    return {"FS": (edge_key(F, S), S), "ST": (edge_key(S, T), S), "FT": (edge_key(F, T), T)}


def default_quartic_assignment() -> BlowupAssignment:
    """The four ordered pairs that glue on the tetrahedron.

    In the corner opposite Y4 (and opposite Y3) the pair is (Y1, Y2); in the
    corner opposite Y2 it is (Y1, Y3); in the corner opposite Y1, Y2 is blown
    up along the second parameter and Y4 along the first, normalized here to
    the first-parameter-first ordering (Y4, Y2).
    """
    return BlowupAssignment(
        {
            ("Y1", "Y2", "Y3"): ("Y1", "Y2"),
            ("Y1", "Y2", "Y4"): ("Y1", "Y2"),
            ("Y1", "Y3", "Y4"): ("Y1", "Y3"),
            ("Y2", "Y3", "Y4"): ("Y4", "Y2"),
        }
    )


def bad_quartic_assignment() -> BlowupAssignment:
    """A seemingly symmetric choice that fails to glue along Y2-Y3."""
    return BlowupAssignment(
        {
            ("Y1", "Y2", "Y3"): ("Y1", "Y2"),
            ("Y1", "Y2", "Y4"): ("Y1", "Y2"),
            ("Y1", "Y3", "Y4"): ("Y4", "Y3"),
            ("Y2", "Y3", "Y4"): ("Y4", "Y3"),
        }
    )


def labeling_assignment(model: SurfaceModel, labeling: dict[str, int]) -> BlowupAssignment:
    """first = the label-1 corner, second = the label-2 corner, per triangle."""
    from .models import labeling_is_valid

    if not labeling_is_valid(model, labeling):
        raise ValueError("labeling is not a valid 3-labeling for this model")
    pairs = {}
    for tri in model.triangles:
        by_label = {labeling[v]: v for v in tri}
        pairs[tri] = (by_label[1], by_label[2])
    return BlowupAssignment(pairs)


def get_assignment(model: SurfaceModel, kind: str) -> BlowupAssignment:
    from .models import find_3_labeling

    if kind == "default":
        if model.name != "quartic":
            raise ValueError("the default assignment is defined for the quartic model")
        return default_quartic_assignment()
    if kind == "labeling":
        labeling = find_3_labeling(model)
        if labeling is None:
            raise ValueError(f"model {model.name} admits no 3-labeling")
        return labeling_assignment(model, labeling)
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
            tri = tuple(sorted(entry["vertices"]))
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


@dataclass(frozen=True)
class EdgeNode:
    edge: Pair
    position: Fraction  # measured from the canonical (sorted-first) endpoint
    cell_id: str
    levels: dict  # triangle key -> level index claimed by that side


@dataclass(frozen=True)
class CornerBox:
    triangle: tuple[str, str, str]
    levels: tuple[int, int]  # (j, k) with j < k
    cell_id: str


@dataclass(frozen=True)
class Region:
    triangle: tuple[str, str, str]
    grid: tuple[int, int]
    boundary: tuple[str, ...]  # vertex cycle, corners plus subdivision points


@dataclass
class GluingReport:
    glues: bool
    failures: list

    def to_json_obj(self):
        return {"glues": self.glues, "failures": self.failures}


@dataclass
class TorusReport:
    compatible: bool
    conflicts: list

    def to_json_obj(self):
        return {"compatible": self.compatible, "conflicts": self.conflicts}


@dataclass
class ExpandedComplex:
    model: SurfaceModel
    assignment: BlowupAssignment
    level: int
    positions: tuple[Fraction, ...]
    cells: DeltaComplex
    regions: list[Region]
    edge_nodes: list[EdgeNode]
    boxes: list[CornerBox]
    edge_census: dict  # edge -> {triangle key -> ((position from u, level), ...)}
    colored_segments: dict  # edge -> {triangle key -> (segment records, ...)}
    node_arrows: dict  # node cell id -> {triangle key -> {level: toward vertex id}}
    distinguished: dict  # edge -> {triangle key -> distinguished endpoint}

    def exceptional_vertex_count(self) -> int:
        return len(self.edge_nodes) + len(self.boxes)

    def regions_per_triangle(self) -> dict:
        counts: dict = {}
        for r in self.regions:
            counts[r.triangle] = counts.get(r.triangle, 0) + 1
        return counts


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
        regions = [Region(t, (0, 0), tuple(_vid(v) for v in t)) for t in model.triangles]
        return ExpandedComplex(
            model, assignment, 0, P, model.sphere, regions, [], [], {}, {}, {}, {}
        )

    full = (Fraction(0),) + P + (Fraction(1),)  # P_0 .. P_{n+1}
    Q = tuple(1 - p for p in full)  # Q_k = 1 - P_k

    # ---- per-edge censuses induced by each adjacent triangle --------------
    edge_census: dict = {}
    distinguished: dict = {}
    for tri in model.triangles:
        for e, dist in edge_roles(assignment, tri).values():
            u, _w = e
            census = tuple(
                ((P[k - 1] if dist == u else 1 - P[k - 1]), k) for k in range(1, n + 1)
            )
            census = tuple(sorted(census))
            edge_census.setdefault(e, {})[tri] = census
            distinguished.setdefault(e, {})[tri] = dist

    # ---- 0-cells ----------------------------------------------------------
    cells: dict[str, Cell] = {}

    def add_cell(cell: Cell):
        if cell.id not in cells:
            cells[cell.id] = cell

    for v in model.vertices:
        add_cell(Cell(_vid(v), 0, v))

    node_records: dict[tuple[Pair, Fraction], dict] = {}
    for e, sides in edge_census.items():
        for tri, census in sides.items():
            for pos, level in census:
                rec = node_records.setdefault((e, pos), {})
                rec[tri] = level
    edge_nodes = []
    node_id_by_pos: dict[tuple[Pair, Fraction], str] = {}
    for (e, pos), levels in sorted(node_records.items()):
        nid = f"x:{e[0]}|{e[1]}@{pos}"
        node_id_by_pos[(e, pos)] = nid
        add_cell(Cell(nid, 0, f"{e[0]}-{e[1]} node at {pos}"))
        edge_nodes.append(EdgeNode(e, pos, nid, dict(sorted(levels.items()))))

    boxes = []
    box_id: dict[tuple[tuple, int, int], str] = {}
    for tri in model.triangles:
        tkey = "|".join(tri)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                bid = f"b:{tkey}#{j},{k}"
                box_id[(tri, j, k)] = bid
                add_cell(Cell(bid, 0, f"box({j},{k}) in {'-'.join(tri)}"))
                boxes.append(CornerBox(tri, (j, k), bid))

    # ---- 1-cells: all are vertex pairs, keyed canonically ------------------
    def pair_cell(a: str, b: str) -> str:
        lo, hi = sorted((a, b))
        eid = f"E[{lo}][{hi}]"
        if eid not in cells:
            add_cell(
                Cell(eid, 1, f"{cells[lo].label} / {cells[hi].label}", ((hi, 1), (lo, -1)))
            )
        return eid

    # atomic segments along each base edge, in the u -> w direction
    edge_points: dict[Pair, list[tuple[Fraction, str]]] = {}
    for e in model.edges:
        pts = [(Fraction(0), _vid(e[0]))]
        pts += sorted(
            (pos, node_id_by_pos[(e2, pos)])
            for (e2, pos) in node_id_by_pos
            if e2 == e
        )
        pts.append((Fraction(1), _vid(e[1])))
        edge_points[e] = pts
        for (_, a), (_, b) in zip(pts, pts[1:]):
            pair_cell(a, b)

    def edge_run(e: Pair, lo: Fraction, hi: Fraction) -> list[str]:
        """Vertex ids along edge e strictly between positions lo and hi."""
        return [vid for pos, vid in edge_points[e] if lo < pos < hi]

    # ---- per-triangle geometry ---------------------------------------------
    regions: list[Region] = []
    colored_segments: dict = {}
    node_arrows: dict = {}

    for tri in model.triangles:
        F, S, T = assignment.roles(tri)
        roles = edge_roles(assignment, tri)
        coords = {_vid(F): (Fraction(1), Fraction(0)),
                  _vid(S): (Fraction(0), Fraction(1)),
                  _vid(T): (Fraction(0), Fraction(0))}
        by_coord: dict[tuple[Fraction, Fraction], str] = {v: k for k, v in coords.items()}

        def register(cid, a, b):
            coords[cid] = (a, b)
            by_coord[(a, b)] = cid

        # place every edge point of the three boundary edges in local coords
        for e, _ in roles.values():
            cu = coords[_vid(e[0])]
            cw = coords[_vid(e[1])]
            for pos, vid_ in edge_points[e]:
                a = cu[0] * (1 - pos) + cw[0] * pos
                b = cu[1] * (1 - pos) + cw[1] * pos
                register(vid_, a, b)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                register(box_id[(tri, j, k)], full[j], Q[k])

        # chords: vertical a_F = P_j between the F-S and F-T edges, split at
        # crossings with horizontal chords; likewise horizontal a_S = Q_k
        for j in range(1, n + 1):
            run = [(full[j], Q[j])] + [(full[j], Q[k]) for k in range(j + 1, n + 1)]
            run += [(full[j], Fraction(0))]
            for p, q in zip(run, run[1:]):
                pair_cell(by_coord[p], by_coord[q])
        for k in range(1, n + 1):
            run = [(full[k], Q[k])] + [(full[j], Q[k]) for j in range(k - 1, 0, -1)]
            run += [(Fraction(0), Q[k])]
            for p, q in zip(run, run[1:]):
                pair_cell(by_coord[p], by_coord[q])

        # grid regions (i, j) with 0 <= i <= j <= n
        for i in range(0, n + 1):
            for j in range(i, n + 1):
                corners = [(full[i], Q[j + 1]), (full[i + 1], Q[j + 1])]
                if i < j:
                    corners.append((full[i + 1], Q[j]))
                corners.append((full[i], Q[j]))
                cycle: list[str] = []
                m = len(corners)
                for idx in range(m):
                    p = corners[idx]
                    q = corners[(idx + 1) % m]
                    cycle.append(by_coord[p])
                    # expand runs along base edges to include foreign points
                    side_edge = None
                    if p[0] == 0 and q[0] == 0:
                        side_edge = edge_key(S, T)
                    elif p[1] == 0 and q[1] == 0:
                        side_edge = edge_key(F, T)
                    elif p[0] + p[1] == 1 and q[0] + q[1] == 1:
                        side_edge = edge_key(F, S)
                    if side_edge is not None:
                        cu = coords[_vid(side_edge[0])]
                        cw = coords[_vid(side_edge[1])]

                        def pos_on_edge(pt):
                            if cw[0] != cu[0]:
                                return (pt[0] - cu[0]) / (cw[0] - cu[0])
                            return (pt[1] - cu[1]) / (cw[1] - cu[1])

                        pp, pq = pos_on_edge(p), pos_on_edge(q)
                        lo, hi = min(pp, pq), max(pp, pq)
                        between = edge_run(side_edge, lo, hi)
                        if pq < pp:
                            between = list(reversed(between))
                        cycle.extend(between)
                regions.append(Region(tri, (i, j), tuple(cycle)))

        # colored segments and arrows, from this triangle's point of view
        for e, dist in roles.values():
            u, w = e
            # symbol of the atomic segment [a, b] (positions from u): the
            # number of this side's nodes strictly before it, counted from
            # the distinguished endpoint, plus one
            own_positions = sorted(pos for pos, _ in edge_census[e][tri])
            segs = []
            pts = edge_points[e]
            for (pa, a), (pb, b) in zip(pts, pts[1:]):
                if dist == u:
                    k = sum(1 for p in own_positions if p <= pa) + 1
                else:
                    k = sum(1 for p in own_positions if p >= pb) + 1
                segs.append(
                    {
                        "segment": pair_cell(a, b),
                        "symbol": k,
                        "color": color_name(k),
                        "length": str(pb - pa),
                    }
                )
            colored_segments.setdefault(e, {})[tri] = tuple(segs)
            for pos, level in edge_census[e][tri]:
                nid = node_id_by_pos[(e, pos)]
                node_arrows.setdefault(nid, {}).setdefault(tri, {})[level] = _vid(dist)

    # ---- star triangulation of every region --------------------------------
    two_cells: list[Cell] = []
    for r in regions:
        tkey = "|".join(r.triangle)
        cid = f"c:{tkey}#{r.grid[0]},{r.grid[1]}"
        add_cell(Cell(cid, 0, f"center {r.grid} in {'-'.join(r.triangle)}"))
        m = len(r.boundary)
        for idx in range(m):
            a, b = r.boundary[idx], r.boundary[(idx + 1) % m]
            pair_cell(cid, a)
            s0, s1, s2 = sorted((cid, a, b))
            two_cells.append(
                Cell(
                    f"T[{s0}][{s1}][{s2}]",
                    2,
                    f"piece of {r.grid} in {'-'.join(r.triangle)}",
                    (
                        (pair_cell(s1, s2), 1),
                        (pair_cell(s0, s2), -1),
                        (pair_cell(s0, s1), 1),
                    ),
                )
            )
    for c in two_cells:
        add_cell(c)

    complex_ = DeltaComplex(cells.values())
    return ExpandedComplex(
        model,
        assignment,
        n,
        P,
        complex_,
        regions,
        edge_nodes,
        boxes,
        edge_census,
        colored_segments,
        node_arrows,
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
    failures = []
    for e in sorted(E.edge_census):
        sides = E.edge_census[e]
        tris = sorted(sides)
        if len(tris) != 2:
            continue

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

    Each adjacent triangle gives a node one arrow per level, pointing along
    the carrier edge toward that side's distinguished endpoint.  Positions
    are strictly increasing, so each side gives a node exactly one level.
    The owning triangle always agrees with its own arrow at a chord
    endpoint, so a chord can only disagree where another side's arrow
    differs, which is a node mismatch: chords need no check of their own.
    """
    conflicts = []
    for nid in sorted(E.node_arrows):
        sides = E.node_arrows[nid]
        tris = sorted(sides)
        if len(tris) < 2:
            continue
        first = sides[tris[0]]
        for t in tris[1:]:
            if sides[t] != first:
                conflicts.append(
                    {
                        "cell": nid,
                        "kind": "node arrow mismatch",
                        "sides": [
                            {"triangle": list(t2), "arrows": {str(k): v for k, v in sides[t2].items()}}
                            for t2 in tris
                        ],
                    }
                )
                break
    return TorusReport(compatible=not conflicts, conflicts=conflicts)


def expanded_complex_report(E: ExpandedComplex) -> dict:
    from .complexes import euler_characteristic, f_vector

    return {
        "model": E.model.name,
        "level": E.level,
        "positions": [str(p) for p in E.positions],
        "f_vector": list(f_vector(E.cells)),
        "euler_characteristic": euler_characteristic(E.cells),
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
            "-".join(t): c for t, c in sorted(E.regions_per_triangle().items())
        },
        "colored_segments": {
            f"{e[0]}-{e[1]}": {
                "|".join(t): list(segs) for t, segs in sorted(sides.items())
            }
            for e, sides in sorted(E.colored_segments.items())
        },
    }
