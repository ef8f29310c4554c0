"""Independent reference computations that the tests compare against, and
the fixtures and serializers that only the tests use."""
import json
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement, compress
from math import comb, gcd, prod
from random import Random

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from degex.charts import ChartPoint
from degex.complexes import Cell, DeltaComplex, boundary_matrix, f_vector
from degex.expansion import BlowupAssignment
from degex.hilb import (
    all_stable,
    builtin_assignment,
    components_at_codim,
    point_str,
    type_key,
)
from degex.linalg import IntMatrix


def int_matrix(rows: list[list[int]]) -> IntMatrix:
    """IntMatrix of the given nonempty dense rows."""
    return IntMatrix(len(rows), len(rows[0]), rows)


def rank_oracle_gauss(M: IntMatrix) -> int:
    """Naive Gaussian elimination over Fraction; independent of the library's loop."""
    a = [[Fraction(v) for v in row] for row in M.entries]
    n, m = M.rows, M.cols
    rank = 0
    for j in range(m):
        piv = next((i for i in range(rank, n) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][j]
        for i in range(n):
            if i != rank and a[i][j] != 0:
                f = a[i][j] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def gcd_of_minors(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors of M (0 if all vanish); brute force oracle."""

    def det(rows, cols):
        if len(rows) == 1:
            return M[rows[0], cols[0]]
        total = 0
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = M[rows[0], c] * sub
            total += term if idx % 2 == 0 else -term
        return total

    g = 0
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            g = gcd(g, det(list(rows), list(cols)))
    return g


def face_relation_signature(K: DeltaComplex):
    """Face relations in canonical cell order, for isomorphism-of-export tests."""
    sig = []
    for c in K.cells():
        sig.append(
            (
                c.dim,
                c.label,
                tuple((K[fid].dim, K[fid].label, sign) for fid, sign in c.faces),
            )
        )
    return sig


def sympy_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of the dense matrix rows, by sympy."""
    if not rows or not rows[0]:
        return []
    dM = DomainMatrix([[ZZ(v) for v in row] for row in rows], (len(rows), len(rows[0])), ZZ)
    return [abs(int(d)) for d in invariant_factors(dM) if d]


def unit_eliminate(M: IntMatrix) -> tuple[int, list[list[int]]]:
    """Eliminate M on +-1 pivots; return the pivot count and the residue.

    The rows are held as ``{col: value}`` dicts with a column -> rows index.
    Each step pivots on the +-1 entry of smallest Markowitz cost
    (r-1)(c-1), where r is its row's and c its column's nonzero count, and
    clears that column from the other rows.  A unit pivot is unimodular, so
    M is equivalent to diag(1, ..., 1, R) over the integers, where R, the
    residue, is what is left once no +-1 entry remains.  R is returned as
    dense rows over its nonzero rows and columns; [] when nothing is left.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, entries in enumerate(M.entries):
        row = dict(compress(enumerate(entries), entries))
        if row:
            rows[i] = row
            for j in row:
                col_rows.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    # candidate pivots by (cost, row, col); an entry whose cost has changed
    # since it was pushed is pushed again, and the stale copy is skipped
    heap = [(cost(i, j), i, j) for i, row in rows.items() for j, v in row.items() if v in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        c, i, j = heappop(heap)
        if i not in rows or rows[i].get(j) not in (1, -1) or c != cost(i, j):
            continue
        prow = rows.pop(i)
        v = prow[j]
        for l in prow:
            col_rows[l].discard(i)
        touched = col_rows.pop(j)
        for k in touched:
            row = rows[k]
            f = row[j] * v
            for l, w in prow.items():
                x = row.get(l, 0) - f * w
                if x:
                    if l not in row:
                        col_rows[l].add(k)
                    row[l] = x
                elif l in row:
                    del row[l]
                    if l != j:
                        col_rows[l].discard(k)
            if not row:
                del rows[k]
        units += 1
        for k in touched:
            for l, w in rows.get(k, {}).items():
                if w in (1, -1):
                    heappush(heap, (cost(k, l), k, l))
        for l in prow:
            for k in col_rows.get(l, ()):
                if k not in touched and rows[k][l] in (1, -1):
                    heappush(heap, (cost(k, l), k, l))
    cols = sorted({j for row in rows.values() for j in row})
    return units, [[row.get(j, 0) for j in cols] for row in rows.values()]


def elimination_invariant_factors(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors of M: one 1 per unit pivot, then sympy's
    factors of the residue.  Shares no code with ``degex.linalg``; unit
    pivots keep it fast where sympy alone runs out of memory."""
    units, residue = unit_eliminate(M)
    return [1] * units + sympy_invariant_factors(residue)


def elimination_homology(K: DeltaComplex):
    """Betti numbers and H1 torsion from the full boundary matrices of K."""
    fv = f_vector(K)
    factors = [[]] + [
        elimination_invariant_factors(boundary_matrix(K, d)) for d in range(1, K.dimension + 1)
    ] + [[]]
    betti = tuple(
        fv[d] - len(factors[d]) - len(factors[d + 1]) for d in range(K.dimension + 1)
    )
    if K.dimension < 2:
        return betti, []
    return betti, [d for d in factors[2] if d > 1]


def occupies_every_level(points, c: int) -> bool:
    """Whether the components occupy every expansion level 1..c-1: an edge
    bundle sits on its one level, a corner box on its two, a surface
    component on none.  Shares no code with ``hilb.is_stable``."""
    return {level for p in points if p[0] != "Y" for level in p[2:]} == set(range(1, c))


def brute_force_stable(model, c: int, m: int):
    """Every multiset of m components of codimension c, filtered by
    occupies_every_level, as sorted tuples."""
    return [
        tuple(sorted(pts))
        for pts in combinations_with_replacement(components_at_codim(model, c), m)
        if occupies_every_level(pts, c)
    ]


def stable_points(model, c: int, m: int):
    """all_stable's types as tuples of components, in its order: each index
    into components_at_codim replaced by its component."""
    comps = components_at_codim(model, c)
    return [tuple(comps[i] for i in t) for t in all_stable(model, c, m)]


def case_collapse_point(p, i: int, c: int, assignment):
    """Limit of a component when the level-i base coordinate un-vanishes, by
    cases on the slot and the component's levels; shares no code with the
    library's segment contraction (``hilb.collapse_point``), nor with
    ``expansion.edge_roles`` or ``edge_orientation``: the edges and their
    endpoints are read off the assignment's (F, S, T) roles here."""
    if p[0] == "Y":
        return p
    if p[0] == "E":
        _, e, k = p
        # in a triangle through e, the F-T edge is read from T, the others from S
        F, S, T = assignment.roles(next(t for t in assignment.pairs if set(e) <= set(t)))
        near = T if set(e) == {F, T} else S
        (far,) = set(e) - {near}
        if i == 1:
            return ("Y", near) if k == 1 else ("E", e, k - 1)
        if i == c:
            return ("Y", far) if k == c - 1 else ("E", e, k)
        if k <= i - 2:
            return ("E", e, k)
        if k in (i - 1, i):
            return ("E", e, i - 1)
        return ("E", e, k - 1)
    _, t, j, k = p
    F, S, T = assignment.roles(t)
    if i == 1:
        if j == 1:
            return ("E", tuple(sorted((S, T))), k - 1)
        return ("B", t, j - 1, k - 1)
    if i == c:
        if k == c - 1:
            return ("E", tuple(sorted((F, T))), j)
        return ("B", t, j, k)
    if (j, k) == (i - 1, i):
        return ("E", tuple(sorted((F, S))), i - 1)

    def merged(level: int) -> int:
        return level if level <= i - 1 else level - 1

    return ("B", t, merged(j), merged(k))


def key_per_facet_cells(model, m: int) -> list[Cell]:
    """Cells of the dual complex with every key formatted where it is used:
    each stable type's key for its own cell, and each facet's key again,
    from its own case_collapse_point calls, for every face entry.  Points are
    sorted here before every key is formatted."""

    def label(points):
        return " + ".join(point_str(p) for p in sorted(points))

    def key(c, points):
        return f"c{c}:" + label(points)

    assignment = builtin_assignment(model)
    levels = []
    while types := stable_points(model, len(levels) + 1, m):
        levels.append(types)
    cells = []
    for k, types in enumerate(levels):
        c = k + 1
        # vertices have no facet slots
        slots = range(1, c + 1) if k else ()
        for points in types:
            facets = [[case_collapse_point(p, i, c, assignment) for p in points] for i in slots]
            faces = tuple((key(k, f), (-1) ** i) for i, f in enumerate(facets))
            cells.append(Cell(key(c, points), k, label(points), faces))
    return cells


def _pair_relation(model, e, f) -> str:
    if e == f:
        return "equal"
    if any(set(e) | set(f) <= set(t) for t in model.triangles):
        return "corner"
    if set(e) & set(f):
        return "vertex-only"
    return "disjoint"


def _vertex_edge_relation(model, v, e) -> str:
    if v in e:
        return "adjacent"
    if any(set(e) | {v} <= set(t) for t in model.triangles):
        return "corner"
    return "far"


def classify_config(c: int, points, model) -> str:
    """Family of the stable type `points` of codimension c, in the case-family
    taxonomy; classifies a given type by its component kinds and strata
    relations, sharing no code with ``hilb.enumerate_cases``, which lists the
    types of each family."""
    base = {"Y": 0, "E": 0, "B": 0}
    for p in points:
        base[p[0]] += 1
    p1, p2 = points
    if c == 1:
        return "two points in component interiors"
    if c == 2:
        if base["E"] == 2:
            if p1 == p2:
                return "double point on one edge bundle"
            rel = _pair_relation(model, p1[1], p2[1])
            return {
                "corner": "edge bundles meeting one corner",
                "vertex-only": "bundles over edges sharing only a vertex",
                "disjoint": "bundles over disjoint edges",
            }[rel]
        e = p1 if p1[0] == "E" else p2
        v = p1 if p1[0] == "Y" else p2
        rel = _vertex_edge_relation(model, v[1], e[1])
        return {
            "adjacent": "component with the bundle over an adjacent edge",
            "corner": "edge bundles meeting one corner",
            "far": "component with the bundle over a far edge",
        }[rel]
    if c == 3:
        if base["B"] == 2:
            return "two corner boxes"
        if base["B"] == 1 and base["Y"] == 1:
            return "corner box with a component"
        if base["B"] == 1:
            return "corner box with an edge bundle"
        if p1[1] == p2[1]:
            return "bundles over one edge at different speeds"
        return "bundles over distinct edges at different speeds"
    if c == 4:
        if base["B"] == 2:
            return "corner boxes with complementary level splits"
        return "corner box with the level-matched edge bundle"
    if c == 5:
        return (
            "two splittings of one corner"
            if p1[1] == p2[1]
            else "ordered splittings of two corners"
        )
    raise ValueError(f"unclassifiable configuration {type_key(c, points)}")


def labeling_is_valid(model, labeling: dict[str, int]) -> bool:
    """Every triangle must see each of the labels 1, 2, 3 exactly once."""
    if set(labeling) != set(model.vertices):
        return False
    if not all(labeling[v] in (1, 2, 3) for v in labeling):
        return False
    return all(
        sorted(labeling[v] for v in tri) == [1, 2, 3] for tri in model.triangles
    )


def multichoose(n: int, k: int) -> int:
    """Number of k-element multisets from n kinds."""
    return comb(n + k - 1, k)


def stable_type_count(model, c: int, m: int) -> int:
    """Stable m-point types of codimension c, by inclusion-exclusion over the
    unoccupied levels: with r of the c-1 levels allowed there are
    V + E*r + T*C(r, 2) components to choose m points from."""
    V, E, T = len(model.vertices), len(model.edges), len(model.triangles)
    total = 0
    for s in range(c):
        r = c - 1 - s
        total += (-1) ** s * comb(c - 1, s) * multichoose(V + E * r + T * comb(r, 2), m)
    return total


# the sampler's table as Fractions: a/b for every nonzero a in -9..9 and b in
# 1..9, in the same order, repeats kept
FRACTION_TABLE = tuple(Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 10))


def fraction_point(p: ChartPoint) -> ChartPoint:
    """p with each integer pair (num, den) replaced by Fraction(num, den)."""
    def value(pair):
        return Fraction(*pair)

    return ChartPoint(
        value(p.x),
        value(p.y),
        value(p.z),
        tuple(map(value, p.t)),
        tuple((value(a), value(b)) for a, b in p.xs),
        tuple((value(a), value(b)) for a, b in p.ys),
    )


def fraction_sample(n: int, seed: int, rng: Random | None = None) -> ChartPoint:
    """The chart sampler in Fraction arithmetic, drawing from the same table
    with the same rng calls: a ChartPoint whose entries are Fractions."""
    rng = rng or Random(f"chart:{n}:{seed}")
    x = rng.choice(FRACTION_TABLE)
    z = rng.choice(FRACTION_TABLE)
    t = tuple(rng.choice(FRACTION_TABLE) for _ in range(n + 1))
    y = prod(t, start=Fraction(1)) / (x * z)
    xs = []
    ys = []
    for k in range(1, n + 1):
        alpha = rng.choice(FRACTION_TABLE)
        xs.append((alpha * x, alpha * prod(t[:k])))
        beta = rng.choice(FRACTION_TABLE)
        ys.append((beta * y, beta * prod(t[n + 1 - k :])))
    return ChartPoint(x, y, z, t, tuple(xs), tuple(ys))


def fraction_act(taus: tuple[Fraction, ...], p: ChartPoint) -> ChartPoint:
    """The torus action in Fraction arithmetic on a Fraction point: t_i
    scales by tau_i / tau_{i-1} (tau_0 = tau_{n+1} = 1), the k-th x-pair's
    second entry by tau_k and the j-th y-pair's first entry by tau_{n+1-j}."""
    n = p.depth
    scale = (Fraction(1), *taus, Fraction(1))
    t = tuple(scale[i + 1] / scale[i] * p.t[i] for i in range(n + 1))
    xs = tuple((x0, taus[k] * x1) for k, (x0, x1) in enumerate(p.xs))
    ys = tuple((taus[n - j] * y0, y1) for j, (y0, y1) in enumerate(p.ys, start=1))
    return ChartPoint(p.x, p.y, p.z, t, xs, ys)


def chart_equation_residuals(p: ChartPoint) -> dict[str, Fraction]:
    """Exact residual lhs - rhs of every defining chart relation at the
    integer-pair point p, in Fraction arithmetic (all vanish on the chart)."""
    p = fraction_point(p)
    n = p.depth
    res: dict[str, Fraction] = {}
    if n == 0:
        return res
    res["x(1)"] = p.xs[0][0] * p.t[0] - p.x * p.xs[0][1]
    for k in range(2, n + 1):
        res[f"x-chain({k})"] = (
            p.xs[k - 2][1] * p.xs[k - 1][0] * p.t[k - 1] - p.xs[k - 2][0] * p.xs[k - 1][1]
        )
    res["x(n)-closure"] = p.xs[n - 1][0] * p.y * p.z - p.xs[n - 1][1] * p.t[n]
    res["y(1)"] = p.ys[0][0] * p.t[n] - p.y * p.ys[0][1]
    for k in range(2, n + 1):
        res[f"y-chain({k})"] = (
            p.ys[k - 2][1] * p.ys[k - 1][0] * p.t[n + 1 - k]
            - p.ys[k - 2][0] * p.ys[k - 1][1]
        )
    res["y(n)-closure"] = p.ys[n - 1][0] * p.x * p.z - p.ys[n - 1][1] * p.t[0]
    for k in range(1, n + 1):
        res[f"cross({k})"] = (
            p.xs[k - 1][0] * p.ys[n - k][0] * p.z - p.xs[k - 1][1] * p.ys[n - k][1]
        )
    return res


def product_identity_residual(p: ChartPoint) -> Fraction:
    """x y z - t_1...t_{n+1} at the integer-pair point p, in Fraction arithmetic."""
    p = fraction_point(p)
    return p.x * p.y * p.z - prod(p.t, start=Fraction(1))


def interior_walls(cert, tau: Fraction):
    """(region, region, wall endpoints) for the two interior walls of a face
    certificate's expected regions."""
    pts = cert.marked_points(tau)
    return (
        ("quad-third", "corner-first", (pts["node"], pts["cut_F"])),
        ("quad-third", "corner-second", (pts["node"], pts["cut_S"])),
    )


def wall_failures(cert, tau: Fraction, matching: dict) -> list:
    """Failures of the interior-wall conditions, given the region -> piece
    `matching` of a certificate: across each interior wall the two adjacent
    pieces agree at the wall midpoint, where they are minimal, and each wins
    strictly at its own region's barycenter.  `check_strict_convexity`
    implies them by concavity of the minimum; this checks them directly."""
    tau = Fraction(tau)
    regions = cert.expected_regions(tau)
    failures = []

    def values(pt):
        c, q = pt
        assert 0 <= q <= c <= 1, "sample left the face"
        return [p.value(c, q, tau) for p in cert.pieces]

    if len(matching) == len(regions) and not failures:
        for r1, r2, (a, b) in interior_walls(cert, tau):
            i, j = matching[r1], matching[r2]
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            vals = values(mid)
            if not (vals[i] == vals[j] == min(vals)):
                failures.append(
                    {
                        "kind": "wall agreement failed",
                        "wall": [r1, r2],
                        "point": [str(mid[0]), str(mid[1])],
                    }
                )
                continue
            # strictness: each piece wins strictly on its own side
            for rname, own, other in ((r1, i, j), (r2, j, i)):
                region = next(r for r in regions if r.name == rname)
                vals_b = values(region.barycenter())
                if not vals_b[own] < vals_b[other]:
                    failures.append(
                        {
                            "kind": "strictness failed",
                            "wall": [r1, r2],
                            "region": rname,
                        }
                    )
    return failures


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


def node_census(model, assignment, positions) -> dict:
    """The nodes and atomic segments of every edge, from a census keyed by
    position, independent of `expansion.subdivide`'s edge layouts.

    Each side of an edge reads it from its distinguished endpoint (S on F-S
    and S-T, T on F-T, by `assignment.roles`) and places level k at P_k from
    there.  Returns {edge: (nodes, segments)}: `nodes` lists (position from
    the first endpoint, node id, {triangle: level}) by position, and
    `segments` maps each side's triangle to the (symbol, length) of every
    atomic segment from the first endpoint, where a segment's symbol is the
    number of the side's levels 0..n+1 at or before its near end."""
    ladder = (Fraction(0), *positions, Fraction(1))
    from_first = {}  # edge -> {triangle: position from the first endpoint of each level}
    for tri in model.triangles:
        F, S, T = assignment.roles(tri)
        for a, b, dist in ((F, S, S), (S, T, S), (F, T, T)):
            e = tuple(sorted((a, b)))
            levels = [p if dist == e[0] else 1 - p for p in ladder]
            from_first.setdefault(e, {})[tri] = levels
    census = {}
    for e, sides in sorted(from_first.items()):
        nodes: dict[Fraction, dict] = {}
        for tri in sorted(sides):
            for k, pos in enumerate(sides[tri][1:-1], 1):
                nodes.setdefault(pos, {})[tri] = k
        points = [Fraction(0), *sorted(nodes), Fraction(1)]
        segments = {}
        for tri, levels in sides.items():
            forward = levels[0] == 0
            segments[tri] = []
            for lo, hi in zip(points, points[1:]):
                near = lo if forward else 1 - hi
                symbol = sum(1 for p in ladder if p <= near)
                segments[tri].append((symbol, hi - lo))
        census[e] = (
            [(pos, f"x:{e[0]}|{e[1]}@{pos}", nodes[pos]) for pos in sorted(nodes)],
            segments,
        )
    return census


def assignment_to_json_obj(assignment: BlowupAssignment) -> list[dict]:
    """The assignment-file ``triangles`` list of an assignment."""
    return [
        {"vertices": list(t), "first": f, "second": s}
        for t, (f, s) in sorted(assignment.pairs.items())
    ]


def certificate_to_json_obj(cert) -> dict:
    """The certificate-file object of one face certificate."""
    return {
        "name": cert.name,
        "corners": {k: [str(v[0]), str(v[1])] for k, v in cert.corners.items()},
        "roles": list(cert.roles),
        "pieces": [
            {"a_c": str(p.a_c), "a_q": str(p.a_q), "a_tau": str(p.a_tau), "b": str(p.b)}
            for p in cert.pieces
        ],
    }


def certificates_to_json(certs) -> str:
    """A certificate file, as ``projectivity.certificates_from_json`` reads it."""
    faces = [certificate_to_json_obj(c) for c in certs]
    return json.dumps({"faces": faces}, indent=2, sort_keys=True)
