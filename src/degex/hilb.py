"""Dual complexes of the Hilbert-square degenerations.

Cells are combinatorial types of stable two-point configurations.  In a
fibre of base codimension c the available components are the original
surface components, one exceptional bundle per double curve and expansion
level 1..c-1, and one corner box per triple point and level pair j < k.  A
configuration is stable when its points sit in component interiors and
every expansion level is occupied (finite automorphisms under the fibre
torus); its type records only the components, with the two points unordered.

k-simplices of the dual complex correspond to types of base codimension
k+1.  The k+1 facet slots un-vanish one base coordinate each: slot i merges
the level-i segment away, sending each component to its limit.  These
collapse maps commute, so the alternating-sign boundary squares to zero.

The complex is built from one concept: every stable type is a cell, its
faces are given by the facet maps, and validation proves every facet is
itself a stable type and that the boundary squares to zero.  The
case-family counts (orbit counting over the model strata, one named family
per proof case) are an independent census of the same cells; the two must
agree family by family, and a mismatch is a hard failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, zip_longest

from .complexes import Cell, DeltaComplex, euler_of_counts, f_vector, validate
from .expansion import BlowupAssignment, edge_roles, get_assignment
from .models import SurfaceModel, get_model

# f-vector of the known 10-vertex simplicial triangulation of CP^2, which
# the quartic complex must reproduce exactly
REFERENCE_CP2_10_VERTEX = (10, 45, 110, 120, 48)
# published totals claimed for the cube complex, compared but never forced
CUBE_CLAIMED_TOTALS = (21, 120, 420, 480, 192)
CP2_EULER = 3
CP2_BETTI = (1, 0, 1, 0, 1)

INDEX_CONVENTION_NOTE = (
    "k-simplices carry base codimension k+1; the alternative convention "
    "(base codimension 5-k) is documented but not used"
)


class ExpansionStructure:
    """Distinguished endpoints and corner roles induced by an assignment."""

    def __init__(self, model: SurfaceModel, assignment: BlowupAssignment):
        assignment.validate_for(model)
        self.model = model
        self.assignment = assignment
        self.distinguished: dict = {}
        self.far_end: dict = {}
        self.role_edges: dict = {}
        for tri in model.triangles:
            roles = edge_roles(assignment, tri)
            self.role_edges[tri] = {role: e for role, (e, _) in roles.items()}
            for e, dist in roles.values():
                prev = self.distinguished.get(e)
                if prev is not None and prev != dist:
                    raise ValueError(
                        f"assignment does not glue on {e}; build the complex "
                        "with a gluing assignment"
                    )
                self.distinguished[e] = dist
                self.far_end[e] = e[0] if e[1] == dist else e[1]


def structure_for(model: SurfaceModel) -> ExpansionStructure:
    kind = "default" if model.name == "quartic" else "labeling"
    return ExpansionStructure(model, get_assignment(model, kind))


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True, order=True)
class ConfigType:
    codim: int
    points: tuple

    @property
    def canonical_key(self) -> str:
        return f"c{self.codim}:" + " + ".join(point_str(p) for p in self.points)


def make_config(codim: int, points) -> ConfigType:
    return ConfigType(codim, tuple(sorted(points)))


def point_str(p) -> str:
    if p[0] == "Y":
        return p[1]
    if p[0] == "E":
        return f"E[{'|'.join(p[1])}]@{p[2]}"
    return f"B[{'|'.join(p[1])}]@{p[2]},{p[3]}"


def point_levels(p) -> frozenset:
    if p[0] == "Y":
        return frozenset()
    if p[0] == "E":
        return frozenset((p[2],))
    return frozenset((p[2], p[3]))


def components_at_codim(structure: ExpansionStructure, c: int) -> list:
    model = structure.model
    comps = [("Y", v) for v in model.vertices]
    comps += [("E", e, k) for e in model.edges for k in range(1, c)]
    comps += [
        ("B", t, j, k)
        for t in model.triangles
        for j in range(1, c)
        for k in range(j + 1, c)
    ]
    return sorted(comps)


def is_stable(points, c: int) -> bool:
    occupied = frozenset().union(*(point_levels(p) for p in points))
    return occupied == frozenset(range(1, c))


def all_stable(structure: ExpansionStructure, c: int, m: int = 2) -> list[ConfigType]:
    out = []
    for pts in combinations_with_replacement(components_at_codim(structure, c), m):
        if is_stable(pts, c):
            out.append(make_config(c, pts))
    return out


# ---------------------------------------------------------------------------
# facet maps


def collapse_point(p, i: int, c: int, structure: ExpansionStructure):
    """Limit of a component when the level-i base coordinate un-vanishes."""
    if p[0] == "Y":
        return p
    if p[0] == "E":
        _, e, k = p
        if i == 1:
            return ("Y", structure.distinguished[e]) if k == 1 else ("E", e, k - 1)
        if i == c:
            return ("Y", structure.far_end[e]) if k == c - 1 else ("E", e, k)
        if k <= i - 2:
            return ("E", e, k)
        if k in (i - 1, i):
            return ("E", e, i - 1)
        return ("E", e, k - 1)
    _, t, j, k = p
    edges = structure.role_edges[t]
    if i == 1:
        if j == 1:
            return ("E", edges["ST"], k - 1)
        return ("B", t, j - 1, k - 1)
    if i == c:
        if k == c - 1:
            return ("E", edges["FT"], j)
        return ("B", t, j, k)
    if (j, k) == (i - 1, i):
        return ("E", edges["FS"], i - 1)

    def merged(level: int) -> int:
        return level if level <= i - 1 else level - 1

    return ("B", t, merged(j), merged(k))


def facets(cfg: ConfigType, structure: ExpansionStructure) -> list[ConfigType]:
    """Ordered facet slots; slot i un-vanishes the i-th base coordinate."""
    return [
        make_config(
            cfg.codim - 1,
            (collapse_point(p, i, cfg.codim, structure) for p in cfg.points),
        )
        for i in range(1, cfg.codim + 1)
    ]


# ---------------------------------------------------------------------------
# case-family enumeration (independent of the complex construction)


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


@dataclass(frozen=True)
class CaseBreakdown:
    dim: int
    cases: tuple[tuple[str, int], ...]

    def total(self) -> int:
        return sum(n for _, n in self.cases)

    def to_json_obj(self):
        return {
            "dim": self.dim,
            "cases": [{"description": d, "count": n} for d, n in self.cases],
            "total": self.total(),
        }


FAMILY_ORDER = {
    0: ["two points in component interiors"],
    1: [
        "edge bundles meeting one corner",
        "double point on one edge bundle",
        "component with the bundle over an adjacent edge",
        "bundles over disjoint edges",
        "bundles over edges sharing only a vertex",
        "component with the bundle over a far edge",
    ],
    2: [
        "two corner boxes",
        "corner box with a component",
        "corner box with an edge bundle",
        "bundles over distinct edges at different speeds",
        "bundles over one edge at different speeds",
    ],
    3: [
        "corner boxes with complementary level splits",
        "corner box with the level-matched edge bundle",
    ],
    4: [
        "two splittings of one corner",
        "ordered splittings of two corners",
    ],
}


def enumerate_cases(model: SurfaceModel, k: int) -> CaseBreakdown:
    """Two-point case families at dimension k, counted stratum by stratum.

    Each count iterates over actual strata of the model (vertices, double
    curves, triple points and their incidences); nothing is hard-coded.
    Families that cannot occur on a model (count zero) are omitted.
    """
    if not 0 <= k <= 4:
        raise ValueError("dimension out of range for two points")
    V, E, T = model.vertices, model.edges, model.triangles
    counts = {name: 0 for name in FAMILY_ORDER[k]}
    if k == 0:
        counts["two points in component interiors"] = sum(
            1 for _ in combinations_with_replacement(V, 2)
        )
    elif k == 1:
        for e, f in combinations_with_replacement(E, 2):
            rel = _pair_relation(model, e, f)
            if rel == "equal":
                counts["double point on one edge bundle"] += 1
            elif rel == "corner":
                counts["edge bundles meeting one corner"] += 1
            elif rel == "vertex-only":
                counts["bundles over edges sharing only a vertex"] += 1
            else:
                counts["bundles over disjoint edges"] += 1
        for v in V:
            for e in E:
                rel = _vertex_edge_relation(model, v, e)
                if rel == "adjacent":
                    counts["component with the bundle over an adjacent edge"] += 1
                elif rel == "corner":
                    counts["edge bundles meeting one corner"] += 1
                else:
                    counts["component with the bundle over a far edge"] += 1
    elif k == 2:
        counts["two corner boxes"] = sum(1 for _ in combinations_with_replacement(T, 2))
        counts["corner box with a component"] = sum(1 for _ in T for _ in V)
        counts["corner box with an edge bundle"] = sum(
            1 for _ in T for _ in E for _speed in (1, 2)
        )
        counts["bundles over distinct edges at different speeds"] = sum(
            2 for _ in combinations(E, 2)
        )
        counts["bundles over one edge at different speeds"] = len(E)
    elif k == 3:
        boxes = [(t, j, k2) for t in T for (j, k2) in ((1, 2), (1, 3), (2, 3))]
        n = 0
        for (t1, a1, b1), (t2, a2, b2) in combinations_with_replacement(boxes, 2):
            if {a1, b1} | {a2, b2} == {1, 2, 3} and {a1, b1} != {a2, b2}:
                n += 1
        counts["corner boxes with complementary level splits"] = n
        counts["corner box with the level-matched edge bundle"] = sum(
            1 for _t in T for _lv in ((1, 2), (1, 3), (2, 3)) for _e in E
        )
    elif k == 4:
        boxes = [(t, j, k2) for t in T for j in (1, 2, 3) for k2 in range(j + 1, 5)]
        one, two = 0, 0
        for (t1, a1, b1), (t2, a2, b2) in combinations_with_replacement(boxes, 2):
            if {a1, b1} | {a2, b2} == {1, 2, 3, 4} and not {a1, b1} & {a2, b2}:
                if t1 == t2:
                    one += 1
                else:
                    two += 1
        counts["two splittings of one corner"] = one
        counts["ordered splittings of two corners"] = two
    cases = tuple((name, counts[name]) for name in FAMILY_ORDER[k] if counts[name])
    return CaseBreakdown(k, cases)


def classify_config(cfg: ConfigType, model: SurfaceModel) -> str:
    """Family of a stable type, in the case-family taxonomy."""
    base = {"Y": 0, "E": 0, "B": 0}
    for p in cfg.points:
        base[p[0]] += 1
    c = cfg.codim
    p1, p2 = cfg.points
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
    raise ValueError(f"unclassifiable configuration {cfg.canonical_key}")


# ---------------------------------------------------------------------------
# the complex


class EnumerationMismatch(Exception):
    def __init__(self, message, diff):
        super().__init__(message)
        self.diff = diff


def build_pi(model: SurfaceModel, m: int = 2):
    """Assemble the dual complex and cross-check it against the case counts.

    Cells are all stable types of every base codimension down to the deepest
    nonempty one, with faces from the facet maps.  Returns (complex, info).
    For m = 2 the census is compared with enumerate_cases family by family,
    and info["breakdowns"] keeps those case counts; any disagreement, or a
    complex failing validation, raises EnumerationMismatch.
    """
    structure = structure_for(model)
    levels = []
    while cfgs := all_stable(structure, len(levels) + 1, m):
        levels.append(cfgs)

    breakdowns = []
    if m == 2:
        for k, cfgs in enumerate(levels):
            breakdown = enumerate_cases(model, k)
            expected = dict(breakdown.cases)
            got: dict[str, list[str]] = {}
            for cfg in cfgs:
                got.setdefault(classify_config(cfg, model), []).append(cfg.canonical_key)
            if expected != {fam: len(keys) for fam, keys in got.items()}:
                raise EnumerationMismatch(
                    f"case census and stable types disagree at dimension {k}",
                    {
                        "dimension": k,
                        "case_counts": expected,
                        "stable_type_counts": {f: sorted(ks) for f, ks in got.items()},
                    },
                )
            breakdowns.append(breakdown)

    cells = []
    for k, cfgs in enumerate(levels):
        for cfg in cfgs:
            fs = facets(cfg, structure) if k else []
            faces = tuple((f.canonical_key, (-1) ** i) for i, f in enumerate(fs))
            cells.append(
                Cell(cfg.canonical_key, k, " + ".join(point_str(p) for p in cfg.points), faces)
            )
    K = DeltaComplex(cells)
    problems = validate(K)
    if problems:
        raise EnumerationMismatch(
            "complex failed validation", {"violations": [str(p) for p in problems]}
        )
    info = {
        "model": model.name,
        "m": m,
        "f_vector": list(f_vector(K)),
        "index_convention": INDEX_CONVENTION_NOTE,
    }
    if breakdowns:
        info["breakdowns"] = breakdowns
    return K, info


def compare_with_reference(fv, model_name: str, m: int = 2) -> dict:
    """Equality report against the embedded reference counts.

    For the quartic (m=2) the reference is the 10-vertex triangulation
    f-vector together with the rational-homology targets; for the cube it is
    the published claimed totals, whose alternating sum is surfaced next to
    the target value 3 rather than silently accepted.  For m=1 the reference
    is the model's own sphere.
    """
    fv = tuple(fv)
    report: dict = {"computed_f_vector": list(fv), "computed_euler": euler_of_counts(fv)}
    flags = []
    if m == 1:
        ref = f_vector(get_model(model_name).sphere)
        target_euler = 2
        ref_name = f"dual complex of the {model_name} fibre"
    elif model_name == "quartic":
        ref = REFERENCE_CP2_10_VERTEX
        target_euler = CP2_EULER
        ref_name = "10-vertex triangulation counts"
    else:
        ref = CUBE_CLAIMED_TOTALS
        target_euler = CP2_EULER
        ref_name = "claimed cube totals"
    report["reference"] = {
        "name": ref_name,
        "f_vector": list(ref),
        "euler": euler_of_counts(ref),
    }
    report["matches_reference"] = fv == ref
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
    report["flags"] = flags
    return report


def homology_report(model: SurfaceModel, m: int = 2) -> dict:
    from .complexes import homology_summary

    K, info = build_pi(model, m)
    report = {"model": model.name, "m": m, "f_vector": info["f_vector"]}
    report.update(homology_summary(K))
    return report
