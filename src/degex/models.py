"""Triangulated-sphere models of the two degenerate K3 special fibres.

The quartic fibre is the union of the four coordinate hyperplanes, whose dual
complex is the boundary of a tetrahedron.  The cube fibre consists of the six
coordinate divisors of a triple product of lines; the octahedral structure is
computed from divisor adjacency (two divisors meet exactly when they are not
the two members of one coordinate pair) rather than hard-coded.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    DeltaComplex,
    euler_characteristic,
    euler_of_counts,
    f_vector,
    simplex_complex,
    validate,
)

Labeling3 = dict[str, int]


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class SingularityData:
    resolved_singularities: int
    per_double_curve: tuple[tuple[tuple[str, str], int], ...]

    def check(self):
        total = sum(n for _, n in self.per_double_curve)
        if total != self.resolved_singularities:
            raise ValueError(
                f"per-curve counts sum to {total}, expected {self.resolved_singularities}"
            )


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    sphere: DeltaComplex
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    triangles: tuple[tuple[str, str, str], ...]
    metadata: SingularityData | None = None

    def triangles_containing_edge(self, e: tuple[str, str]) -> list[tuple[str, str, str]]:
        return [t for t in self.triangles if set(e) <= set(t)]


def make_surface_model(
    name: str,
    triangles,
    metadata: SingularityData | None = None,
) -> SurfaceModel:
    """Assemble a model from triangles, checking it is a closed surface with
    the Euler characteristic of a sphere.  Each triangle's corners and the
    triangle list are sorted, so the model fixes the order of its strata
    whatever order the input lists them in."""
    triangles = tuple(sorted(tuple(sorted(t)) for t in triangles))
    vertices = tuple(sorted({v for t in triangles for v in t}))
    edges = tuple(sorted({edge_key(a, b) for t in triangles for a, b in combinations(t, 2)}))
    sphere = simplex_complex(triangles)
    model = SurfaceModel(name, sphere, vertices, edges, triangles, metadata)
    problems = validate(sphere)
    if problems:
        raise ValueError(f"model {name}: {problems[0]}")
    for e in edges:
        cofaces = model.triangles_containing_edge(e)
        if len(cofaces) != 2:
            raise ValueError(f"model {name}: edge {e} has {len(cofaces)} coface triangles")
    if euler_characteristic(sphere) != 2:
        raise ValueError(f"model {name}: Euler characteristic != 2")
    if metadata is not None:
        metadata.check()
    return model


def quartic_model() -> SurfaceModel:
    """Boundary of the tetrahedron on components Y1..Y4.

    The total space of the pencil has 24 threefold ordinary double points,
    four along each of the six pairwise intersection lines.
    """
    names = ["Y1", "Y2", "Y3", "Y4"]
    triangles = list(combinations(names, 3))
    curves = tuple((edge_key(a, b), 4) for a, b in combinations(names, 2))
    meta = SingularityData(24, curves)
    return make_surface_model("quartic", triangles, meta)


def cube_model() -> SurfaceModel:
    """Boundary of the octahedron on the six coordinate divisors.

    Divisors come in three opposite pairs (one per factor of the triple
    product); adjacency is "not an opposite pair" and triple intersections
    pick one divisor from each pair, which is recomputed here from first
    principles.  Two singular points sit on each of the twelve double curves.
    """
    pairs = [("Y1", "Y2"), ("Y3", "Y4"), ("Y5", "Y6")]
    opposite = {}
    for a, b in pairs:
        opposite[a] = b
        opposite[b] = a
    names = [v for p in pairs for v in p]
    triangles = [
        (a, b, c)
        for a, b, c in combinations(names, 3)
        if opposite[a] not in (b, c) and opposite[b] != c
    ]
    edges = {
        edge_key(a, b)
        for a, b in combinations(names, 2)
        if opposite[a] != b
    }
    curves = tuple((e, 2) for e in sorted(edges))
    meta = SingularityData(24, curves)
    return make_surface_model("cube", triangles, meta)


def get_model(name: str) -> SurfaceModel:
    if name == "quartic":
        return quartic_model()
    if name == "cube":
        return cube_model()
    raise ValueError(f"unknown model: {name}")


def find_3_labeling(model: SurfaceModel) -> Labeling3 | None:
    """Lexicographically least labeling of the vertices by {1,2,3}, if any.

    Backtracking over vertices in sorted order with labels tried in
    increasing order; pruning only discards assignments that already give
    two corners of one triangle the same label, so the search is exhaustive.
    """
    order = sorted(model.vertices)
    assignment: dict[str, int] = {}

    def consistent(v: str) -> bool:
        # three distinct labels from {1, 2, 3} are always 1, 2 and 3
        for tri in model.triangles:
            if v in tri:
                labels = [assignment[u] for u in tri if u in assignment]
                if len(labels) != len(set(labels)):
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for lab in (1, 2, 3):
            assignment[v] = lab
            if consistent(v) and search(i + 1):
                return True
            del assignment[v]
        return False

    if search(0):
        return dict(assignment)
    return None


def model_report(model: SurfaceModel) -> dict:
    counts = list(f_vector(model.sphere))
    report = {
        "name": model.name,
        "f_vector": counts,
        "euler_characteristic": euler_of_counts(counts),
    }
    if model.metadata is not None:
        report["resolved_singularities"] = model.metadata.resolved_singularities
        report["singularities_per_double_curve"] = [
            {"curve": list(e), "count": n} for e, n in model.metadata.per_double_curve
        ]
    return report
