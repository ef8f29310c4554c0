"""Delta-complexes: graded cells with ordered, signed face lists.

Cells are not determined by their vertex sets; identifications are expressed
purely through shared face ids.  Face signs follow the standard alternating
convention on ordered face slots, which makes the composed-boundary check a
mechanical one: for every cell the signed sum of faces-of-faces must vanish.

Homology is computed over the rationals from exact ranks of the integer
boundary matrices; integral torsion of H1 is reported via Smith normal form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import IntMatrix, rank_over_rationals, smith_normal_form


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int
    label: str
    faces: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for _, sign in self.faces:
            if sign not in (1, -1):
                raise ValueError(f"cell {self.id}: face sign must be +1 or -1")


def euler_of_counts(counts) -> int:
    """Alternating sum of an f-vector given as a plain sequence."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


@dataclass(frozen=True)
class Violation:
    kind: str
    cell_id: str
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.cell_id}: {self.detail}"


class DeltaComplex:
    """Immutable graded collection of cells with signed face lists."""

    def __init__(self, cells):
        self._cells: dict[str, Cell] = {}
        for cell in cells:
            if cell.id in self._cells:
                raise ValueError(f"duplicate cell id {cell.id}")
            self._cells[cell.id] = cell
        # sorted is stable and the dict keeps insertion order, so ties in
        # (dimension, label) stay in insertion order
        self._order = sorted(self._cells.values(), key=lambda c: (c.dim, c.label))
        self.dimension = max((c.dim for c in self._cells.values()), default=0)

    def __contains__(self, cell_id):
        return cell_id in self._cells

    def __getitem__(self, cell_id) -> Cell:
        return self._cells[cell_id]

    def __len__(self):
        return len(self._cells)

    def cells(self) -> list[Cell]:
        """Cells in the canonical order (dimension, label, insertion order)."""
        return list(self._order)

    def cells_of_dim(self, d: int) -> list[Cell]:
        return [c for c in self.cells() if c.dim == d]


def validate(K: DeltaComplex) -> list[Violation]:
    """Check both structural invariants; empty list means success.

    Reported violations: dangling face ids, wrong face count (a d-cell must
    carry exactly d+1 face entries for d >= 1, with faces of dimension d-1),
    and nonvanishing composed boundary.
    """
    violations: list[Violation] = []
    for cell in K.cells():
        if cell.dim == 0:
            if cell.faces:
                violations.append(
                    Violation("wrong face count", cell.id, "0-cell with faces")
                )
            continue
        if len(cell.faces) != cell.dim + 1:
            violations.append(
                Violation(
                    "wrong face count",
                    cell.id,
                    f"{cell.dim}-cell with {len(cell.faces)} face entries",
                )
            )
        for fid, _ in cell.faces:
            if fid not in K:
                violations.append(Violation("dangling face id", cell.id, fid))
            elif K[fid].dim != cell.dim - 1:
                violations.append(
                    Violation(
                        "wrong face dimension",
                        cell.id,
                        f"face {fid} has dim {K[fid].dim}",
                    )
                )
    if violations:
        return violations
    # composed boundary must vanish exactly
    for cell in K.cells():
        if cell.dim < 2:
            continue
        acc: dict[str, int] = {}
        for fid, s1 in cell.faces:
            for gid, s2 in K[fid].faces:
                acc[gid] = acc.get(gid, 0) + s1 * s2
        bad = {g: v for g, v in acc.items() if v != 0}
        if bad:
            violations.append(
                Violation("composed boundary nonzero", cell.id, str(sorted(bad)))
            )
    return violations


def f_vector(K: DeltaComplex) -> tuple[int, ...]:
    counts = [0] * (K.dimension + 1)
    for cell in K.cells():
        counts[cell.dim] += 1
    return tuple(counts)


def euler_characteristic(K: DeltaComplex) -> int:
    return euler_of_counts(f_vector(K))


def boundary_matrix(K: DeltaComplex, d: int) -> IntMatrix:
    """Integer matrix of the boundary map from d-cells to (d-1)-cells.

    Rows are (d-1)-cells, columns are d-cells, both in canonical order;
    repeated face occurrences accumulate.
    """
    rows = K.cells_of_dim(d - 1)
    cols = K.cells_of_dim(d)
    row_index = {c.id: i for i, c in enumerate(rows)}
    M = IntMatrix(len(rows), len(cols))
    for j, cell in enumerate(cols):
        for fid, sign in cell.faces:
            M[row_index[fid], j] += sign
    return M


def betti_numbers(K: DeltaComplex) -> tuple[int, ...]:
    """Rational Betti numbers b_0..b_dim from exact boundary ranks."""
    fv = f_vector(K)
    ranks = [0] * (K.dimension + 2)
    for d in range(1, K.dimension + 1):
        ranks[d] = rank_over_rationals(boundary_matrix(K, d))
    return tuple(
        fv[d] - ranks[d] - ranks[d + 1] for d in range(K.dimension + 1)
    )


def h1_torsion(K: DeltaComplex) -> list[int]:
    """Invariant factors > 1 of the degree-2 boundary map (torsion of H1)."""
    if K.dimension < 2:
        return []
    return [d for d in smith_normal_form(boundary_matrix(K, 2)) if d > 1]


def homology_summary(K: DeltaComplex) -> dict:
    return {
        "betti": list(betti_numbers(K)),
        "h1_torsion": h1_torsion(K),
    }


def to_json(K: DeltaComplex) -> str:
    payload = {
        "dimension": K.dimension,
        "cells": [
            {
                "id": c.id,
                "dim": c.dim,
                "label": c.label,
                "faces": [{"id": fid, "sign": sign} for fid, sign in c.faces],
            }
            for c in K.cells()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text: str) -> DeltaComplex:
    payload = json.loads(text)
    cells = [
        Cell(
            id=c["id"],
            dim=c["dim"],
            label=c["label"],
            faces=tuple((f["id"], f["sign"]) for f in c["faces"]),
        )
        for c in payload["cells"]
    ]
    return DeltaComplex(cells)


def to_dot(K: DeltaComplex) -> str:
    """1-skeleton as an undirected graph with cell labels."""
    lines = ["graph skeleton {"]
    for c in K.cells_of_dim(0):
        lines.append(f'  "{c.id}" [label="{c.label}"];')
    for c in K.cells_of_dim(1):
        ends = [fid for fid, _ in c.faces]
        if len(ends) == 2:
            lines.append(f'  "{ends[1]}" -- "{ends[0]}" [label="{c.label}"];')
    lines.append("}")
    return "\n".join(lines)


def export(K: DeltaComplex, format: str) -> bytes:
    if format == "json":
        return to_json(K).encode()
    if format == "dot":
        return to_dot(K).encode()
    raise ValueError(f"unknown export format: {format}")


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


def simplex_complex(triangles, vertex_labels=None) -> DeltaComplex:
    """Build the delta-complex of a set of triangles given as vertex triples.

    Vertices are identified by name; edges are the canonical sorted pairs.
    Orientations use the sorted-vertex convention, so the composed boundary
    vanishes by construction.
    """
    vertex_labels = vertex_labels or {}
    verts: dict[str, Cell] = {}
    edges: dict[tuple[str, str], Cell] = {}
    cells: list[Cell] = []

    def vertex(name: str) -> str:
        vid = f"v:{name}"
        if vid not in verts:
            verts[vid] = Cell(vid, 0, vertex_labels.get(name, name))
        return vid

    def edge(a: str, b: str) -> str:
        key = tuple(sorted((a, b)))
        eid = f"e:{key[0]}|{key[1]}"
        if key not in edges:
            edges[key] = Cell(
                eid,
                1,
                f"{key[0]}-{key[1]}",
                ((vertex(key[1]), 1), (vertex(key[0]), -1)),
            )
        return eid

    tri_cells = []
    for tri in triangles:
        a, b, c = sorted(tri)
        tid = f"t:{a}|{b}|{c}"
        tri_cells.append(
            Cell(
                tid,
                2,
                f"{a}-{b}-{c}",
                ((edge(b, c), 1), (edge(a, c), -1), (edge(a, b), 1)),
            )
        )
    cells.extend(verts.values())
    cells.extend(edges.values())
    cells.extend(tri_cells)
    return DeltaComplex(cells)
