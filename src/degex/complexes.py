"""Delta-complexes: graded cells with ordered, signed face lists.

Cells are not determined by their vertex sets; identifications are expressed
purely through shared face ids.  Face signs follow the standard alternating
convention on ordered face slots, which makes the composed-boundary check a
mechanical one: for every cell the signed sum of faces-of-faces must vanish.
A ``Cell`` is a plain record; ``DeltaComplex`` checks each cell's face signs
once, when the complex is built, so ``from_json`` input is checked too.  The
canonical cell order is sorted on its first read, so a complex that is only
counted (``f_vector``, ``len``, ``in``) is never sorted.

Homology comes from coreduction to the Morse complex, then exact rank and
Smith normal form of its boundary: pairs of cells joined by a +-1
coefficient are removed one at a time, each removal a unimodular change of
basis, and ``linalg`` sees only the boundary between the critical cells that
remain (empty on every complex the suite builds).  A complex is coreduced
once: its Morse boundaries are computed on first use and kept with it, so
``betti_numbers`` and ``h1_torsion`` share them.  Rational Betti numbers
come from their ranks, the torsion of H1 from the Smith normal form of the
degree-2 part.  ``boundary_matrix`` assembles the full boundary, which the
tests' elimination oracle reduces to check the Morse path.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import dumps
from .linalg import IntMatrix, rank_over_rationals, smith_normal_form


class Cell(NamedTuple):
    id: str
    dim: int
    label: str
    faces: tuple[tuple[str, int], ...] = ()


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
            for _, sign in cell.faces:
                if sign not in (1, -1):
                    raise ValueError(f"cell {cell.id}: face sign must be +1 or -1")
            if cell.id in self._cells:
                raise ValueError(f"duplicate cell id {cell.id}")
            self._cells[cell.id] = cell
        self.dimension = max((c.dim for c in self._cells.values()), default=0)

    def __contains__(self, cell_id):
        return cell_id in self._cells

    def __getitem__(self, cell_id) -> Cell:
        return self._cells[cell_id]

    def __len__(self):
        return len(self._cells)

    @cached_property
    def _order(self) -> list[Cell]:
        # sorted is stable and the dict keeps insertion order, so ties in
        # (dimension, label) stay in insertion order
        return sorted(self._cells.values(), key=lambda c: (c.dim, c.label))

    def cells(self) -> list[Cell]:
        """A fresh list of the cells in the canonical order (dimension, label,
        insertion order), which is sorted on the first read."""
        return list(self._order)

    def cells_of_dim(self, d: int) -> list[Cell]:
        return [c for c in self._order if c.dim == d]

    @cached_property
    def morse_boundaries(self) -> list[IntMatrix]:
        """``_morse_boundaries(self)``, coreduced on first use and shared by
        every later reader, which must not modify the matrices."""
        return _morse_boundaries(self)


def validate(K: DeltaComplex) -> list[Violation]:
    """Check both structural invariants; empty list means success.

    Reported violations: dangling face ids, wrong face count (a d-cell must
    carry exactly d+1 face entries for d >= 1, with faces of dimension d-1),
    and nonvanishing composed boundary.  Cells are checked in canonical
    order, each cell's face entries in their slot order.
    """
    cells = K._cells
    violations: list[Violation] = []
    for cid, dim, _, faces in K._order:
        if dim == 0:
            if faces:
                violations.append(Violation("wrong face count", cid, "0-cell with faces"))
            continue
        if len(faces) != dim + 1:
            violations.append(
                Violation("wrong face count", cid, f"{dim}-cell with {len(faces)} face entries")
            )
        for fid, _ in faces:
            face = cells.get(fid)
            if face is None:
                violations.append(Violation("dangling face id", cid, fid))
            elif face.dim != dim - 1:
                violations.append(
                    Violation("wrong face dimension", cid, f"face {fid} has dim {face.dim}")
                )
    if violations:
        return violations
    # composed boundary must vanish exactly
    for cid, dim, _, faces in K._order:
        if dim < 2:
            continue
        acc: dict[str, int] = {}
        for fid, s1 in faces:
            for gid, s2 in cells[fid].faces:
                acc[gid] = acc.get(gid, 0) + s1 * s2
        if any(acc.values()):
            bad = sorted(g for g, v in acc.items() if v)
            violations.append(Violation("composed boundary nonzero", cid, str(bad)))
    return violations


def f_vector(K: DeltaComplex) -> tuple[int, ...]:
    counts = [0] * (K.dimension + 1)
    for cell in K._cells.values():
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


def _morse_boundaries(K: DeltaComplex) -> list[IntMatrix]:
    """Boundary matrices of the Morse complex of K by algebraic coreduction.

    Entry d maps the critical d-cells to the critical (d-1)-cells, both in
    canonical order, so its column count is the number of critical d-cells
    (entry 0 has no rows).  Repeated face entries are summed and zero sums
    dropped.  A cell a whose only alive face is b, with coefficient +-1, is
    removed together with b; when no cell can be, the first alive cell in
    canonical order, which has no alive faces, is marked critical.  Every
    alive cell keeps the part of its reduced boundary on critical cells; the
    part on alive cells is always its original boundary restricted to them.
    See Mrozek-Batko, "Coreduction homology algorithm" (2009).
    """
    cells = K._order
    index = {c.id: i for i, c in enumerate(cells)}
    faces: list[dict[int, int]] = []
    cofaces: list[list[int]] = [[] for _ in cells]
    for i, cell in enumerate(cells):
        acc: dict[int, int] = {}
        for fid, sign in cell.faces:
            f = index[fid]
            acc[f] = acc.get(f, 0) + sign
        if not all(acc.values()):
            acc = {f: w for f, w in acc.items() if w}
        faces.append(acc)
        for f in acc:
            cofaces[f].append(i)
    alive = [True] * len(cells)
    alive_faces = [len(fs) for fs in faces]
    crit: list[dict[int, int]] = [{} for _ in cells]
    # critical cells by dimension, marked in canonical order
    by_dim: list[list[int]] = [[] for _ in range(K.dimension + 1)]
    # first in, first out: taking the newest candidate first leaves critical
    # cells (1,0,2,1,1) on the quartic Hilb^2 complex instead of (1,0,1,0,1)
    queue = deque(i for i, k in enumerate(alive_faces) if k == 1)

    def remove(x):
        alive[x] = False
        for c in cofaces[x]:
            if alive[c]:
                alive_faces[c] -= 1
                if alive_faces[c] == 1:
                    queue.append(c)

    for first in range(len(cells)):
        while queue:
            a = queue.popleft()
            if not alive[a] or alive_faces[a] != 1:
                continue
            b = next(f for f in faces[a] if alive[f])
            w = faces[a][b]
            if w not in (1, -1):
                continue
            # eliminating the pair replaces dc by dc - <dc, b> w da for
            # every other alive coface c of b; da is w b + crit[a], so the
            # b terms cancel and only c's critical part changes, by nothing
            # when crit[a] is empty
            if part_a := crit[a]:
                for c in cofaces[b]:
                    if c != a and alive[c]:
                        factor = -faces[c][b] * w
                        part = crit[c]
                        for y, v in part_a.items():
                            z = part.get(y, 0) + factor * v
                            if z:
                                part[y] = z
                            else:
                                del part[y]
            remove(a)
            remove(b)
        if not alive[first]:
            continue
        # the queue is empty, and every cell before this one, its faces
        # included, is gone
        by_dim[cells[first].dim].append(first)
        for c in cofaces[first]:
            if alive[c]:
                crit[c][first] = faces[c][first]
        remove(first)
    boundaries = [IntMatrix(0, len(by_dim[0]))]
    for d in range(1, K.dimension + 1):
        row = {x: r for r, x in enumerate(by_dim[d - 1])}
        M = IntMatrix(len(row), len(by_dim[d]))
        for j, x in enumerate(by_dim[d]):
            for y, v in crit[x].items():
                M[row[y], j] = v
        boundaries.append(M)
    return boundaries


def betti_numbers(K: DeltaComplex) -> tuple[int, ...]:
    """Rational Betti numbers b_0..b_dim from the ranks of the Morse boundary."""
    morse = K.morse_boundaries
    ranks = [0] * (K.dimension + 2)
    for d in range(1, K.dimension + 1):
        ranks[d] = rank_over_rationals(morse[d])
    return tuple(
        morse[d].cols - ranks[d] - ranks[d + 1] for d in range(K.dimension + 1)
    )


def h1_torsion(K: DeltaComplex) -> list[int]:
    """Invariant factors > 1 of the degree-2 Morse boundary (torsion of H1)."""
    if K.dimension < 2:
        return []
    return [d for d in smith_normal_form(K.morse_boundaries[2]) if d > 1]


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
    return dumps(payload)


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


def simplex_complex(triangles) -> DeltaComplex:
    """Build the delta-complex of a set of triangles given as vertex triples.

    Vertices are identified by name; edges are the sorted pairs.  Orientations
    use the sorted-vertex convention, so the composed boundary vanishes by
    construction.  A repeated triangle is refused.
    """
    cells: dict[str, Cell] = {}

    def face(cid: str, dim: int, label: str, faces=()) -> str:
        if cid not in cells:
            cells[cid] = Cell(cid, dim, label, faces)
        return cid

    def edge(a: str, b: str) -> str:  # a < b
        ends = (face(f"v:{b}", 0, b), 1), (face(f"v:{a}", 0, a), -1)
        return face(f"e:{a}|{b}", 1, f"{a}-{b}", ends)

    for tri in triangles:
        a, b, c = sorted(tri)
        tid = f"t:{a}|{b}|{c}"
        if tid in cells:
            raise ValueError(f"duplicate cell id {tid}")
        faces = (edge(b, c), 1), (edge(a, c), -1), (edge(a, b), 1)
        cells[tid] = Cell(tid, 2, f"{a}-{b}-{c}", faces)
    return DeltaComplex(cells.values())
