"""Strict-convexity certificates for the min-of-affine functions on the
four tetrahedron faces, and the agreement check on shared edges.

Each face is realized as the triangle {(c, q) : 0 <= q <= c <= 1} in its own
frame; the slice parameter tau in (0, 1) places the level-1 subdivision node
at distance tau from the corner blown up along the second family, so the
expected regions are the two cut-off corners and the remaining quadrilateral.
A certificate passes when each affine piece is the unique minimizer at the
barycenter of exactly one expected region and attains the minimum at every
vertex of that region.  That is already a strict kink across each interior
wall: the wall's endpoints are vertices of both adjacent regions, so both
pieces equal the minimum there, and the minimum of affine functions is
concave, so both equal it along the whole wall; the unique minimizer at each
barycenter is the strict crossing.  Certifying the min structure certifies
convexity of the negated function; no separate step is needed for the sign
convention.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import parse_fraction

Coord = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class AffinePiece:
    a_c: Fraction
    a_q: Fraction
    a_tau: Fraction
    b: Fraction

    def value(self, c: Fraction, q: Fraction, tau: Fraction) -> Fraction:
        return self.a_c * c + self.a_q * q + self.a_tau * tau + self.b

    def plane(self, tau: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (a_c, a_q, constant) at a fixed slice parameter."""
        return (self.a_c, self.a_q, self.a_tau * tau + self.b)

    @classmethod
    def of(cls, a_c=0, a_q=0, a_tau=0, b=0) -> "AffinePiece":
        return cls(Fraction(a_c), Fraction(a_q), Fraction(a_tau), Fraction(b))


@dataclass(frozen=True)
class ExpectedRegion:
    name: str
    polygon: tuple[Coord, ...]

    def barycenter(self) -> Coord:
        m = len(self.polygon)
        return (
            sum(p[0] for p in self.polygon) / m,
            sum(p[1] for p in self.polygon) / m,
        )


@dataclass(frozen=True)
class FaceCertificate:
    name: str
    corners: dict  # vertex name -> (c, q)
    roles: tuple[str, str, str]  # (first, second, third) corners
    pieces: tuple[AffinePiece, ...]

    def marked_points(self, tau: Fraction) -> dict[str, Coord]:
        F, S, T = (self.corners[r] for r in self.roles)

        def along(a: Coord, b: Coord, t: Fraction) -> Coord:
            return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

        return {
            "node": along(S, F, tau),
            "cut_F": along(T, F, tau),
            "cut_S": along(S, T, tau),
        }

    def expected_regions(self, tau: Fraction) -> tuple[ExpectedRegion, ...]:
        F, S, T = (self.corners[r] for r in self.roles)
        pts = self.marked_points(tau)
        v, w, u = pts["node"], pts["cut_F"], pts["cut_S"]
        return (
            ExpectedRegion("quad-third", (T, u, v, w)),
            ExpectedRegion("corner-second", (u, S, v)),
            ExpectedRegion("corner-first", (v, F, w)),
        )


_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _field(obj, key: str, what: str, kind: type | None = None):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} needs a {key!r} field")
    if kind is not None and not isinstance(obj[key], kind):
        raise ValueError(f"{what} field {key!r} must be {_KINDS[kind]}")
    return obj[key]


def certificate_from_json_obj(obj: dict) -> FaceCertificate:
    name = _field(obj, "name", "face certificate", str)
    corners = _field(obj, "corners", "face certificate", dict)
    if not all(isinstance(c, list) and len(c) == 2 for c in corners.values()):
        raise ValueError("face certificate field 'corners' must map each vertex to a [c, q] pair")
    where = "face certificate field 'corners'"
    corners = {k: tuple(parse_fraction(x, where) for x in pair) for k, pair in corners.items()}
    if not all(0 <= q <= c <= 1 for c, q in corners.values()):
        raise ValueError("face certificate field 'corners' must lie in the face 0 <= q <= c <= 1")
    pieces = tuple(
        AffinePiece(
            *(
                parse_fraction(_field(p, k, "affine piece"), f"affine piece field {k!r}")
                for k in ("a_c", "a_q", "a_tau", "b")
            )
        )
        for p in _field(obj, "pieces", "face certificate", list)
    )
    roles = _field(obj, "roles", "face certificate", list)
    if (
        len(roles) != 3
        or not all(isinstance(r, str) and r in corners for r in roles)
        or len(set(roles)) != 3
    ):
        raise ValueError("face certificate field 'roles' must name three distinct corners")
    return FaceCertificate(name, corners, tuple(roles), pieces)


def certificates_from_json(text: str) -> list[FaceCertificate]:
    faces = _field(json.loads(text), "faces", "certificate file", list)
    if not faces:
        raise ValueError("certificate file field 'faces' lists no face")
    return [certificate_from_json_obj(o) for o in faces]


def builtin_certificates() -> list[FaceCertificate]:
    """The four face functions, three affine pieces each.

    Corner frames follow the stated coordinate directions: the c direction
    runs along the first listed edge and q along the second, so the frame
    corner at (0,0) is the c-origin and (1,1) the q-target.
    """
    zero, one = Fraction(0), Fraction(1)

    def frame(origin, mid, top):
        return {origin: (zero, zero), mid: (one, zero), top: (one, one)}

    return [
        # c from Y3 to Y2, q from Y2 to Y1
        FaceCertificate(
            "Y1,Y2,Y3",
            frame("Y3", "Y2", "Y1"),
            ("Y1", "Y2", "Y3"),
            (
                AffinePiece.of(a_c=2, a_q=-1),
                AffinePiece.of(a_c=-1, a_q=2, a_tau=-3, b=3),
                AffinePiece.of(a_c=2, a_q=-3, a_tau=2),
            ),
        ),
        # c from Y2 to Y3, q from Y3 to Y4
        FaceCertificate(
            "Y4,Y3,Y2",
            frame("Y2", "Y3", "Y4"),
            ("Y4", "Y2", "Y3"),
            (
                AffinePiece.of(a_c=-2, a_q=1, b=2),
                AffinePiece.of(a_c=1, a_q=1, a_tau=-3, b=2),
                AffinePiece.of(a_c=-2, a_tau=1, b=2),
            ),
        ),
        # c from Y4 to Y3, q from Y3 to Y1
        FaceCertificate(
            "Y1,Y3,Y4",
            frame("Y4", "Y3", "Y1"),
            ("Y1", "Y3", "Y4"),
            (
                AffinePiece.of(a_tau=1),
                AffinePiece.of(a_c=-1, a_q=1, b=1),
                AffinePiece.of(a_q=-1, a_tau=2),
            ),
        ),
        # c from Y4 to Y2, q from Y2 to Y1
        FaceCertificate(
            "Y1,Y4,Y2",
            frame("Y4", "Y2", "Y1"),
            ("Y1", "Y2", "Y4"),
            (
                AffinePiece.of(a_c=2, a_q=-2, a_tau=1),
                AffinePiece.of(a_c=-2, a_q=2, a_tau=-3, b=4),
                AffinePiece.of(a_c=2, a_q=-3, a_tau=2),
            ),
        ),
    ]


@dataclass
class ConvexityResult:
    face: str
    tau: Fraction
    ok: bool
    matching: dict  # region name -> piece index
    failures: list

    def to_json_obj(self):
        return {
            "face": self.face,
            "tau": str(self.tau),
            "ok": self.ok,
            "matching": self.matching,
            "failures": self.failures,
        }


def check_strict_convexity(cert: FaceCertificate, tau: Fraction) -> ConvexityResult:
    """Verify the min structure of the certificate on its expected regions.

    Checks, in exact arithmetic: (i) every affine piece is the unique
    minimizer at the barycenter of exactly one expected region and attains
    the minimum at that region's vertices, (ii) distinct regions carry
    distinct pieces.  Together these make the minimum kink strictly across
    each interior wall, so the walls need no check of their own: each
    wall's endpoints are vertices of both regions, where both pieces equal
    the minimum; the minimum is concave, so both pieces equal it along the
    wall; and each piece wins strictly at its own region's barycenter.
    """
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    regions = cert.expected_regions(tau)
    if len(cert.pieces) != len(regions):
        raise ValueError(
            f"malformed certificate: {len(cert.pieces)} pieces for {len(regions)} regions"
        )
    failures = []

    planes = [p.plane(tau) for p in cert.pieces]
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            if planes[i] == planes[j]:
                failures.append(
                    {"kind": "distinct pieces violated", "pieces": [i, j]}
                )

    def values(pt: Coord):
        c, q = pt
        assert 0 <= q <= c <= 1, "sample left the face"
        return [p.value(c, q, tau) for p in cert.pieces]

    matching: dict = {}
    used: dict = {}
    for region in regions:
        vals = values(region.barycenter())
        lo = min(vals)
        argmins = [i for i, v in enumerate(vals) if v == lo]
        if len(argmins) != 1:
            failures.append(
                {
                    "kind": "region decomposition mismatch",
                    "region": region.name,
                    "detail": f"pieces {argmins} tie at the barycenter",
                }
            )
            continue
        idx = argmins[0]
        if idx in used:
            failures.append(
                {
                    "kind": "region decomposition mismatch",
                    "region": region.name,
                    "detail": f"piece {idx} already minimizes {used[idx]}",
                }
            )
            continue
        used[idx] = region.name
        matching[region.name] = idx
        for corner in region.polygon:
            vals_c = values(corner)
            if vals_c[idx] != min(vals_c):
                failures.append(
                    {
                        "kind": "region decomposition mismatch",
                        "region": region.name,
                        "detail": f"assigned piece not minimal at vertex {tuple(map(str, corner))}",
                    }
                )
                break

    return ConvexityResult(cert.name, tau, not failures, matching, failures)


def _restrict(cert: FaceCertificate, edge: tuple[str, str], tau: Fraction):
    """Affine-in-s forms of the pieces along the edge, s from the first
    (lexicographically smaller) endpoint."""
    lo, hi = sorted(edge)
    a, b = cert.corners[lo], cert.corners[hi]
    out = []
    for p in cert.pieces:
        at0 = p.value(a[0], a[1], tau)
        at1 = p.value(b[0], b[1], tau)
        out.append((at1 - at0, at0))  # slope, intercept
    return out


def _min_of_affine(forms, s: Fraction) -> Fraction:
    return min(slope * s + intercept for slope, intercept in forms)


@dataclass
class EdgeAgreement:
    edge: tuple[str, str]
    faces: tuple[str, str]
    equal: bool
    witness: str | None

    def to_json_obj(self):
        return {
            "edge": list(self.edge),
            "faces": list(self.faces),
            "equal": self.equal,
            "witness": self.witness,
        }


def check_edge_agreement(certs, tau: Fraction) -> list[EdgeAgreement]:
    """Restrict each pair of faces to their shared edge and compare the
    restrictions as piecewise-linear functions, exactly.

    Sample points are the endpoints and all pairwise crossing parameters of
    the six affine forms.  Between consecutive ones no two forms cross, so
    both restrictions are affine there: agreeing at the sample points, they
    agree identically on the edge, and the first disagreement (the witness)
    is a sample point.
    """
    from itertools import combinations

    tau = Fraction(tau)
    reports = []
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            shared = sorted(set(certs[i].corners) & set(certs[j].corners))
            for edge in combinations(shared, 2):
                reports.append(_compare_edge(certs[i], certs[j], edge, tau))
    return sorted(reports, key=lambda r: r.edge)


def _compare_edge(cert1, cert2, edge, tau: Fraction) -> EdgeAgreement:
    f1 = _restrict(cert1, edge, tau)
    f2 = _restrict(cert2, edge, tau)
    points = {Fraction(0), Fraction(1)}
    forms = f1 + f2
    for a in range(len(forms)):
        for b in range(a + 1, len(forms)):
            ds = forms[a][0] - forms[b][0]
            if ds != 0:
                s = (forms[b][1] - forms[a][1]) / ds
                if 0 < s < 1:
                    points.add(s)
    witness = None
    for s in sorted(points):
        if _min_of_affine(f1, s) != _min_of_affine(f2, s):
            witness = str(s)
            break
    return EdgeAgreement(tuple(edge), (cert1.name, cert2.name), witness is None, witness)
