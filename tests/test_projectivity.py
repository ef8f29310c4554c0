import random
from fractions import Fraction

import pytest

from degex.projectivity import (
    AffinePiece,
    FaceCertificate,
    builtin_certificates,
    certificates_from_json,
    check_edge_agreement,
    check_strict_convexity,
)

from oracles import certificates_to_json, wall_failures

TAUS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]


def test_builtin_shapes():
    certs = builtin_certificates()
    assert len(certs) == 4
    assert all(len(c.pieces) == 3 for c in certs)
    by_name = {c.name: c for c in certs}
    # the constant piece on the Y1,Y3,Y4 face
    p = by_name["Y1,Y3,Y4"].pieces[0]
    assert (p.a_c, p.a_q, p.a_tau, p.b) == (0, 0, 1, 0)
    # coefficient of c in the first piece on Y1,Y2,Y3
    assert by_name["Y1,Y2,Y3"].pieces[0].a_c == 2


def test_all_faces_pass_at_acceptance_taus():
    for cert in builtin_certificates():
        for tau in TAUS:
            result = check_strict_convexity(cert, tau)
            assert result.ok, (cert.name, str(tau), result.failures)


def test_matching_combinatorially_constant_over_dense_taus():
    rng = random.Random(5)
    taus = TAUS + [Fraction(rng.randint(1, 99), 100) for _ in range(20)]
    for cert in builtin_certificates():
        matchings = {tuple(sorted(check_strict_convexity(cert, t).matching.items())) for t in taus}
        assert len(matchings) == 1


def test_duplicate_pieces_rejected():
    cert = builtin_certificates()[0]
    dup = FaceCertificate(
        cert.name,
        cert.corners,
        cert.roles,
        (AffinePiece.of(a_c=1), AffinePiece.of(a_c=1), AffinePiece.of(a_q=1)),
    )
    result = check_strict_convexity(dup, Fraction(1, 2))
    assert not result.ok
    assert any(f["kind"] == "distinct pieces violated" for f in result.failures)


def test_shifted_piece_breaks_region_decomposition():
    cert = builtin_certificates()[0]
    pieces = list(cert.pieces)
    p = pieces[2]
    pieces[2] = AffinePiece(p.a_c, p.a_q, p.a_tau, p.b - 10)
    shifted = FaceCertificate(cert.name, cert.corners, cert.roles, tuple(pieces))
    result = check_strict_convexity(shifted, Fraction(1, 2))
    assert not result.ok
    assert any(f["kind"] == "region decomposition mismatch" for f in result.failures)


def test_success_invariant_under_global_affine_shift():
    g = AffinePiece.of(a_c=3, a_q=-2, a_tau=7, b=5)
    for cert in builtin_certificates():
        shifted = FaceCertificate(
            cert.name,
            cert.corners,
            cert.roles,
            tuple(
                AffinePiece(p.a_c + g.a_c, p.a_q + g.a_q, p.a_tau + g.a_tau, p.b + g.b)
                for p in cert.pieces
            ),
        )
        for tau in (Fraction(1, 4), Fraction(2, 3)):
            assert check_strict_convexity(shifted, tau).ok


def test_kink_direction_on_walls():
    # on each interior wall the min of the two adjacent pieces is strictly
    # below each piece on its opposite side
    for cert in builtin_certificates():
        tau = Fraction(2, 5)
        result = check_strict_convexity(cert, tau)
        regions = {r.name: r for r in cert.expected_regions(tau)}
        for r1, r2 in (("quad-third", "corner-first"), ("quad-third", "corner-second")):
            i, j = result.matching[r1], result.matching[r2]
            for rname, own, other in ((r1, i, j), (r2, j, i)):
                c, q = regions[rname].barycenter()
                assert cert.pieces[own].value(c, q, tau) < cert.pieces[other].value(c, q, tau)


def test_passing_certificates_satisfy_the_wall_conditions():
    # a passing piece is minimal at every vertex of its region and each wall
    # joins two vertices of both regions, so by concavity of the minimum the
    # two pieces agree with it along the wall: the wall conditions, kept as
    # an oracle, hold on every perturbed certificate that passes
    rng = random.Random(15)
    certs = builtin_certificates()
    passed = 0
    for _ in range(2400):
        cert = rng.choice(certs)
        tau = rng.choice(TAUS)
        g = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        perturbed = FaceCertificate(
            cert.name,
            cert.corners,
            cert.roles,
            tuple(
                AffinePiece(
                    p.a_c + g[0],
                    p.a_q + g[1],
                    p.a_tau + g[2],
                    p.b + g[3] + Fraction(rng.randint(-1, 1), 8),
                )
                for p in cert.pieces
            ),
        )
        result = check_strict_convexity(perturbed, tau)
        if result.ok:
            passed += 1
            assert wall_failures(perturbed, tau, result.matching) == [], perturbed
    assert passed >= 200


def test_edge_restriction_formula_Y2_Y3():
    # both restrictions reduce to min{2s, 3 - s - 3 tau} in the arclength s
    # from Y3, checked exactly on a dense rational sample
    certs = {c.name: c for c in builtin_certificates()}
    tau = Fraction(1, 2)
    from degex.projectivity import _restrict

    for name in ("Y1,Y2,Y3", "Y4,Y3,Y2"):
        forms = _restrict(certs[name], ("Y2", "Y3"), tau)
        # s here runs from Y2 (lexicographically smaller) to Y3
        for num in range(0, 33):
            s = Fraction(num, 32)
            arc_from_y3 = 1 - s
            expected = min(2 * arc_from_y3, 3 - arc_from_y3 - 3 * tau)
            got = min(slope * s + intercept for slope, intercept in forms)
            assert got == expected


def test_edge_agreement_all_six_edges():
    certs = builtin_certificates()
    for tau in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        reports = check_edge_agreement(certs, tau)
        assert len(reports) == 6
        by_edge = {r.edge: r for r in reports}
        assert by_edge[("Y2", "Y3")].equal
        # the other five agree as well: the four pieces patch globally
        assert all(r.equal for r in reports)


def test_face_against_itself_agrees():
    cert = builtin_certificates()[0]
    # duplicate the face under a different name so the comparison runs
    clone = FaceCertificate("clone", cert.corners, cert.roles, cert.pieces)
    reports = check_edge_agreement([cert, clone], Fraction(1, 2))
    assert reports and all(r.equal for r in reports)


def test_certificate_json_roundtrip():
    certs = builtin_certificates()
    text = certificates_to_json(certs)
    back = certificates_from_json(text)
    assert back == certs


def test_tau_range_enforced():
    with pytest.raises(ValueError):
        check_strict_convexity(builtin_certificates()[0], Fraction(0))
