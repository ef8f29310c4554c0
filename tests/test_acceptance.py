"""Acceptance suite: one test per criterion, each printing a PASS line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.  Every check is
exact; the stated runtime budgets are asserted with a monotonic clock.
"""
import json
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from degex.cli import run
from degex.complexes import betti_numbers, f_vector, h1_torsion, validate
from degex.expansion import (
    BlowupAssignment,
    check_gluing,
    check_torus_compatibility,
    get_assignment,
    subdivide,
)
from degex.hilb import build_pi, enumerate_cases
from degex.models import cube_model, find_3_labeling, quartic_model
from degex.projectivity import (
    AffinePiece,
    FaceCertificate,
    builtin_certificates,
    check_edge_agreement,
    check_strict_convexity,
)

from oracles import bad_quartic_assignment, labeling_is_valid

QUARTIC_FV = (10, 45, 110, 120, 48)
QUARTIC_BREAKDOWNS = [(10,), (24, 6, 12, 3), (10, 16, 48, 30, 6), (48, 72), (12, 36)]


def report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def timed(limit):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"exceeded {limit}s budget ({elapsed:.1f}s)"
        return elapsed

    return check


def test_criterion_01_quartic_f_vector_both_enumerators():
    done = timed(60)
    m = quartic_model()
    case_totals = []
    for k in range(5):
        bd = enumerate_cases(m, k)
        assert tuple(n for _, n in bd.cases) == QUARTIC_BREAKDOWNS[k]
        case_totals.append(bd.total())
    assert tuple(case_totals) == QUARTIC_FV
    K, _ = build_pi(m, m=2)
    assert f_vector(K) == QUARTIC_FV
    elapsed = done()
    report(1, f"(10,45,110,120,48) by cases and closure, breakdowns exact, {elapsed:.1f}s")


def test_criterion_02_quartic_topology():
    done = timed(120)
    K, _ = build_pi(quartic_model(), m=2)
    assert len(K) == 333
    assert validate(K) == []  # includes the composed-boundary check on every cell
    assert sum((-1) ** d * c for d, c in enumerate(f_vector(K))) == 3
    assert betti_numbers(K) == (1, 0, 1, 0, 1)
    assert h1_torsion(K) == []
    elapsed = done()
    report(2, f"chi=3, Betti (1,0,1,0,1), H1 torsion-free, dd=0 on 333 cells, {elapsed:.1f}s")


def test_criterion_03_cube_report_flagged(capsys):
    code = run(["hilb", "count", "cube"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3, "cube report must exit flagged, never silently pass"
    assert out["status"] == "flagged"
    res = out["results"]
    ref = res["reference_comparison"]["reference"]
    assert ref["f_vector"] == [21, 120, 420, 480, 192]
    assert ref["euler"] == 33
    assert any("33" in flag for flag in res["reference_comparison"]["flags"])
    # the count from the stable types and the case census, side by side
    assert res["f_vector"] == [21, 150, 420, 480, 192]
    assert res["case_f_vector"] == [21, 150, 420, 480, 192]
    report(3, "claimed totals surfaced with chi=33 flag next to the stable-type count, exit 3")


def test_criterion_04_m1_sanity(capsys):
    code = run(["hilb", "count", "quartic", "--m", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["results"]["f_vector"] == [4, 6, 4]
    code = run(["hilb", "count", "cube", "--m", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["results"]["f_vector"] == [6, 12, 8]
    report(4, "m=1 gives (4,6,4) and (6,12,8) exactly")


def test_criterion_05_gluing():
    qm, cm = quartic_model(), cube_model()

    done = timed(5)
    E = subdivide(qm, get_assignment(qm, "default"), 1)
    assert check_gluing(E).glues
    done()

    done = timed(5)
    E_bad = subdivide(qm, bad_quartic_assignment(), 1)
    rep = check_gluing(E_bad)
    assert not rep.glues
    failing = {tuple(f["edge"]) for f in rep.failures}
    assert ("Y2", "Y3") in failing
    # the failure is localized to the two reflected edge pairs of the
    # flattened picture; no other edge fails
    assert failing <= {("Y2", "Y3"), ("Y1", "Y4")}
    done()

    done = timed(5)
    E_cube = subdivide(cm, get_assignment(cm, "labeling"), 1)
    assert check_gluing(E_cube).glues
    done()
    report(5, "default glues, published bad choice fails on Y2-Y3, cube labeling glues")


def test_criterion_06_three_labeling():
    cm = cube_model()
    lab = find_3_labeling(cm)
    assert lab is not None
    for tri in cm.triangles:
        assert sorted(lab[v] for v in tri) == [1, 2, 3]
    qm = quartic_model()
    assert find_3_labeling(qm) is None
    # exhaustive search over all 3^4 assignments
    assert all(
        not labeling_is_valid(qm, dict(zip(sorted(qm.vertices), labels)))
        for labels in product((1, 2, 3), repeat=4)
    )
    report(6, "cube labeling verified on all 8 triangles; quartic none over 3^4")


def test_criterion_07_torus_compatibility():
    qm, cm = quartic_model(), cube_model()
    qa = get_assignment(qm, "default")
    ca = get_assignment(cm, "labeling")
    for n in (1, 2):
        assert check_torus_compatibility(subdivide(qm, qa, n)).compatible
        assert check_torus_compatibility(subdivide(cm, ca, n)).compatible
    flipped = dict(qa.pairs)
    f, s = flipped[("Y1", "Y2", "Y3")]
    flipped[("Y1", "Y2", "Y3")] = (s, f)
    rep = check_torus_compatibility(subdivide(qm, BlowupAssignment(flipped), 1))
    assert not rep.compatible
    named = [c["cell"] for c in rep.conflicts]
    assert named and all(named)
    report(7, f"arrow propagation passes at n=1,2; flip conflicts at {named[0]}")


def test_criterion_08_projectivity_certificates():
    done = timed(5)
    taus = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]
    certs = builtin_certificates()
    for cert in certs:
        for tau in taus:
            assert check_strict_convexity(cert, tau).ok
    reports = check_edge_agreement(certs, Fraction(1, 2))
    assert len(reports) == 6
    by_edge = {r.edge: r.equal for r in reports}
    assert by_edge[("Y2", "Y3")] is True
    # duplicate-piece negative
    base = certs[0]
    dup = FaceCertificate(
        base.name,
        base.corners,
        base.roles,
        (AffinePiece.of(a_c=1), AffinePiece.of(a_c=1), AffinePiece.of(a_q=1)),
    )
    res = check_strict_convexity(dup, Fraction(1, 2))
    assert not res.ok and any(f["kind"] == "distinct pieces violated" for f in res.failures)
    # shifted-piece negative
    p = base.pieces[2]
    shifted = FaceCertificate(
        base.name,
        base.corners,
        base.roles,
        base.pieces[:2] + (AffinePiece(p.a_c, p.a_q, p.a_tau, p.b - 10),),
    )
    res = check_strict_convexity(shifted, Fraction(1, 2))
    assert not res.ok and any(
        f["kind"] == "region decomposition mismatch" for f in res.failures
    )
    elapsed = done()
    report(8, f"4 faces x 5 taus pass, 6 edges reported (Y2-Y3 agrees), negatives fail, {elapsed:.1f}s")


def test_criterion_09_chart_identities():
    from degex.charts import verify_samples, verify_torus_pairs

    done = timed(30)
    for n in (1, 2, 3):
        rep = verify_samples(n, samples=1000, seed=2026)
        assert rep["pass"], rep["failures"][:3]
        torus = verify_torus_pairs(n, pairs=100, seed=2026)
        assert torus["pass"], torus["failures"][:3]
    elapsed = done()
    report(9, f"3000 sampled points and 300 action pairs verified exactly, {elapsed:.1f}s")


def test_criterion_10_property_suites():
    import subprocess
    import sys

    done = timed(300)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).with_name("test_properties.py")), "-q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    elapsed = done()
    report(10, f"property harness green standalone with fixed seeds, {elapsed:.1f}s")
