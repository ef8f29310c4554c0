import json
import re
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from degex import charts, complexes, dumps, hilb
from degex.charts import ChartPoint
from degex.cli import run
from degex.expansion import get_assignment
from degex.models import quartic_model
from degex.projectivity import builtin_certificates

from oracles import assignment_to_json_obj, bad_quartic_assignment, certificates_to_json

README = Path(__file__).resolve().parents[1] / "README.md"

# sha256 of the stdout of every README command and of the files they write;
# any change to a report or an export shows here
README_SHA256 = {
    "degex model quartic": "5720b415be7dfd8709f56ed65021528f7d428aa75f4d2bbb7d615a0b742acb4c",
    "degex label3 cube": "a44e6df44b0eb2ab3ba403ca4529412006ac7c671ba6636974a5be0ed020c880",
    "degex expand quartic --n 1 --assignment default":
        "9b33287da8851733993d794a2c35f4709b3253224f3a62b9be27e7452f14f18c",
    "degex expand quartic --n 2 --assignment @my_assignment.json --params 1/3,2/3":
        "8bfa6e5e89278c4a89baffd067e7b0a9d1b3c1c244edad2e8a037762aa952ce1",
    "degex expand cube --n 1 --assignment labeling":
        "6c39d56277208adbcba738488e16e977e7c20b194924e58e8df73806850b0608",
    "degex certify-projectivity --tau 1/2 --all-edges":
        "3e87d1d63f8203c0344d36575d78fa2a19375c37718990736883bcd8be6d558f",
    "degex charts verify --n 2 --samples 1000 --seed 7":
        "8d0e0c9df22c4cbe1ac67ef09a514fee607b58713a3dd6ae40e980a295bb4b27",
    "degex hilb count quartic": "62db257461e8975d11b55774a9117c8266b1fc01b980906ada220407b6650ba2",
    "degex hilb count cube": "12490fb1135686409671708acd27b82439a58b5d5294c037b2cde256b99a0f68",
    "degex hilb count quartic --m 1":
        "6ff7a53c09006a13f0c584462a7536c54901d5680ca3591f22c8e0ad23e1ac50",
    "degex hilb homology quartic":
        "483982a7da525967a75fcafe65bd26390410a93e7e7a449a1c9e8b3a9c8b1e8a",
    "degex export pi-quartic --format json -o pi_quartic.json":
        "803ff269bcf4e9772a8e38e9c66f47d9aafc1069efccaa2d00ce7e0066ffd9b9",
    "degex export quartic --format dot -o tetra.dot":
        "1b43657de9ba65d9ea8f76fdd464ea33810064f72da304b11dcadf06163517f5",
    "pi_quartic.json": "aefc850f334fcc9d1af8ceed3900099d92ff2b2a1d553a0b1552d1ae087e5f5d",
    "tetra.dot": "19b2554e1108759817406939f9260a92d154c28080a170bb47d97d1031db28cb",
}


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_model_quartic(capsys):
    code, report = invoke(["model", "quartic"], capsys)
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["f_vector"] == [4, 6, 4]
    assert report["results"]["resolved_singularities"] == 24
    assert report["version"]


def test_label3_cube_passes_quartic_fails(capsys):
    code, report = invoke(["label3", "cube"], capsys)
    assert code == 0 and report["results"]["exists"]
    code, report = invoke(["label3", "quartic"], capsys)
    assert code == 1
    assert report["results"]["labeling"] is None


def test_expand_default_passes(capsys):
    code, report = invoke(["expand", "quartic", "--n", "1"], capsys)
    assert code == 0
    assert report["results"]["gluing"]["glues"]
    assert report["results"]["torus"]["compatible"]


def test_expand_bad_assignment_fails_on_Y2_Y3(tmp_path, capsys):
    payload = {
        "triangles": [
            {"opposite": "Y4", "first": "Y1", "second": "Y2"},
            {"opposite": "Y3", "first": "Y1", "second": "Y2"},
            {"opposite": "Y2", "first": "Y4", "second": "Y3"},
            {"opposite": "Y1", "first": "Y4", "second": "Y3"},
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, report = invoke(["expand", "quartic", "--n", "1", "--assignment", f"@{path}"], capsys)
    assert code == 1
    edges = [f["edge"] for f in report["results"]["gluing"]["failures"]]
    assert ["Y2", "Y3"] in edges


@pytest.mark.parametrize("n, params, one_sided", [("1", "1/7", 4), ("2", "1/5,1/3", 8)])
def test_expand_reports_nodes_one_side_places_as_torus_conflicts(
    n, params, one_sided, tmp_path, capsys
):
    # at these positions the sides of a failing edge share no node: each
    # node one side places is moved along its segment by the other's torus
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"triangles": assignment_to_json_obj(bad_quartic_assignment())}))
    argv = ["expand", "quartic", "--n", n, "--assignment", f"@{path}", "--params", params]
    code, report = invoke(argv, capsys)
    assert code == 1
    results = report["results"]
    assert len(results["gluing"]["failures"]) == 2
    nodes = {
        node["edge"][0] + "|" + node["edge"][1] + "@" + node["position"]
        for node in results["expanded"]["edge_nodes"]
        if len(node["levels"]) == 1
    }
    assert len(nodes) == one_sided
    torus = results["torus"]
    assert torus["compatible"] is False
    assert {c["cell"] for c in torus["conflicts"]} == {f"x:{node}" for node in nodes}
    for conflict in torus["conflicts"]:
        assert conflict["kind"] == "node placed by one side"
        assert sorted(len(side["arrows"]) for side in conflict["sides"]) == [0, 1]


def test_expand_cube_labeling(capsys):
    code, report = invoke(["expand", "cube", "--n", "1", "--assignment", "labeling"], capsys)
    assert code == 0


def test_expand_labeling_on_quartic_is_usage_error(capsys):
    code, _ = invoke(["expand", "quartic", "--n", "1", "--assignment", "labeling"], capsys)
    assert code == 2


def test_certify_projectivity(capsys):
    code, report = invoke(["certify-projectivity", "--all-edges"], capsys)
    assert code == 0
    faces = report["results"]["faces"]
    assert len(faces) == 4 * 5 and all(f["ok"] for f in faces)
    for tau, edge_reports in report["results"]["edges"].items():
        assert len(edge_reports) == 6
        assert all(r["equal"] for r in edge_reports)


def test_certify_projectivity_custom_tau(capsys):
    code, report = invoke(["certify-projectivity", "--tau", "1/3", "--tau", "2/3"], capsys)
    assert code == 0
    assert {f["tau"] for f in report["results"]["faces"]} == {"1/3", "2/3"}


def test_certify_projectivity_checks_each_tau_once(capsys):
    argv = ["certify-projectivity", "--tau", "1/2", "--tau", "2/4", "--all-edges"]
    code, report = invoke(argv, capsys)
    assert code == 0
    assert len(report["results"]["faces"]) == 4
    assert report["inputs"]["tau"] == ["1/2"]
    assert list(report["results"]["edges"]) == ["1/2"]


def test_charts_verify(capsys):
    code, report = invoke(
        ["charts", "verify", "--n", "1", "--samples", "50", "--seed", "1", "--pairs", "10"],
        capsys,
    )
    assert code == 0
    assert report["results"]["pass"]
    assert report["results"]["coincidence"] == {"1": True}


def test_charts_verify_fails_on_a_point_off_the_chart(monkeypatch, capsys):
    sample = charts.sample_chart_point

    def perturbed(*args, **kwargs):
        p = sample(*args, **kwargs)
        (num, den), rest = p.t[0], p.t[1:]
        return ChartPoint(p.x, p.y, p.z, ((num + den, den),) + rest, p.xs, p.ys)

    monkeypatch.setattr(charts, "sample_chart_point", perturbed)
    code, report = invoke(
        ["charts", "verify", "--n", "1", "--samples", "2", "--seed", "1", "--pairs", "2"],
        capsys,
    )
    assert code == 1
    assert report["status"] == "fail"
    results = report["results"]
    assert not results["pass"] and not results["samples"]["pass"]
    assert {"sample": 0, "failed_equations": ["x(1)", "y(n)-closure"]} in results["failures"]
    assert {"sample": 0, "failed_equations": ["product-identity"]} in results["failures"]


def test_hilb_count_quartic(capsys):
    code, report = invoke(["hilb", "count", "quartic"], capsys)
    assert code == 0
    assert report["status"] == "pass"
    res = report["results"]
    assert res["f_vector"] == [10, 45, 110, 120, 48]
    assert res["agreement"] is True
    assert res["euler"] == 3
    assert [b["total"] for b in res["breakdowns"]] == [10, 45, 110, 120, 48]


@pytest.mark.parametrize(
    "argv",
    [
        ["hilb", "count", "quartic"],
        ["hilb", "homology", "quartic"],
        ["export", "pi-quartic", "--format", "json", "-o", "pi.json"],
    ],
    ids=["hilb-count", "hilb-homology", "export"],
)
def test_hilb_count_reports_a_census_mismatch(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    census = hilb.enumerate_cases
    # the dimension-0 census lists the types of dimension 1
    monkeypatch.setattr(hilb, "enumerate_cases", lambda model, k: census(model, k or 1))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail"
    assert list(report["results"]) == ["internal_inconsistency"]
    assert not (tmp_path / "pi.json").exists()
    inconsistency = report["results"]["internal_inconsistency"]
    assert inconsistency["message"] == "case census and stable types disagree at dimension 0"
    keys = inconsistency["diff"]["stable_not_listed"]
    assert len(keys) == 10 and keys == sorted(keys)
    listed = inconsistency["diff"]["listed_not_stable"]
    assert len(listed) == 45 and listed == sorted(listed)


def test_hilb_count_cube_flagged(capsys):
    code, report = invoke(["hilb", "count", "cube"], capsys)
    assert code == 3
    assert report["status"] == "flagged"
    res = report["results"]
    assert res["f_vector"] == [21, 150, 420, 480, 192]
    assert res["reference_comparison"]["reference"]["f_vector"] == [21, 120, 420, 480, 192]
    assert res["reference_comparison"]["reference"]["euler"] == 33
    assert any("33" in f for f in res["reference_comparison"]["flags"])


def test_hilb_count_m1(capsys):
    code, report = invoke(["hilb", "count", "quartic", "--m", "1"], capsys)
    assert code == 0 and report["results"]["f_vector"] == [4, 6, 4]
    code, report = invoke(["hilb", "count", "cube", "--m", "1"], capsys)
    assert code == 0 and report["results"]["f_vector"] == [6, 12, 8]


def test_hilb_homology_quartic(capsys):
    code, report = invoke(["hilb", "homology", "quartic"], capsys)
    assert code == 0 and report["status"] == "pass"
    assert report["results"]["betti"] == [1, 0, 1, 0, 1]
    assert report["results"]["target_betti"] == [1, 0, 1, 0, 1]
    assert report["results"]["matches_target"] is True
    assert report["results"]["h1_torsion"] == []
    code, report = invoke(["hilb", "homology", "quartic", "--m", "1"], capsys)
    assert code == 0 and report["results"]["target_betti"] == [1, 0, 1]


def test_hilb_homology_flags_a_betti_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(complexes, "betti_numbers", lambda K: (1, 0, 0, 0, 1))
    code, report = invoke(["hilb", "homology", "quartic"], capsys)
    assert code == 3 and report["status"] == "flagged"
    assert report["results"]["matches_target"] is False


def test_export_json_and_dot(tmp_path, capsys):
    out = tmp_path / "tetra.json"
    code, report = invoke(["export", "quartic", "--format", "json", "-o", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["cells"]) == 14
    out2 = tmp_path / "tetra.dot"
    code, _ = invoke(["export", "quartic", "--format", "dot", "-o", str(out2)], capsys)
    assert code == 0
    assert out2.read_text().count("--") == 6


def test_export_pi_quartic(tmp_path, capsys):
    out = tmp_path / "pi.json"
    code, report = invoke(["export", "pi-quartic", "--format", "json", "-o", str(out)], capsys)
    assert code == 0
    assert len(json.loads(out.read_text())["cells"]) == 333


def test_usage_error_exit_2(capsys):
    assert run(["model", "unknown-model"]) == 2
    assert run(["nonsense"]) == 2


def test_reports_byte_identical(capsys):
    run(["hilb", "count", "quartic"])
    first = capsys.readouterr().out
    run(["hilb", "count", "quartic"])
    second = capsys.readouterr().out
    assert first == second


def test_expand_depth_zero(capsys):
    code, report = invoke(["expand", "quartic", "--n", "0"], capsys)
    assert code == 0
    assert report["results"]["expanded"]["f_vector"] == [4, 6, 4]
    assert report["results"]["expanded"]["exceptional_vertex_count"] == 0


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "degex", "model", "cube"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["f_vector"] == [6, 12, 8]


def builtin_file(**changes):
    """The built-in certificate file with fields of its first face replaced."""
    obj = json.loads(certificates_to_json(builtin_certificates()))
    obj["faces"][0].update(changes)
    return obj


def face_sharing_one_corner():
    """The built-in face Y1,Y2,Y3 with Y2 and Y3 renamed Y5 and Y6."""
    text = json.dumps(builtin_file()["faces"][0])
    return json.loads(text.replace('"Y2"', '"Y5"').replace('"Y3"', '"Y6"'))


def test_all_edges_fails_when_shared_edges_disagree(tmp_path, capsys):
    # shifting every piece of one face by a constant keeps that face strictly
    # convex, but it no longer agrees with its neighbours on its three edges
    face = builtin_file()["faces"][0]
    assert face["name"] == "Y1,Y2,Y3"
    pieces = [{**p, "b": str(Fraction(p["b"]) + 1)} for p in face["pieces"]]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(builtin_file(pieces=pieces)))
    argv = ["certify-projectivity", "--tau", "1/2", "--all-edges", "--certificates", str(path)]
    code, report = invoke(argv, capsys)
    assert code == 1 and report["status"] == "fail"
    assert all(r["ok"] for r in report["results"]["faces"])
    disagree = {tuple(r["edge"]) for r in report["results"]["edges"]["1/2"] if not r["equal"]}
    assert disagree == {("Y1", "Y2"), ("Y1", "Y3"), ("Y2", "Y3")}


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "quartic", "--n", "2", "--params", "1/0,1/2"],
        ["certify-projectivity", "--tau", "1/0"],
        ["charts", "verify", "--n", "2", "--samples", "-5"],
        ["hilb", "count", "quartic", "--by-case"],
        [
            "certify-projectivity",
            "--certificates",
            {"faces": [{"name": "f", "corners": {}, "roles": [], "pieces": [
                {"a_c": "0", "a_q": "0", "a_tau": "0", "b": "1/0"}]}]},
        ],
        ["certify-projectivity", "--certificates", {"faces": [{"name": "f", "corners": {}}]}],
        [
            "certify-projectivity",
            "--certificates",
            {"faces": [{"name": "f", "corners": {"Y1": [None, "0"]}, "roles": [], "pieces": []}]},
        ],
        ["certify-projectivity", "--certificates", [{"name": "f"}]],
        [
            "certify-projectivity",
            "--certificates",
            {"faces": [{"name": "f", "corners": [], "roles": [], "pieces": []}]},
        ],
        [
            "certify-projectivity",
            "--certificates",
            {"faces": [{"name": "f", "corners": {"Y1": ["0", "0"]}, "roles": ["Y1", "Y9", "Y1"],
                        "pieces": []}]},
        ],
        ["certify-projectivity", "--all-edges", "--certificates", builtin_file(name=["Y1", "Y2"])],
        ["certify-projectivity", "--certificates", builtin_file(corners={"Y1": 5})],
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(corners={"Y3": ["0", "0"], "Y2": ["1", "0"], "Y1": ["2", "0"]}),
        ],
        ["expand", "cube", "--n", "65", "--assignment", "labeling"],
        ["expand", "quartic", "--n", "64x"],
        ["charts", "verify", "--n", "2", "--samples", "x"],
        ["charts", "verify", "--n", "65", "--samples", "1"],
        # --m is capped at 2
        ["hilb", "count", "quartic", "--m", "3"],
        ["hilb", "homology", "cube", "--m", "0"],
        ["hilb", "homology", "quartic", "--m", "5"],
        # json.dumps writes an infinite float as Infinity, which json.loads reads
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(pieces=[{"a_c": float("inf"), "a_q": "0", "a_tau": "0", "b": "0"}]),
        ],
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(corners={"Y3": [float("inf"), "0"], "Y2": ["1", "0"], "Y1": ["1", "1"]}),
        ],
        ["certify-projectivity", "--certificates", builtin_file(roles=["Y1", "Y1", "Y3"])],
        # an empty face list would check nothing; 0.1 and true are no exact fractions
        ["certify-projectivity", "--certificates", {"faces": []}],
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(pieces=[{**p, "b": 0.1} for p in builtin_file()["faces"][0]["pieces"]]),
        ],
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(corners={"Y3": ["0", "0"], "Y2": [True, "0"], "Y1": ["1", "1"]}),
        ],
        # --all-edges must compare at least one edge
        ["certify-projectivity", "--all-edges", "--certificates",
         {"faces": builtin_file()["faces"][:1]}],
        ["certify-projectivity", "--all-edges", "--certificates",
         {"faces": builtin_file()["faces"][:1] + [face_sharing_one_corner()]}],
        ["expand", "quartic", "--n", "2", "--params", "1/3,,2/3"],
        ["expand", "quartic", "--n", "2", "--params", ",1/3,2/3,"],
        # at depth 0 every chart check holds by construction
        ["charts", "verify", "--n", "0"],
        ["certify-projectivity", "--tau", "abc"],
        ["expand", "quartic", "--n", "-1"],
        [
            "certify-projectivity",
            "--certificates",
            builtin_file(corners={"Y3": ["0", "0"], "Y2": ["1", "x"], "Y1": ["1", "1"]}),
        ],
    ],
)
def test_bad_argument_is_one_line_usage_error(argv, tmp_path, capsys):
    # a JSON object or array in argv stands for a file holding it
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    # argparse names a type function in its message; none may be private
    assert " _" not in captured.err
    # the message names where the bad input came from: an option, or a field
    # of the certificates file
    options = [arg for arg in argv if arg.startswith("--")]
    assert "field" in captured.err or any(option in captured.err for option in options)


@pytest.mark.parametrize(
    "payload",
    [
        [{"opposite": "Y4", "first": "Y1", "second": "Y2"}],
        {"triangles": [["Y1", "Y2", "Y3"]]},
        {"triangles": assignment_to_json_obj(get_assignment(quartic_model(), "default"))
         + [{"opposite": "Y4", "first": "Y1", "second": "Y2"}]},
        {"triangles": [{"opposite": "Y4", "first": "Y1"}]},
        {"triangles": [{"vertices": 5, "first": "Y1", "second": "Y2"}]},
    ],
)
def test_malformed_assignment_file_is_one_line_usage_error(payload, tmp_path, capsys):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(payload))
    assert run(["expand", "quartic", "--n", "1", "--assignment", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_readme_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assignment = {"triangles": assignment_to_json_obj(get_assignment(quartic_model(), "default"))}
    (tmp_path / "my_assignment.json").write_text(json.dumps(assignment))
    lines = [line for line in README.read_text().splitlines() if line.startswith("degex ")]
    assert lines
    digests = {}
    for line in lines:
        command, _, comment = line.partition("#")
        documented = re.search(r"exits (\d)", comment)
        expected = int(documented.group(1)) if documented else 0
        assert run(command.split()[1:]) == expected, line
        out = capsys.readouterr().out
        json.loads(out)
        digests[" ".join(command.split())] = sha256(out.encode()).hexdigest()
    for name in ("pi_quartic.json", "tetra.dot"):
        digests[name] = sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == README_SHA256


# sha256 of the largest report and export as `json.dumps(indent=2,
# sort_keys=True)` writes them; the README pins cover only shallow reports
# and the quartic export
BIG_OUTPUT_SHA256 = {
    "expand cube --n 24 --assignment labeling":
        "90667a225b7f7ab002f083ed7a9f9f2911471298cc6ae884875bd6583e6dc935",
    "export pi-cube --format json -o pi_cube.json":
        "be85733247e72153ca5492ecc90c74961a8a8ac78bbe7ea00c4fe89d7cbcb97a",
    "pi_cube.json": "2e83f80e3a7820908845abc2cff78a5ac8725ec4267b2736a8e909d5c71ece9e",
}


def test_the_largest_report_and_export_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for command in list(BIG_OUTPUT_SHA256)[:2]:
        assert run(command.split()) == 0
        digests[command] = sha256(capsys.readouterr().out.encode()).hexdigest()
    digests["pi_cube.json"] = sha256((tmp_path / "pi_cube.json").read_bytes()).hexdigest()
    assert digests == BIG_OUTPUT_SHA256


@pytest.mark.parametrize(
    "value, kind",
    [
        (0.5, "float"),
        ({"tau": Fraction(1, 3)}, "Fraction"),
        (["ok", {1, 2}], "set"),
        ([{"ok": True}, {1: "int key"}], "int"),
    ],
)
def test_the_report_writer_refuses_what_a_report_never_holds(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        dumps(value)
