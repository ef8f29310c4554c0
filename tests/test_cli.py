import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from degex.cli import run
from degex.expansion import default_quartic_assignment

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_charts_verify(capsys):
    code, report = invoke(
        ["charts", "verify", "--n", "1", "--samples", "50", "--seed", "1", "--pairs", "10"],
        capsys,
    )
    assert code == 0
    assert report["results"]["pass"]
    assert report["results"]["coincidence"] == {"1": True}


def test_hilb_count_quartic(capsys):
    code, report = invoke(["hilb", "count", "quartic"], capsys)
    assert code == 0
    assert report["status"] == "pass"
    res = report["results"]
    assert res["f_vector"] == [10, 45, 110, 120, 48]
    assert res["agreement"] is True
    assert res["euler"] == 3
    assert [b["total"] for b in res["breakdowns"]] == [10, 45, 110, 120, 48]


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
    assert code == 0
    assert report["results"]["betti"] == [1, 0, 1, 0, 1]
    assert report["results"]["h1_torsion"] == []


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


@pytest.mark.parametrize(
    "payload",
    [
        [{"opposite": "Y4", "first": "Y1", "second": "Y2"}],
        {"triangles": [["Y1", "Y2", "Y3"]]},
        {"triangles": default_quartic_assignment().to_json_obj()
         + [{"opposite": "Y4", "first": "Y1", "second": "Y2"}]},
        {"triangles": [{"opposite": "Y4", "first": "Y1"}]},
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
    assignment = {"triangles": default_quartic_assignment().to_json_obj()}
    (tmp_path / "my_assignment.json").write_text(json.dumps(assignment))
    lines = [line for line in README.read_text().splitlines() if line.startswith("degex ")]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        documented = re.search(r"exits (\d)", comment)
        expected = int(documented.group(1)) if documented else 0
        assert run(command.split()[1:]) == expected, line
        json.loads(capsys.readouterr().out)
