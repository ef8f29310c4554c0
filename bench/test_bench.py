"""Self-test of the benchmark: the oracle, span arithmetic, and tracer cleanup.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CP2_BETTI, CP2_F_CUBE  # noqa: E402


def job(workload: str, label: str) -> workloads.Job:
    return next(j for j in workloads.build(workload, 0) if j.label == label)


def cube_homology_report(betti) -> str:
    results = {"f_vector": CP2_F_CUBE, "betti": betti, "h1_torsion": []}
    return json.dumps({"command": "hilb homology", "results": results, "status": "pass"})


def test_oracle_accepts_the_known_values():
    assert workloads.check(job("hilb_homology", "hilb homology cube"), 0,
                           cube_homology_report(CP2_BETTI)) == []


def test_oracle_rejects_a_wrong_betti_number_and_a_wrong_exit_code():
    cube = job("hilb_homology", "hilb homology cube")
    assert workloads.check(cube, 0, cube_homology_report([1, 0, 2, 0, 1])) == [
        "results.betti = [1, 0, 2, 0, 1], expected [1, 0, 1, 0, 1]"
    ]
    assert workloads.check(cube, 3, cube_homology_report(CP2_BETTI)) == [
        "exit code 3, expected 0"
    ]
    label3 = job("readme_sweep", "label3 quartic")
    assert workloads.check(label3, 0, json.dumps({"results": {"exists": False}})) == [
        "exit code 0, expected 1"
    ]


def test_failed_jobs_are_counted_by_the_pass(monkeypatch):
    jobs = [job("hilb_homology", "hilb homology cube")] * 3
    outcomes = iter([
        (0, cube_homology_report(CP2_BETTI)),
        (0, cube_homology_report([1, 0, 2, 0, 1])),
        (1, cube_homology_report(CP2_BETTI)),
    ])
    monkeypatch.setattr(workloads, "run_job", lambda j: next(outcomes))
    reference, problems = {}, []
    _, _, ok, _ = worker.run_pass(jobs, reference, problems)
    assert ok == 1
    assert [p["problems"][0] for p in problems] == [
        "results.betti = [1, 0, 2, 0, 1], expected [1, 0, 1, 0, 1]",
        "exit code 1, expected 0",
    ]


def test_warm_up_pass_is_untimed_but_checked(monkeypatch, tmp_path):
    jobs = [job("hilb_homology", "hilb homology cube")] * 2
    outcomes = iter([(0, cube_homology_report([1, 0, 2, 0, 1]))] + [
        (0, cube_homology_report(CP2_BETTI))] * 5)
    monkeypatch.setattr(workloads, "run_job", lambda j: next(outcomes))
    result = worker.run(jobs, 0.0, False, tmp_path, "t")
    assert len(result["pass_times"]) == worker.MIN_PASSES == 2
    assert (result["attempted"], result["failed"], result["ok"]) == (6, 3, 2)
    # the warm-up's stdout is the reference, so the first job of each timed
    # pass differs from it
    assert [p["pass"] for p in result["problems"]] == [0, 1, 2]


def test_export_check_ignores_a_file_left_by_an_earlier_pass(monkeypatch, tmp_path):
    from degex import cli

    export = job("readme_sweep", "export quartic --format dot -o tetra.dot")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tetra.dot").write_text("graph {}\n")
    report = {"results": {"f_vector": [4, 6, 4], "written": "tetra.dot", "bytes": 9}}
    monkeypatch.setattr(cli, "run", lambda argv: print(json.dumps(report)) or 0)
    code, text = workloads.run_job(export)
    assert workloads.check(export, code, text) == ["exported file 'tetra.dot' not found"]


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, "job", 0.0, 10.0, None, "j"),
        S(1, "cli.run", 1.0, 9.0, 0, "j"),
        S(2, "hilb.build_pi", 2.0, 5.0, 1, "j"),
        S(3, "complexes.validate", 3.0, 4.0, 2, "j"),
        S(4, "linalg.rank_over_rationals", 4.5, 7.0, 1, "j"),  # overlaps span 2
    ]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 2.5}
    metrics, uncovered = tracing.layer_metrics(spans, Counter())
    assert uncovered == {"j": 2.0}
    assert metrics["cli.self_s"] == 3.0
    assert metrics["cli.run_s"] == 8.0
    assert metrics["hilb.build_pi_s"] == 2.0
    assert metrics["linalg.rank_s"] == 2.5
    assert metrics["trace.uncovered_s"] == 2.0


def degex_names() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("degex")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_pass_nests_spans_matches_stdout_and_leaves_no_wrapper():
    jobs = [
        workloads.cli_job("hilb", "homology", "quartic", "--m", "1",
                          fields={"results.betti": [1, 0, 1]}),
        workloads.Job("sphere", fields={"betti": [1, 0, 1]},
                      sphere=("quartic", 1, (workloads.Fraction(1, 3),))),
    ]
    reference, problems = {}, []
    worker.run_pass(jobs, reference, problems)
    before = degex_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "degex.complexes.rank_over_rationals" in tracing.installed_wrappers()
        _, _, ok, _ = worker.run_pass(jobs, reference, problems, tracer, 1)
    finally:
        tracer.remove()
    assert problems == [] and ok == 2
    assert tracing.installed_wrappers() == []
    after = degex_names()
    assert all(after[key] is value for key, value in before.items())

    by_id = {s.id: s for s in tracer.spans}
    rank = next(s for s in tracer.spans if s.name == "linalg.rank_over_rationals")
    chain = []
    while rank.parent is not None:
        rank = by_id[rank.parent]
        chain.append(rank.name)
    assert chain == ["complexes.betti_numbers", "hilb.homology_report", "cli.run", "job"]
    metrics, uncovered = tracing.layer_metrics(tracer.spans, tracer.counts)
    layers = sum(s for m, s in metrics.items() if m in tracing.LAYER_SELF_METRICS or m == "cli.self_s")
    jobs_wall = sum(s.end - s.start for s in tracer.spans if s.name == "job")
    assert abs(layers + metrics["trace.uncovered_s"] - jobs_wall) < 1e-9
    assert metrics["linalg.calls"] > 0

    count = len(tracer.spans)
    worker.run_pass(jobs, reference, problems)
    assert len(tracer.spans) == count


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    metrics, _ = tracing.layer_metrics([], Counter())
    names = list(metrics) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in names
    }
