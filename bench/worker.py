"""One workload in one fresh process: a closed loop of passes.

One client, no threads: each job starts when the previous one returns, and
each pass runs the workload's whole job list.  Prints one JSON line with the
pass times, job counts, problems found by the oracle and, for a traced run,
the per-layer metrics.  Started by run.py; not meant to be run by hand.

Usage: worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
(run with the current directory set to a scratch directory for exports)
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clock  # noqa: E402
import degex  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# probes the CPU speed during every pass; see clock.py
SAMPLER = clock.Sampler(0.05)

# at least this many timed passes (pairs of passes when traced), however long
MIN_PASSES = 2


def run_pass(jobs, reference, problems, tracer=None, pass_id=0) -> tuple[float, float, int, float]:
    """Run every job once; return (seconds at nominal speed, wall seconds,
    jobs that passed the oracle, mean probe seconds during the pass).

    ``reference`` holds each job's stdout digest from the first (warm-up) pass and is
    filled in on the first call; a later pass whose stdout differs fails
    that job.
    """
    outcomes = []
    SAMPLER.take()
    start = time.perf_counter()
    for job in jobs:
        if tracer is None:
            outcomes.append(workloads.run_job(job))
        else:
            outcomes.append(tracer.run_job(f"{pass_id}:{job.label}", workloads.run_job, job))
    wall = time.perf_counter() - start
    seconds, probe = clock.normalise(wall, SAMPLER.take())
    ok = 0
    for index, (job, (code, text)) in enumerate(zip(jobs, outcomes)):
        found = workloads.check(job, code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if reference.setdefault(index, digest) != digest:
            found.append("stdout differs from the warm-up pass")
        if tracer is not None and job.argv is not None:
            tracer.counts["cli.stdout_bytes"] += len(text.encode())
        if found:
            problems.append({"pass": pass_id, "job": job.label, "problems": found})
        else:
            ok += 1
    return seconds, wall, ok, probe


def run(jobs, seconds: float, traced: bool, out_dir: Path, label: str) -> dict:
    """An untimed warm-up pass, then timed passes until ``seconds`` of wall
    time, warm-up included, are used.

    The warm-up pays the first-call costs and records the reference stdout.
    In a traced run every untraced pass is followed by a traced one, whose
    stdout must match too; per-layer times are scaled to nominal speed by
    their pass's factor.
    """
    reference: dict = {}
    problems: list = []
    _, elapsed, warm_ok, _ = run_pass(jobs, reference, problems, pass_id=0)
    plain, walls, probes, rounds = [], [], [], []
    traced_times, per_pass, spans, uncovered = [], [], [], []
    ok = 0
    while len(rounds) < MIN_PASSES or elapsed + statistics.median(rounds) <= seconds:
        pass_id = 1 + len(plain) + len(traced_times)
        normal, wall, good, probe = run_pass(jobs, reference, problems, pass_id=pass_id)
        plain.append(normal)
        walls.append(wall)
        probes.append(probe)
        ok += good
        round_wall = wall
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                normal, wall, good, _ = run_pass(jobs, reference, problems, tracer, pass_id + 1)
            finally:
                tracer.remove()
            traced_times.append(normal)
            ok += good
            round_wall += wall
            metrics, job_uncovered = tracing.layer_metrics(tracer.spans, tracer.counts)
            factor = normal / wall
            per_pass.append({k: v * factor if k.endswith("_s") else v for k, v in metrics.items()})
            spans.extend(asdict(s) for s in tracer.spans)
            uncovered.append(job_uncovered)
        rounds.append(round_wall)
        elapsed += round_wall
    passes = 1 + len(plain) + len(traced_times)
    result = {
        "pass_times": plain,
        "wall_pass_times": walls,
        "probe_s_by_pass": probes,
        "ok": ok,
        "attempted": passes * len(jobs),
        "failed": passes * len(jobs) - ok - warm_ok,
        "problems": problems,
    }
    if traced:
        leftover = tracing.installed_wrappers()
        if leftover:
            problems.append({"pass": None, "job": None, "problems": [f"wrappers left: {leftover}"]})
        layer = tracing.median_metrics(per_pass)
        layer["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{label}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "uncovered_wall_s_by_job": uncovered}, fh)
        result["traced_pass_times"] = traced_times
        result["layer_metrics"] = layer
    return result


def main(argv) -> None:
    workload, seed, seconds, traced, out_dir = argv
    source = Path(degex.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        sys.exit(f"degex imported from {source}, not from the checkout")
    jobs = workloads.build(workload, int(seed))
    label = f"{workload}-seed{seed}"
    SAMPLER.start()
    try:
        result = run(jobs, float(seconds), traced == "1", Path(out_dir), label)
    finally:
        SAMPLER.stop()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["jobs_per_pass"] = len(jobs)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
