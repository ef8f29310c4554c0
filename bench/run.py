"""Benchmark of the degex workbench: one workload, end to end or traced.

    python3 bench/run.py --workload hilb_homology --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``, never from an installed copy.

With ``--trace 0`` the run measures set-up time in fresh child processes,
then runs the workload in one more fresh child as a closed loop of passes
and reports the end-to-end metrics.  With ``--trace 1`` the child alternates
untraced and traced passes and reports the per-layer metrics.  Either way
every job's report is checked by the oracle in workloads.py.  Every child
runs pinned to one CPU, and every time is normalised to host speed by the
in-process probe in clock.py; raw wall times go to the record.

Stdout holds a table of every metric with its unit and sample count, then,
as the last line, one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
The full record (metadata, metrics, oracle problems) goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json`` under the checkout, and
a traced run's spans next to it.  No ``DEGEX_*`` variable reaches a child.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters, each timed from spawn until it has imported degex.cli
# and built both models; a single sample spreads by ~50%
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import json, sys, time; sys.path[:0] = sys.argv[1:]; import clock; "
    "sampler = clock.Sampler(0.02); sampler.start(); import degex.cli; "
    "from degex.models import get_model; get_model('quartic'); get_model('cube'); "
    "end = time.monotonic(); sampler.stop(); print(json.dumps([end, sampler.take()]))"
)
# the whole run, children included, ends well inside three minutes
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_s_tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("DEGEX_")}


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("bench", RUN_LIMIT_S)
    return left


def measure_setup(deadline: float) -> tuple[list[float], list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported
    degex.cli and built both models: (at nominal speed, wall, mean probe).

    The child reports when it finished on the system-wide monotonic clock,
    so neither interpreter shutdown nor the parent's polling of a child
    with a timeout (in steps of up to 50 ms) is counted.
    """
    normal, walls, speeds = [], [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(BENCH), str(ROOT / "src")],
            cwd=ROOT, env=child_env(), check=True, stdout=subprocess.PIPE, text=True,
            timeout=remaining(deadline),
        )
        end, probes = json.loads(proc.stdout)
        seconds, speed = clock.normalise(end - start, probes)
        walls.append(end - start)
        normal.append(seconds)
        speeds.append(speed)
    return normal, walls, speeds


def run_worker(args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as scratch:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "worker.py"), args.workload,
             str(args.seed), str(args.seconds), str(args.trace), str(OUT)],
            cwd=scratch, env=child_env(), check=True, stdout=subprocess.PIPE,
            text=True, timeout=remaining(deadline),
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(setup: list[float], result: dict) -> dict:
    """name -> (value, sample count)"""
    times = result["pass_times"]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(times), len(times)),
        # a run holds 4-18 timed passes, too few for any percentile above the
        # median to have ten samples beyond it, so the tail is the slowest
        "pass_s_tail": (max(times), len(times)),
        "jobs_per_s": (result["ok"] / sum(times), len(times)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degex" / "__init__.py").is_file():
        print(f"bench: no degex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    # a terminated run still kills its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # one CPU for every child: a process that migrates between CPUs of
    # different speed gives bimodal pass times
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup, setup_walls, setup_probes = ([], [], []) if args.trace else measure_setup(deadline)
        result = run_worker(args, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # the untimed warm-up pass counts here, as its jobs are checked too
    passes = 1 + len(result["pass_times"]) + len(result.get("traced_pass_times", []))
    if args.trace:
        samples = len(result["traced_pass_times"])
        metrics = {k: (v, samples) for k, v in result["layer_metrics"].items()}
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(setup, result)
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_sha": git_sha(),
        "passes": passes,
        "jobs_per_pass": result["jobs_per_pass"],
        "pass_times_s": result["pass_times"],
        "traced_pass_times_s": result.get("traced_pass_times"),
        "wall_pass_times_s": result["wall_pass_times"],
        "probe_s_by_pass": result["probe_s_by_pass"],
        "setup_times_s": setup,
        "wall_setup_times_s": setup_walls,
        "probe_s_by_setup": setup_probes,
        "attempted": attempted,
        "failed": failed,
        "failed_job_ratio": failed / attempted,
        "metrics": {
            k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()
        },
        "problems": result["problems"],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  nproc {nproc}  cpu {cpu}  git {record['git_sha']}")
    print(f"passes {passes}  jobs/pass {record['jobs_per_pass']}  "
          f"attempted {attempted}  failed {failed}  failed_job_ratio {failed / attempted:g}")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:6s} n={entry['samples']}")
    for problem in result["problems"][:20]:
        print(f"bench: failed job: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
