"""Check that degex's own work does not change the probe's reading of CPU speed.

    python3 bench/probe_check.py --workload hilb_homology

Runs the workload's jobs (seed 1) in turn, one per round for 40 rounds,
each followed by a spin loop of the same length that touches almost no
memory, while clock.Sampler probes all along.  If degex's working set slowed
or sped up the probe, the probe would read differently during the jobs than
during the spin loops.  Prints the median probe time in each phase and the
quartiles of the per-round ratio (mean probe during the job / mean probe
during its spin loop).  Runs pinned to one CPU, like the benchmark's
children; exports go to a scratch directory that is removed at the end.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clock  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 40

def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs = workloads.build(args.workload, 1)
    sampler = clock.Sampler(0.05)
    phases = {"job": [], "spin": []}
    ratios = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as scratch:
        os.chdir(scratch)
        workloads.run_job(jobs[0])  # imports and first-call costs
        sampler.start()
        try:
            for index in range(ROUNDS):
                sampler.take()
                start = time.perf_counter()
                workloads.run_job(jobs[index % len(jobs)])
                during_job = sampler.take()
                spin(time.perf_counter() - start)
                during_spin = sampler.take()
                phases["job"] += during_job
                phases["spin"] += during_spin
                if during_job and during_spin:
                    ratios.append(statistics.fmean(during_job) / statistics.fmean(during_spin))
        finally:
            sampler.stop()
            os.chdir(ROOT)
    for phase, samples in phases.items():
        print(f"{args.workload} {phase:4s} probes {len(samples):5d}  "
              f"median {statistics.median(samples) * 1e3:.4f} ms")
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.workload} job/spin per round: median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"rounds {len(ratios)}")


if __name__ == "__main__":
    main()
