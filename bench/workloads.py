"""Workload job lists, seeded inputs, and the per-job correctness oracle.

A job is either one CLI invocation through ``degex.cli.run`` with stdout
captured, or one library pipeline (``sphere`` jobs).  Every job carries the
exit code and the named report fields it must produce, so the oracle checks
known values rather than frozen golden bytes: a later change that drops an
unrelated report field is not scored as a failure.

Library functions are always looked up as module attributes at call time
(``expansion.subdivide``, never a name imported into this module), so the
traced run's wrappers see these calls too.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

CP2_F_QUARTIC = [10, 45, 110, 120, 48]
CP2_F_CUBE = [21, 150, 420, 480, 192]
CP2_BETTI = [1, 0, 1, 0, 1]
SPHERE_BETTI = [1, 0, 1]
SPHERE_F = {"quartic": [4, 6, 4], "cube": [6, 12, 8]}
ASSIGNMENT = {"quartic": "default", "cube": "labeling"}

WORKLOADS = ("hilb_homology", "readme_sweep", "sphere_homology")


@dataclass(frozen=True)
class Job:
    """One unit of work and what its report must say.

    ``argv`` is set for a CLI job; ``sphere`` = (model, n, positions) for a
    library pipeline job.  ``fields`` maps dotted report paths to the exact
    expected value; ``export`` names the file an export job writes, whose
    size must equal the reported byte count.
    """

    label: str
    exit_code: int = 0
    fields: dict = field(default_factory=dict)
    argv: tuple[str, ...] | None = None
    sphere: tuple | None = None
    export: str | None = None


def cli_job(*argv: str, exit_code: int = 0, fields=None) -> Job:
    export = argv[argv.index("-o") + 1] if argv[0] == "export" else None
    return Job(" ".join(argv), exit_code, dict(fields or {}), argv=argv, export=export)


def positions(rng: random.Random, n: int) -> list[Fraction]:
    """n strictly increasing rationals in (0, 1) drawn from the seed."""
    return [Fraction(k, 1000) for k in sorted(rng.sample(range(1, 1000), n))]


def _homology(f, betti) -> dict:
    return {"results.f_vector": f, "results.betti": betti, "results.h1_torsion": []}


def _expand(*argv: str) -> Job:
    return cli_job(
        "expand",
        *argv,
        fields={
            "results.expanded.euler_characteristic": 2,
            "results.gluing.glues": True,
            "results.torus.compatible": True,
        },
    )


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass.  The same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hilb_homology":
        return [
            cli_job("hilb", "homology", "quartic", fields=_homology(CP2_F_QUARTIC, CP2_BETTI)),
            cli_job("hilb", "homology", "cube", fields=_homology(CP2_F_CUBE, CP2_BETTI)),
            cli_job("hilb", "homology", "quartic", "--m", "1",
                    fields=_homology(SPHERE_F["quartic"], SPHERE_BETTI)),
            cli_job("hilb", "homology", "cube", "--m", "1",
                    fields=_homology(SPHERE_F["cube"], SPHERE_BETTI)),
        ]
    if workload == "readme_sweep":
        params = ",".join(str(p) for p in positions(rng, 2))
        chart_seed = str(rng.randrange(1 << 30))
        jobs = []
        for model in ("quartic", "cube"):
            jobs.append(cli_job("model", model, fields={
                "results.f_vector": SPHERE_F[model],
                "results.euler_characteristic": 2,
            }))
        jobs.append(cli_job("label3", "quartic", exit_code=1, fields={"results.exists": False}))
        jobs.append(cli_job("label3", "cube", fields={"results.exists": True}))
        for model in ("quartic", "cube"):
            for n in ("8", "24"):
                jobs.append(_expand(model, "--n", n, "--assignment", ASSIGNMENT[model]))
        jobs.append(_expand("quartic", "--n", "2", "--params", params))
        jobs.append(cli_job("certify-projectivity", "--all-edges", fields={"status": "pass"}))
        for n in ("2", "8"):
            jobs.append(cli_job("charts", "verify", "--n", n, "--samples", "1000",
                                "--seed", chart_seed, fields={"status": "pass"}))
        jobs.append(cli_job("hilb", "count", "quartic", fields={"results.f_vector": CP2_F_QUARTIC}))
        jobs.append(cli_job("hilb", "count", "cube", exit_code=3,
                            fields={"results.f_vector": CP2_F_CUBE}))
        jobs.append(cli_job("hilb", "count", "quartic", "--m", "1",
                            fields={"results.f_vector": SPHERE_F["quartic"]}))
        jobs.append(cli_job("export", "pi-cube", "--format", "json", "-o", "pi_cube.json",
                            fields={"results.f_vector": CP2_F_CUBE}))
        jobs.append(cli_job("export", "quartic", "--format", "dot", "-o", "tetra.dot",
                            fields={"results.f_vector": SPHERE_F["quartic"]}))
        return jobs
    if workload == "sphere_homology":
        sphere_fields = {
            "euler": 2,
            "violations": [],
            "betti": SPHERE_BETTI,
            "h1_torsion": [],
            "glues": True,
        }
        return [
            Job(f"sphere {model} n={n}", 0, sphere_fields,
                sphere=(model, n, tuple(positions(rng, n))))
            for model in ("quartic", "cube")
            for n in (1, 2, 3)
        ]
    raise ValueError(f"unknown workload: {workload}")


def run_job(job: Job) -> tuple[int, str]:
    """Run one job; return its exit code and its report text.

    An export job's file is removed first, so the oracle sees only what this
    job wrote.
    """
    from degex import cli

    if job.export is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.export)
    if job.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(job.argv))
        return code, buf.getvalue()
    return 0, json.dumps(sphere_pipeline(*job.sphere), sort_keys=True)


def sphere_pipeline(model_name: str, n: int, pos) -> dict:
    """Subdivide a model, then validate it, compute its homology and glue it."""
    from degex import complexes, expansion, models

    model = models.get_model(model_name)
    assignment = expansion.get_assignment(model, ASSIGNMENT[model_name])
    E = expansion.subdivide(model, assignment, n, positions=list(pos))
    return {
        "f_vector": list(complexes.f_vector(E.cells)),
        "euler": complexes.euler_characteristic(E.cells),
        "violations": [str(v) for v in complexes.validate(E.cells)],
        "betti": list(complexes.betti_numbers(E.cells)),
        "h1_torsion": complexes.h1_torsion(E.cells),
        "glues": expansion.check_gluing(E).glues,
    }


_MISSING = object()


def _lookup(report, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def check(job: Job, code: int, text: str) -> list[str]:
    """Problems with one job's outcome; an empty list means it is correct."""
    problems = []
    if code != job.exit_code:
        problems.append(f"exit code {code}, expected {job.exit_code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return problems + ["report is not one JSON document"]
    for path, want in job.fields.items():
        got = _lookup(report, path)
        if got is _MISSING:
            problems.append(f"{path} missing")
        elif got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    if job.export is not None:
        written = _lookup(report, "results.written")
        size = _lookup(report, "results.bytes")
        if not isinstance(written, str) or not os.path.isfile(written):
            problems.append(f"exported file {written!r} not found")
        elif os.path.getsize(written) != size:
            problems.append(f"results.bytes = {size!r}, file has {os.path.getsize(written)}")
    return problems
