"""Command line entry point.

Every command writes a single JSON report to standard output and reserves
standard error for diagnostics.  Exit codes: 0 pass, 1 a hard check failed,
2 usage or input error, 3 a documented reference discrepancy was reproduced
(never silently passed).  Reports are deterministic for fixed flags and
embed the artifact version.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, parse_fraction
from .charts import delta_coincidence_check, verify_samples, verify_torus_pairs
from .complexes import euler_of_counts, f_vector
from .complexes import export as export_complex
from .expansion import (
    assignment_from_json_obj,
    check_gluing,
    check_torus_compatibility,
    expanded_complex_report,
    get_assignment,
    subdivide,
)
from .hilb import (
    EnumerationMismatch,
    build_pi,
    compare_with_reference,
    homology_report,
)
from .models import find_3_labeling, get_model, model_report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FLAGGED = 3

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "flagged": EXIT_FLAGGED}


def _emit(command: str, inputs: dict, results: dict, status: str) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "version": __version__,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return _STATUS_CODE[status]


def _parse_taus(raw: list[str] | None) -> list[Fraction]:
    if not raw:
        return [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]
    return [parse_fraction(s) for s in raw]


def _parse_params(raw: str | None):
    if raw is None:
        return None
    return [parse_fraction(part) for part in raw.split(",") if part]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, like every other input error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_assignment(model, spec: str):
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return assignment_from_json_obj(model, json.load(fh))
    return get_assignment(model, spec)


# ---------------------------------------------------------------------------
# commands


def cmd_model(args) -> int:
    model = get_model(args.model)
    return _emit("model", {"model": args.model}, model_report(model), "pass")


def cmd_label3(args) -> int:
    model = get_model(args.model)
    labeling = find_3_labeling(model)
    results = {"labeling": labeling, "exists": labeling is not None}
    return _emit(
        "label3",
        {"model": args.model},
        results,
        "pass" if labeling is not None else "fail",
    )


def cmd_expand(args) -> int:
    model = get_model(args.model)
    assignment = _load_assignment(model, args.assignment)
    E = subdivide(model, assignment, args.n, positions=_parse_params(args.params))
    gluing = check_gluing(E)
    torus = check_torus_compatibility(E)
    results = {
        "expanded": expanded_complex_report(E),
        "gluing": gluing.to_json_obj(),
        "torus": torus.to_json_obj(),
    }
    status = "pass" if gluing.glues and torus.compatible else "fail"
    return _emit(
        "expand",
        {
            "model": args.model,
            "n": args.n,
            "assignment": args.assignment,
            "params": args.params,
        },
        results,
        status,
    )


def cmd_certify(args) -> int:
    from .projectivity import (
        builtin_certificates,
        certificates_from_json,
        check_edge_agreement,
        check_strict_convexity,
    )

    if args.certificates:
        with open(args.certificates, encoding="utf-8") as fh:
            certs = certificates_from_json(fh.read())
    else:
        certs = builtin_certificates()
    taus = _parse_taus(args.tau)
    face_results = [check_strict_convexity(cert, tau) for cert in certs for tau in taus]
    face_results.sort(key=lambda r: (r.face, r.tau))
    results = {"faces": [r.to_json_obj() for r in face_results]}
    if args.all_edges:
        results["edges"] = {
            str(tau): [r.to_json_obj() for r in check_edge_agreement(certs, tau)]
            for tau in taus
        }
    status = "pass" if all(r.ok for r in face_results) else "fail"
    return _emit(
        "certify-projectivity",
        {
            "tau": [str(t) for t in taus],
            "all_edges": args.all_edges,
            "certificates": args.certificates,
        },
        results,
        status,
    )


def cmd_charts_verify(args) -> int:
    sample_report = verify_samples(args.n, args.samples, args.seed)
    torus_report = verify_torus_pairs(args.n, args.pairs, args.seed)
    coincidence = {
        str(k): delta_coincidence_check(args.n, k, seed=args.seed)
        for k in range(1, args.n + 1)
    }
    ok = sample_report["pass"] and torus_report["pass"] and all(coincidence.values())
    results = {
        "pass": ok,
        "failures": sample_report["failures"] + torus_report["failures"],
        "samples": sample_report,
        "torus": torus_report,
        "coincidence": coincidence,
    }
    return _emit(
        "charts verify",
        {"n": args.n, "samples": args.samples, "seed": args.seed, "pairs": args.pairs},
        results,
        "pass" if ok else "fail",
    )


def cmd_hilb_count(args) -> int:
    model = get_model(args.model)
    results: dict = {"m": args.m, "enumerators": "both"}
    status = "pass"
    try:
        _, info = build_pi(model, m=args.m)
        fv = info["f_vector"]
        results["closure_f_vector"] = results["f_vector"] = fv
        results["index_convention"] = info["index_convention"]
        if "breakdowns" in info:
            results["breakdowns"] = [b.to_json_obj() for b in info["breakdowns"]]
            results["case_f_vector"] = [b.total() for b in info["breakdowns"]]
            results["agreement"] = results["case_f_vector"] == fv
        results["euler"] = euler_of_counts(fv)
        reference = compare_with_reference(fv, args.model, m=args.m)
        results["reference_comparison"] = reference
        if reference["flags"]:
            status = "flagged"
    except EnumerationMismatch as exc:
        results["internal_inconsistency"] = {"message": str(exc), "diff": exc.diff}
        status = "fail"
    return _emit(
        "hilb count",
        {"model": args.model, "m": args.m, "by": "both"},
        results,
        status,
    )


def cmd_hilb_homology(args) -> int:
    model = get_model(args.model)
    return _emit(
        "hilb homology",
        {"model": args.model, "m": args.m},
        homology_report(model, m=args.m),
        "pass",
    )


def cmd_export(args) -> int:
    if args.target in ("quartic", "cube"):
        K = get_model(args.target).sphere
    elif args.target in ("pi-quartic", "pi-cube"):
        K, _ = build_pi(get_model(args.target.split("-", 1)[1]), m=2)
    else:
        raise ValueError(f"unknown export target: {args.target}")
    data = export_complex(K, args.format)
    with open(args.output, "wb") as fh:
        fh.write(data)
    results = {
        "written": args.output,
        "bytes": len(data),
        "format": args.format,
        "f_vector": list(f_vector(K)),
    }
    return _emit(
        "export",
        {"target": args.target, "format": args.format, "output": args.output},
        results,
        "pass",
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degex",
        description="exact workbench for expanded degenerations and their "
        "Hilbert-square dual complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="print a surface model's shape and metadata")
    p.add_argument("model", choices=["quartic", "cube"])
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("label3", help="search for a 3-labeling of a model")
    p.add_argument("model", choices=["quartic", "cube"])
    p.set_defaults(fn=cmd_label3)

    p = sub.add_parser("expand", help="subdivide a model and run the certificates")
    p.add_argument("model", choices=["quartic", "cube"])
    p.add_argument("--n", type=int, required=True, help="subdivision depth")
    p.add_argument(
        "--assignment",
        default="default",
        help="default | labeling | @FILE.json",
    )
    p.add_argument("--params", default=None, help="comma separated positions, e.g. 1/3,2/3")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("certify-projectivity", help="check the face certificates")
    p.add_argument("--tau", action="append", help="slice parameter p/q (repeatable)")
    p.add_argument("--all-edges", action="store_true")
    p.add_argument("--certificates", default=None, help="JSON file of face certificates")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("charts", help="chart verification commands")
    charts_sub = p.add_subparsers(dest="charts_command", required=True)
    pv = charts_sub.add_parser("verify", help="verify chart relations on samples")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--samples", type=_positive_int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--pairs", type=_positive_int, default=100, help="torus action pairs")
    pv.set_defaults(fn=cmd_charts_verify)

    p = sub.add_parser("hilb", help="Hilbert-square dual complex commands")
    hilb_sub = p.add_subparsers(dest="hilb_command", required=True)
    pc = hilb_sub.add_parser("count", help="enumerate cells")
    pc.add_argument("model", choices=["quartic", "cube"])
    pc.add_argument("--m", type=int, choices=[1, 2], default=2)
    pc.set_defaults(fn=cmd_hilb_count)
    ph = hilb_sub.add_parser("homology", help="Betti numbers of the complex")
    ph.add_argument("model", choices=["quartic", "cube"])
    ph.add_argument("--m", type=int, choices=[1, 2], default=2)
    ph.set_defaults(fn=cmd_hilb_homology)

    p = sub.add_parser("export", help="export a complex as json or dot")
    p.add_argument("target", choices=["quartic", "cube", "pi-quartic", "pi-cube"])
    p.add_argument("--format", choices=["json", "dot"], required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_export)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"degex: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
