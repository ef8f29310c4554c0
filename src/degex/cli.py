"""Command line entry point.

Every command writes a single JSON report to standard output and reserves
standard error for diagnostics.  Exit codes: 0 pass, 1 a hard check failed,
2 usage or input error, 3 a documented reference discrepancy was reproduced
(never silently passed).  Reports are deterministic for fixed flags and
embed the artifact version.  They are written with two-space indent and
sorted keys by `degex.dumps`, byte-identical to
`json.dumps(report, indent=2, sort_keys=True)`.

`run` writes every report: a command returns its results and status, and
the report's command and inputs are the parsed arguments, so the parser is
the one owner of each command's argument list.  A census mismatch fails
(exit 1) every command that builds the Hilbert-square complex, with an
`internal_inconsistency` report in place of its results.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__, dumps, parse_fraction
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
    INDEX_CONVENTION_NOTE,
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

# per doubling of n, `expand` makes 4x the cells in 3-4x the time and 3x the
# memory (`expand cube --n 64 --assignment labeling`: 0.93-1.04 s over 5 runs
# and 121 MB peak RSS, on one CPU of a 2-core x86 host), and `charts verify`
# with its default 1000 samples takes 0.6 s at n = 64 on one CPU of that
# host, so deeper ones are refused up front
MAX_DEPTH = 64

DEFAULT_TAUS = ("1/10", "1/4", "1/2", "3/4", "9/10")

# the parts of the parsed arguments that name the command, not its inputs
_COMMAND_PARTS = ("command", "charts_command", "hilb_command")


def _parse_params(raw: str | None):
    if raw is None:
        return None
    return [parse_fraction(part, "argument --params") for part in raw.split(",")]


def _integer(text: str) -> int:
    # on a ValueError argparse would name this private function in its message
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


def _depth(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative depth, got {value}")
    if value > MAX_DEPTH:
        raise argparse.ArgumentTypeError(
            f"expected a depth of at most {MAX_DEPTH}, got {value}"
        )
    return value


def _chart_depth(text: str) -> int:
    # at depth 0 there is no chart relation and no coincidence level, and the
    # torus acts as the identity, so every check would hold by construction
    value = _depth(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a chart depth of at least 1, got {value}")
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


def cmd_model(args) -> tuple[dict, str]:
    return model_report(get_model(args.model)), "pass"


def cmd_label3(args) -> tuple[dict, str]:
    model = get_model(args.model)
    labeling = find_3_labeling(model)
    results = {"labeling": labeling, "exists": labeling is not None}
    return results, "pass" if labeling is not None else "fail"


def cmd_expand(args) -> tuple[dict, str]:
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
    return results, "pass" if gluing.glues and torus.compatible else "fail"


def cmd_certify(args) -> tuple[dict, str]:
    # imported here, not at the top: it would add about 1.1 ms (-X importtime)
    # to the 10 ms import of this module, which every command and the
    # benchmark's set-up time pay, and only this command needs it
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
    parsed = (parse_fraction(s, "argument --tau") for s in args.tau or DEFAULT_TAUS)
    taus = list(dict.fromkeys(parsed))
    args.tau = [str(t) for t in taus]  # the report echoes the taus checked
    face_results = [check_strict_convexity(cert, tau) for cert in certs for tau in taus]
    face_results.sort(key=lambda r: (r.face, r.tau))
    results = {"faces": [r.to_json_obj() for r in face_results]}
    ok = all(r.ok for r in face_results)
    if args.all_edges:
        edges = {str(tau): check_edge_agreement(certs, tau) for tau in taus}
        if not all(edges.values()):
            raise ValueError("--all-edges compares nothing: no two certificates share an edge")
        results["edges"] = {tau: [r.to_json_obj() for r in rs] for tau, rs in edges.items()}
        ok = ok and all(r.equal for rs in edges.values() for r in rs)
    return results, "pass" if ok else "fail"


def cmd_charts_verify(args) -> tuple[dict, str]:
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
    return results, "pass" if ok else "fail"


def cmd_hilb_count(args) -> tuple[dict, str]:
    K, breakdowns = build_pi(get_model(args.model), m=args.m)
    fv = list(f_vector(K))
    results = {"m": args.m, "f_vector": fv, "index_convention": INDEX_CONVENTION_NOTE}
    if breakdowns:
        results["breakdowns"] = [b.to_json_obj() for b in breakdowns]
        results["case_f_vector"] = [b.total() for b in breakdowns]
        results["agreement"] = results["case_f_vector"] == fv
    results["euler"] = euler_of_counts(fv)
    reference = compare_with_reference(fv, args.model, m=args.m)
    results["reference_comparison"] = reference
    return results, "flagged" if reference["flags"] else "pass"


def cmd_hilb_homology(args) -> tuple[dict, str]:
    report = homology_report(get_model(args.model), m=args.m)
    return report, "pass" if report["matches_target"] else "flagged"


def cmd_export(args) -> tuple[dict, str]:
    if args.target in ("quartic", "cube"):
        K = get_model(args.target).sphere
    else:
        K, _ = build_pi(get_model(args.target.split("-", 1)[1]), m=2)
    data = export_complex(K, args.format)
    with open(args.output, "wb") as fh:
        fh.write(data)
    results = {
        "written": args.output,
        "bytes": len(data),
        "format": args.format,
        "f_vector": list(f_vector(K)),
    }
    return results, "pass"


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
    p.add_argument("--n", type=_depth, required=True, help="subdivision depth")
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
    pv.add_argument("--n", type=_chart_depth, required=True, help="chart depth")
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
        results, status = args.fn(args)
    except EnumerationMismatch as exc:
        results = {"internal_inconsistency": {"message": str(exc), "diff": exc.diff}}
        status = "fail"
    except (ValueError, OSError) as exc:
        print(f"degex: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parsed = vars(args)
    report = {
        "command": " ".join(parsed[k] for k in _COMMAND_PARTS if k in parsed),
        "inputs": {k: v for k, v in parsed.items() if k not in _COMMAND_PARTS and k != "fn"},
        "results": results,
        "status": status,
        "version": __version__,
    }
    print(dumps(report))
    return _STATUS_CODE[status]


def main() -> None:
    sys.exit(run(sys.argv[1:]))
