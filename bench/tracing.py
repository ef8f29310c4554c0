"""Span tracing of the degex layers from outside the library.

``Tracer.install`` wraps each layer's public functions.  Where a module
imported a function by name (``cli`` imports ``subdivide``, ``complexes``
imports ``rank_over_rationals``), the wrapper replaces that name in every
degex module that holds it, so calls nest under the job's ``cli.run`` span
however they were looked up.  ``Tracer.remove`` restores every original.

A span is (id, name, start, end, parent id, job id).  Spans stay in memory;
the caller writes them out when the run ends.  Span names are
``<layer>.<function>``; the pseudo-span ``job`` brackets one job and belongs
to no layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None


# ---------------------------------------------------------------------------
# counters recorded inside the wrapped call's own span; each takes the
# counts, a thunk giving the call's bound arguments, and the result


def _matrix(counts, arguments, result):
    M = arguments()["M"]
    counts["linalg.calls"] += 1
    counts["linalg.entries"] += M.rows * M.cols
    counts["linalg.nnz"] += sum(len(row) - row.count(0) for row in M.entries)
    counts["linalg.max_dim"] = max(counts["linalg.max_dim"], M.rows, M.cols)


def _validated(counts, arguments, result):
    counts["complexes.cells"] += len(arguments()["K"])


def _subdivided(counts, arguments, result):
    counts["expansion.cells"] += len(result.cells)


def _points(arg):
    def count(counts, arguments, result):
        counts["charts.points_checked"] += arguments()[arg]

    return count


def _convexity(counts, arguments, result):
    counts["projectivity.checks"] += 1


def _edges(counts, arguments, result):
    counts["projectivity.checks"] += len(result)


def _stable_call(counts, arguments, result):
    counts["hilb.is_stable_calls"] += 1


def _kept(counts, arguments, result):
    counts["hilb.cells_kept"] += len(result)


# (module, function, records a span, counter)
TARGETS = (
    ("degex.cli", "run", True, None),
    ("degex.models", "get_model", True, None),
    ("degex.models", "find_3_labeling", True, None),
    ("degex.models", "model_report", True, None),
    ("degex.expansion", "subdivide", True, _subdivided),
    ("degex.expansion", "check_gluing", True, None),
    ("degex.expansion", "check_torus_compatibility", True, None),
    ("degex.expansion", "expanded_complex_report", True, None),
    ("degex.charts", "verify_samples", True, _points("samples")),
    ("degex.charts", "verify_torus_pairs", True, _points("pairs")),
    ("degex.charts", "delta_coincidence_check", True, _points("samples")),
    ("degex.projectivity", "builtin_certificates", True, None),
    ("degex.projectivity", "check_strict_convexity", True, _convexity),
    ("degex.projectivity", "check_edge_agreement", True, _edges),
    ("degex.hilb", "homology_report", True, None),
    ("degex.hilb", "build_pi", True, None),
    ("degex.hilb", "enumerate_cases", True, None),
    ("degex.hilb", "compare_with_reference", True, None),
    # called tens of thousands of times per build: counted, never spanned
    ("degex.hilb", "is_stable", False, _stable_call),
    ("degex.hilb", "all_stable", False, _kept),
    ("degex.complexes", "validate", True, _validated),
    ("degex.complexes", "boundary_matrix", True, None),
    ("degex.complexes", "betti_numbers", True, None),
    ("degex.complexes", "h1_torsion", True, None),
    ("degex.complexes", "export", True, None),
    ("degex.linalg", "rank_over_rationals", True, _matrix),
    ("degex.linalg", "smith_normal_form", True, _matrix),
)

# per-layer time metrics: the summed self time of the named spans
SELF_TIME_METRICS = {
    "linalg.rank_s": ("linalg.rank_over_rationals",),
    "linalg.snf_s": ("linalg.smith_normal_form",),
    "complexes.boundary_matrix_s": ("complexes.boundary_matrix",),
    "complexes.validate_s": ("complexes.validate",),
    "complexes.export_s": ("complexes.export",),
    "hilb.build_pi_s": ("hilb.build_pi",),
    "hilb.enumerate_cases_s": ("hilb.enumerate_cases",),
    "expansion.subdivide_s": ("expansion.subdivide",),
    "expansion.certify_s": ("expansion.check_gluing", "expansion.check_torus_compatibility"),
    "expansion.report_s": ("expansion.expanded_complex_report",),
    "charts.verify_samples_s": ("charts.verify_samples",),
    "charts.verify_torus_pairs_s": ("charts.verify_torus_pairs",),
    "charts.coincidence_s": ("charts.delta_coincidence_check",),
    "projectivity.convexity_s": ("projectivity.check_strict_convexity",),
    "projectivity.edge_agreement_s": ("projectivity.check_edge_agreement",),
    "cli.self_s": ("cli.run",),
}
# whole-layer self time, for the layers whose named metrics above do not
# already sum to it (models.busy_s and cli.self_s are those layers' totals)
LAYER_SELF_METRICS = {
    "models.busy_s": "models",
    "linalg.self_s": "linalg",
    "complexes.self_s": "complexes",
    "hilb.self_s": "hilb",
    "expansion.self_s": "expansion",
    "charts.self_s": "charts",
    "projectivity.self_s": "projectivity",
}
COUNT_METRICS = (
    "linalg.calls",
    "linalg.max_dim",
    "linalg.nnz",
    "linalg.entries",
    "complexes.cells",
    "hilb.is_stable_calls",
    "hilb.cells_kept",
    "expansion.cells",
    "charts.points_checked",
    "projectivity.checks",
    "cli.stdout_bytes",
)


class Tracer:
    """Records spans and counts while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: str, fn, *args):
        """Call fn(*args) inside a ``job`` span; spans opened meanwhile carry job_id."""
        self._job = job_id
        span = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._job = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name: str, spanned: bool, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name) if spanned else None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self.counts, lambda: _arguments(signature, args, kwargs), result)
                return result
            finally:
                if span is not None:
                    self._close(span)

        wrapper.__bench_tracer__ = self
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a degex module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [(importlib.import_module(m), m, attr, s, c) for m, attr, s, c in TARGETS]
        modules = [m for name, m in sorted(sys.modules.items()) if _is_degex(name)]
        for target, module_name, attr, spanned, counter in targets:
            original = getattr(target, attr)
            layer = module_name.split(".")[1]
            wrapper = self._wrap(original, f"{layer}.{attr}", spanned, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def remove(self) -> None:
        """Restore every name install replaced."""
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _is_degex(module_name: str) -> bool:
    return module_name == "degex" or module_name.startswith("degex.")


def installed_wrappers() -> list[str]:
    """Names in loaded degex modules that still hold a tracer wrapper."""
    return [
        f"{module_name}.{name}"
        for module_name, module in sorted(sys.modules.items())
        if _is_degex(module_name)
        for name, value in vars(module).items()
        if hasattr(value, "__bench_tracer__")
    ]


# ---------------------------------------------------------------------------
# arithmetic on span trees


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans}


def layer_metrics(spans, counts) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and each job's uncovered time.

    A job's uncovered time is the part of its wall time that no layer span
    covers: the benchmark's own job glue plus any library code that runs
    outside the wrapped functions.
    """
    own = self_times(spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    cli_run = 0.0
    uncovered = {}
    for s in spans:
        if s.name == "job":
            uncovered[s.job] = own[s.id]
            continue
        by_name[s.name] += own[s.id]
        by_layer[s.name.split(".")[0]] += own[s.id]
        if s.name == "cli.run":
            cli_run += s.end - s.start
    metrics = {m: float(sum(by_name[n] for n in names)) for m, names in SELF_TIME_METRICS.items()}
    metrics.update({m: float(by_layer[layer]) for m, layer in LAYER_SELF_METRICS.items()})
    metrics["cli.run_s"] = cli_run
    metrics.update({m: counts[m] for m in COUNT_METRICS})
    calls = counts["hilb.is_stable_calls"]
    metrics["hilb.kept_ratio"] = counts["hilb.cells_kept"] / calls if calls else 0.0
    metrics["trace.uncovered_s"] = float(sum(uncovered.values()))
    return metrics, uncovered


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
