"""Spans around the calls into each entmd module, recorded from outside the package.

A span wraps a module-level name as the *calling* module sees it: for
example ``_dh_core`` is replaced in ``entmd.solvers`` and
``smallest_positive_eigenvalue`` in ``entmd.analysis``.  A name that no
longer exists is skipped, so every metric derived from it is absent from the
result instead of crashing the run.

Spans are kept in memory as ``[name, start, end, parent, ok, attrs]`` lists
(``parent`` is the index of the enclosing span, -1 at top level) and turned
into per-layer metrics by :func:`layer_metrics` when a pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OK, ATTRS = range(6)


def _solve_attrs(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {
        "kind": cfg.method.kind,
        "ref": cfg.trace_reference is not None,
        "shape": f"{p.m}x{p.n}",
        "iters": result.iters_run,
    }


# (calling module, attribute, span name, attribute extractor or None)
TARGETS = [
    ("entmd.cli", "main", "cli.main", None),
    ("entmd.cli", "load_instance", "cli.load_instance", None),
    ("entmd.cli", "run_experiment1", "experiments.run_experiment1", None),
    ("entmd.cli", "run_experiment2", "experiments.run_experiment2", None),
    ("entmd.cli", "solve", "solvers.solve", _solve_attrs),
    ("entmd", "gen_instance", "experiments.gen_instance", None),
    ("entmd.experiments", "gen_instance", "experiments.gen_instance", None),
    ("entmd.experiments", "random_orthogonal", "linalg.random_orthogonal", None),
    ("entmd.experiments", "grid_search_constant", "experiments.grid_search_constant", None),
    ("entmd.experiments", "solve", "solvers.solve", _solve_attrs),
    ("entmd", "solve", "solvers.solve", _solve_attrs),
    ("entmd.solvers", "backtracking_stepsize", "solvers.backtracking_stepsize", None),
    ("entmd.solvers", "md_step", "solvers.md_step", None),
    ("entmd.solvers", "_dh_core", "bregman.dh_core", None),
    ("entmd", "worst_case_construction", "analysis.worst_case_construction", None),
    ("entmd", "rate_certificate", "analysis.rate_certificate", None),
    ("entmd", "bias_report", "analysis.bias_report", None),
    ("entmd", "l1_minimal_solution", "analysis.l1_minimal_solution", None),
    ("entmd", "instability_construction", "analysis.instability_construction", None),
    ("entmd", "instability_escape_distance", "analysis.instability_escape_distance", None),
    ("entmd.analysis", "solve", "solvers.solve", _solve_attrs),
    ("entmd.analysis", "bregman_projection", "analysis.bregman_projection", None),
    ("entmd.analysis", "orthogonality_residual", "analysis.orthogonality_residual", None),
    ("entmd.analysis", "l1_minimal_solution", "analysis.l1_minimal_solution", None),
    ("entmd.analysis", "smallest_positive_eigenvalue", "linalg.smallest_positive_eigenvalue", None),
    ("entmd.analysis", "lambda_max_scaled_gram", "linalg.lambda_max_scaled_gram", None),
    ("entmd.analysis", "kernel_projector", "linalg.kernel_projector", None),
]

# Families of per-layer metrics keyed by kind and shape; a listed name of a
# family the pass did not run reads 0.
SHAPE_FAMILIES = {
    "solvers.us_per_iter.": "solvers.solve",
    "solvers.overhead_x.": "solvers.solve",
    "floor.matvec_pair_us.": None,
}


class Tracer:
    """Collects nested spans for the wrapped callables of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span[ATTRS] = attrs(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the wrapped signature changed; the span keeps its time
            return out

        return traced

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Install the tracer's wrappers; yield the set of span names installed."""
    saved = []
    installed = set()
    try:
        for module_name, attr, span, attrs in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, tracer.wrap(span, fn, attrs))
            saved.append((module, attr, fn))
            installed.add(span)
        yield installed
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds ``s`` and self seconds ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because one thread records them.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        row = out[span[NAME]]
        dur = span[END] - span[START]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[i]
    return dict(out)


def _parent_name(spans, span):
    return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None


def layer_metrics(spans: list[list], installed: set[str], floors_us: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (plus its set-up spans).

    Only metrics whose spans were installed appear; ``floors_us`` maps a
    shape ``"<m>x<n>"`` to the bare matvec-pair time in microseconds.
    """
    agg = aggregate(spans)

    def tot(name, key):
        return agg.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    for shape, us in floors_us.items():
        m[f"floor.matvec_pair_us.{shape}"] = us
    if "cli.main" in installed:
        m["cli.main.self_s"] = tot("cli.main", "self_s")
    if "cli.load_instance" in installed:
        m["cli.load_instance.s"] = tot("cli.load_instance", "s")
    for span in ("experiments.gen_instance", "linalg.random_orthogonal", "experiments.grid_search_constant",
                 "solvers.backtracking_stepsize", "analysis.bregman_projection", "analysis.orthogonality_residual",
                 "analysis.l1_minimal_solution", "analysis.instability_escape_distance",
                 "linalg.smallest_positive_eigenvalue", "linalg.lambda_max_scaled_gram", "linalg.kernel_projector"):
        if span in installed:
            m[f"{span}.s"] = tot(span, "s")
    for span in ("experiments.run_experiment1", "experiments.run_experiment2"):
        if span in installed:
            m[f"{span}.self_s"] = tot(span, "self_s")
    if "solvers.backtracking_stepsize" in installed:
        m["solvers.backtracking_stepsize.calls"] = tot("solvers.backtracking_stepsize", "calls")
    if "bregman.dh_core" in installed:
        m["bregman.dh_core.calls"] = tot("bregman.dh_core", "calls")
        m["bregman.dh_core.s"] = tot("bregman.dh_core", "s")
    if any(name.startswith("analysis.") for name in installed):
        m["analysis.self_s"] = sum(row["self_s"] for name, row in agg.items() if name.startswith("analysis."))

    if {"solvers.backtracking_stepsize", "solvers.md_step"} <= installed:
        accepted = sum(1 for s in spans if s[NAME] == "solvers.backtracking_stepsize" and s[OK])
        trials = sum(1 for s in spans
                     if s[NAME] == "solvers.md_step" and _parent_name(spans, s) == "solvers.backtracking_stepsize")
        m["solvers.backtracking.accept_ratio"] = accepted / trials if trials else 0.0

    if "solvers.solve" not in installed:
        return m
    solves = [s for s in spans if s[NAME] == "solvers.solve"]
    m["solvers.solve.calls"] = len(solves)
    m["solvers.solve.self_s"] = tot("solvers.solve", "self_s")
    if any(s[ATTRS] is None for s in solves):
        return m  # solve's signature changed: iteration counts are unknown
    m["solvers.solve.iters"] = sum(s[ATTRS]["iters"] for s in solves)
    if "experiments.grid_search_constant" in installed:
        m["experiments.grid_search_constant.solves"] = sum(
            1 for s in solves if _parent_name(spans, s) == "experiments.grid_search_constant")
    if "experiments.run_experiment1" in installed:
        m["experiments.exp1_rerun.iters"] = sum(
            s[ATTRS]["iters"] for s in solves
            if s[ATTRS]["ref"] and _parent_name(spans, s) == "experiments.run_experiment1")
    if "analysis.bregman_projection" in installed:
        m["analysis.bregman_projection.iters"] = sum(
            s[ATTRS]["iters"] for s in solves if _parent_name(spans, s) == "analysis.bregman_projection")

    per_kind: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for s in solves:
        a = s[ATTRS]
        key = a["kind"] + ("-ref" if a["ref"] else "") + "." + a["shape"]
        per_kind[key][0] += s[END] - s[START]
        per_kind[key][1] += a["iters"]
    for key, (secs, iters) in per_kind.items():
        if iters == 0:
            continue
        us = 1e6 * secs / iters
        m[f"solvers.us_per_iter.{key}"] = us
        kind, shape = key.split(".", 1)
        if kind in ("md_polyak", "md_polyak-ref") and floors_us.get(shape):
            m[f"solvers.overhead_x.{key}"] = us / floors_us[shape]
    return m


def select(metrics: dict[str, float], names: list[str], installed: set[str]) -> dict[str, float]:
    """The listed metrics this run can report.

    A listed kind/shape metric the workload never ran reads 0; a metric
    whose span could not be installed is left out.
    """
    out = {}
    for name in names:
        if name in metrics:
            out[name] = metrics[name]
            continue
        for prefix, needs in SHAPE_FAMILIES.items():
            if name.startswith(prefix) and (needs is None or needs in installed):
                out[name] = 0.0
    return out
