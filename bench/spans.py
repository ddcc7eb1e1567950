"""In-memory spans around orthofit's public functions, and the layer metrics
computed from them.

The tracer wraps each function at every module attribute that holds it, so
calls made through `orthofit.fit.accumulate_scatter`, `orthofit.cli.center`
and so on are all recorded. The library itself is not changed. A span holds
its name, start, end, parent span, op id, how it ended and a few counters
that a hook reads from the call's arguments and result after the span has
ended. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MODULES = (
    "orthofit",
    "orthofit.geometry",
    "orthofit.scatter",
    "orthofit.solver",
    "orthofit.fit",
    "orthofit.oracle",
    "orthofit.cli",
)
LAYERS = ("geometry", "scatter", "solver", "fit", "oracle", "cli")


def _scatter_bytes(args, kwargs, result):
    pts = (args[0] if args else kwargs["centered"]).points
    return {"bytes": pts.shape[0] * pts.shape[1] * 8}


def _grid_pairs(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return {"pairs": result.evaluated * len(points)}


def _parsed_bytes(args, kwargs, result):
    source = args[0] if args else kwargs["lines"]
    name = getattr(source, "name", None)
    return {"bytes": os.path.getsize(name) if isinstance(name, str) else 0}


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module, attribute path."""

    span: str
    module: str
    attr: str
    counters: object = None
    trace_alloc: bool = False


TARGETS = (
    Target("geometry.center", "orthofit.geometry", "center"),
    Target("geometry.line_distances_sq", "orthofit.geometry", "line_distances_sq"),
    Target("geometry.PointSet", "orthofit.geometry", "PointSet.__post_init__"),
    Target("scatter.accumulate_scatter", "orthofit.scatter", "accumulate_scatter", _scatter_bytes),
    Target("solver.dominant_eigenpair", "orthofit.solver", "dominant_eigenpair"),
    Target("solver.finite_diff_gradient", "orthofit.solver", "finite_diff_gradient"),
    Target("solver.stationarity_forms", "orthofit.solver", "stationarity_forms"),
    Target("solver.quadratic_objective", "orthofit.solver", "quadratic_objective"),
    Target("fit.fit_tls_line", "orthofit.fit", "fit_tls_line"),
    Target("fit.fit_lse_explicit", "orthofit.fit", "fit_lse_explicit"),
    Target("fit.total_orthogonal_distance", "orthofit.fit", "total_orthogonal_distance"),
    Target("fit.vertical_residual_sq", "orthofit.fit", "vertical_residual_sq"),
    Target(
        "oracle.grid_search_direction",
        "orthofit.oracle",
        "grid_search_direction",
        _grid_pairs,
        trace_alloc=True,
    ),
    Target("oracle.cubic_eigenvalues", "orthofit.oracle", "cubic_eigenvalues"),
    Target("cli.parse_points_text", "orthofit.cli", "parse_points_text", _parsed_bytes),
    Target("cli.main", "orthofit.cli", "main"),
)

# The three objective diagnostics `check` runs are reported as one group.
DIAGNOSTICS = (
    "solver.finite_diff_gradient",
    "solver.stationarity_forms",
    "solver.quadratic_objective",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    error: str = ""  # "", "typed" or "untyped"
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; one tracer per traced run.

    Args:
        typed_error: exception class whose instances count as typed errors
            (orthofit's OrthofitError); any other exception is untyped.
        clock: monotonic clock in seconds.
    """

    def __init__(self, typed_error: type = Exception, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op = -1
        self.absent: list[str] = []
        self._typed = typed_error
        self._clock = clock
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters=None, trace_alloc: bool = False):
        """Return fn wrapped so each call records one span called name."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, op=self.op)
            spans.append(span)
            stack.append(index)
            if trace_alloc:
                tracemalloc.start()
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except self._typed:
                span.error = "typed"
                raise
            except Exception:
                span.error = "untyped"
                raise
            finally:
                span.end = clock()
                stack.pop()
                if trace_alloc:
                    span.counters["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if counters is not None and not span.error:
                    span.counters.update(counters(args, kwargs, result))

        return traced

    def install(self, targets=TARGETS, modules=MODULES) -> None:
        """Replace every module attribute that holds a target function.

        A target the library no longer defines is listed in self.absent and
        reported with zero calls.
        """
        loaded = [importlib.import_module(m) for m in modules]
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(target.span)
                continue
            wrapped = self.wrap(target.span, fn, target.counters, target.trace_alloc)
            if path:
                self._patch(owner, attr, wrapped)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def records(self) -> list[dict]:
        """Spans as plain dicts, ready to be written out as JSON."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "error": s.error,
                **s.counters,
            }
            for s in self.spans
        ]


_UNITS = {
    "self_s": "s",
    "calls": "count",
    "ms_per_call": "ms",
    "gb_per_s": "GB/s",
    "mpairs_per_s": "Mpairs/s",
    "peak_alloc_mb": "MB",
    "mb_per_s": "MB/s",
    "typed_errors": "count",
    "untyped_errors": "count",
    "overhead_frac": "frac",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return _UNITS[metric.rsplit(".", 1)[1]]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[Span], targets=TARGETS) -> dict[str, float]:
    """Per-layer sums over the given spans, keyed by per-layer metric name.

    Every metric is present; a layer that did not run reports zeros.
    """
    self_s = {t.span: 0.0 for t in targets}
    calls = {t.span: 0 for t in targets}
    counters: dict[str, dict[str, float]] = {t.span: {} for t in targets}
    errors = {(layer, kind): 0 for layer in LAYERS for kind in ("typed", "untyped")}
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        if span.error:
            errors[(span.name.split(".")[0], span.error)] += 1
        for key, value in span.counters.items():
            acc = counters[span.name]
            acc[key] = max(acc.get(key, 0), value) if key == "peak_alloc" else acc.get(key, 0) + value

    m: dict[str, float] = {}
    for name in self_s:
        if name not in DIAGNOSTICS:
            m[f"{name}.self_s"] = self_s[name]
            m[f"{name}.calls"] = calls[name]
    m["solver.diagnostics.self_s"] = sum(self_s[n] for n in DIAGNOSTICS)
    m["solver.diagnostics.calls"] = sum(calls[n] for n in DIAGNOSTICS)
    m["solver.dominant_eigenpair.ms_per_call"] = 1e3 * _rate(
        self_s["solver.dominant_eigenpair"], calls["solver.dominant_eigenpair"]
    )
    scatter = "scatter.accumulate_scatter"
    m[f"{scatter}.gb_per_s"] = _rate(counters[scatter].get("bytes", 0) / 1e9, self_s[scatter])
    grid = "oracle.grid_search_direction"
    m[f"{grid}.mpairs_per_s"] = _rate(counters[grid].get("pairs", 0) / 1e6, self_s[grid])
    m[f"{grid}.peak_alloc_mb"] = counters[grid].get("peak_alloc", 0) / 1e6
    parse = "cli.parse_points_text"
    m[f"{parse}.mb_per_s"] = _rate(counters[parse].get("bytes", 0) / 1e6, self_s[parse])
    for (layer, kind), count in errors.items():
        m[f"{layer}.{kind}_errors"] = count
    return m
