"""In-memory span tracing of the simplexstab public functions, from outside.

The tracer replaces every public function of the package at every module
binding that callers use: ``from .geometry import gauge_many`` copies the
name into ``functionals``, ``stability``, ``brascamp_lieb`` and
``ellipsoids``, so each copy is swapped for the same wrapper, and the
original objects are put back on ``uninstall``.  Library code is not
edited.  Each span records its name, start, end, parent span and whether
it raised; a few spans also carry counts read from their arguments or
results (rows x facets of a gauge evaluation, samples, subsets).

Self time of a span is its duration minus the time its direct child spans
cover.  Calls run on one thread in this benchmark (workers = 1), so child
spans never overlap and the covered time is the sum of their durations.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import threading
import time

# (metric name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("geometry.self_s", "s", "lower"),
    ("geometry.point_polytope_distance.calls", "count", "lower"),
    ("geometry.point_polytope_distance.self_s", "s", "lower"),
    ("geometry.hausdorff_distance.calls", "count", "lower"),
    ("geometry.hausdorff_distance.self_s", "s", "lower"),
    ("geometry.gauge_many.calls", "count", "lower"),
    ("geometry.gauge_many.self_s", "s", "lower"),
    ("geometry.gauge_many.evals", "count", "lower"),
    ("geometry.symdiff_volume.self_s", "s", "lower"),
    ("geometry.vertex_enumeration.calls", "count", "lower"),
    ("geometry.vertex_enumeration.self_s", "s", "lower"),
    ("geometry.vertex_enumeration.errors", "count", "lower"),
    ("geometry.polar.self_s", "s", "lower"),
    ("functionals.self_s", "s", "lower"),
    ("functionals.ell_norm.self_s", "s", "lower"),
    ("functionals.ell_norm.samples", "count", "lower"),
    ("functionals.simplex_ell_oracle.calls", "count", "lower"),
    ("functionals.simplex_ell_oracle.self_s", "s", "lower"),
    ("ellipsoids.self_s", "s", "lower"),
    ("ellipsoids.mvee.calls", "count", "lower"),
    ("ellipsoids.mvee.self_s", "s", "lower"),
    ("ellipsoids.mvee.points", "count", "lower"),
    ("ellipsoids.john_contact_measure.self_s", "s", "lower"),
    ("ellipsoids.errors", "count", "lower"),
    ("isotropic.self_s", "s", "lower"),
    ("isotropic.reduce_support.calls", "count", "lower"),
    ("isotropic.reduce_support.self_s", "s", "lower"),
    ("isotropic.ball_barthe_check.calls", "count", "lower"),
    ("isotropic.ball_barthe_check.self_s", "s", "lower"),
    ("isotropic.ball_barthe_check.subsets", "count", "lower"),
    ("isotropic.ball_barthe_check.exact_frac", "ratio", "higher"),
    ("transport.self_s", "s", "lower"),
    ("transport.derivative_box_margins.self_s", "s", "lower"),
    ("transport.gtilde_integral.calls", "count", "lower"),
    ("brascamp_lieb.self_s", "s", "lower"),
    ("brascamp_lieb.rbl_lhs.calls", "count", "lower"),
    ("brascamp_lieb.rbl_lhs.self_s", "s", "lower"),
    ("brascamp_lieb.rbl_lhs.samples", "count", "lower"),
    ("brascamp_lieb.bl_lhs.self_s", "s", "lower"),
    ("brascamp_lieb.simplex_identity_check.self_s", "s", "lower"),
    ("stability.self_s", "s", "lower"),
    ("stability.fit_exponent.self_s", "s", "lower"),
    ("stability.align_to_simplex.calls", "count", "lower"),
    ("stability.align_to_simplex.self_s", "s", "lower"),
    ("stability.measure_deficit.self_s", "s", "lower"),
    ("stability.fit_rows_used_frac", "ratio", "higher"),
    ("stability.extremality_check.self_s", "s", "lower"),
    ("stability.align_points_to_simplex_vertices.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("rng.make_rng.calls", "count", "lower"),
    ("bench.cpu_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gauge_evals(args, kwargs, result):
    body = _arg(args, kwargs, 0, "K")
    rows = len(result)
    facets = body.halfspaces[0].shape[0] if getattr(body, "has_halfspaces", False) else 1
    return {"evals": rows * facets}


def _fit_rows(args, kwargs, report):
    use_vol = report.distance_used == "delta_vol"
    used = sum(1 for r in report.rows
               if r.eps_measured > 3.0 * r.eps_stderr
               and (r.delta_vol if use_vol else r.delta_H) > 0)
    return {"rows": len(report.rows), "rows_used": used}


# counts attached to a span, read after the call from its arguments or result
SPAN_COUNTS = {
    "geometry.gauge_many": _gauge_evals,
    "functionals.ell_norm": lambda a, k, r: {"samples": r.samples},
    "brascamp_lieb.rbl_lhs": lambda a, k, r: {"samples": r.samples},
    "ellipsoids.mvee": lambda a, k, r: {"points": len(_arg(a, k, 0, "points"))},
    "isotropic.ball_barthe_check": lambda a, k, r: {"subsets": r.subset_count,
                                                    "exact": int(r.exact)},
    "stability.fit_exponent": _fit_rows,
}


class Tracer:
    """Records spans while installed; ``spans`` holds
    (name, start, end, parent index, raised, counts) tuples."""

    def __init__(self, package: str = "simplexstab"):
        self.package = package
        self.spans: list = []
        self._local = threading.local()
        self._patched: list = []        # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name):
        spans, count, stack_of = self.spans, SPAN_COUNTS.get(name), self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, kwargs, result) if count and not raised else None
                spans[index] = (name, start, end, parent, raised, counts)
        return traced

    def install(self) -> None:
        """Wrap every public package function at every module binding."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == self.package
                                         or key.startswith(self.package + "."))]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(self.package + ".")):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list:
    """Self time of each span: duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (``bench.*`` entries excluded)."""
    own = self_times(spans)
    calls, self_s, errors, counts = {}, {}, {}, {}
    for (name, _, _, parent, raised, extra), t in zip(spans, own):
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        self_s[layer] = self_s.get(layer, 0.0) + t
        if raised:
            errors[name] = errors.get(name, 0) + 1
            # a layer counts the raises that leave it, once each
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                errors[layer] = errors.get(layer, 0) + 1
        for key, value in (extra or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.startswith("bench."):
            continue
        if metric == "stability.fit_rows_used_frac":
            rows = counts.get(("stability.fit_exponent", "rows"), 0)
            used = counts.get(("stability.fit_exponent", "rows_used"), 0)
            out[metric] = used / rows if rows else 0.0
            continue
        if metric == "isotropic.ball_barthe_check.exact_frac":
            n_calls = calls.get("isotropic.ball_barthe_check", 0)
            exact = counts.get(("isotropic.ball_barthe_check", "exact"), 0)
            out[metric] = exact / n_calls if n_calls else 0.0
            continue
        name, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif field == "calls":
            out[metric] = calls.get(name, 0)
        elif field == "errors":
            out[metric] = errors.get(name, 0)
        else:
            out[metric] = counts.get((name, field), 0)
    return out


def median_metrics(rounds: list) -> dict:
    """Per-metric median over the traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def dump_spans(rounds, path: str) -> None:
    """Write the spans of each traced round as JSON rows
    [name, start, end, parent, raised, counts], one list per round."""
    with open(path, "w") as handle:
        json.dump([[list(s) for s in spans] for spans in rounds], handle,
                  separators=(",", ":"))
