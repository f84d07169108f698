"""In-memory spans and work counts for a traced run of the benchmark.

The tracer replaces a whml function by a timing wrapper at the place where
the calling module looks the name up (``whml.contour.c1p_inf``,
``whml.classify.min_modulus``, ...), so the program itself is unchanged.
Each call becomes a span (id, parent id, name, start, end); a span's self
time is its duration minus the time covered by its child spans.  Self time
and call counts are kept for every span; the span records themselves are
kept up to MAX_SPANS and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

MAX_SPANS = 100_000

# (module where the name is looked up, attribute, span name)
SITES = (
    ("whml.symbols", "complex_beta", "specfun.complex_beta"),
    ("whml.transcend", "complex_beta", "specfun.complex_beta"),
    ("whml.kernel", "bessel_k", "specfun.bessel_k"),
    ("whml.quadrature", "quad", "quadrature.quad"),
    ("whml.verify", "quad", "quadrature.quad"),
    ("whml.halfline", "kernel_m", "kernel.kernel_m"),
    ("whml.verify", "kernel_m", "kernel.kernel_m"),
    ("whml.halfline", "potential_on_grid", "kernel.potential_on_grid"),
    ("whml.halfline", "rl_integral", "halfline.rl_integral"),
    ("whml.halfline", "apply_singular", "halfline.apply_singular"),
    ("whml.halfline", "apply_fourier", "halfline.apply_fourier"),
    ("whml.halfline", "quadratic_form", "halfline.quadratic_form"),
    ("whml.halfline", "caputo_derivative", "halfline.caputo_derivative"),
    ("whml.halfline", "mellin_difference_residual", "halfline.mellin_difference_residual"),
    ("whml.verify", "rl_integral", "halfline.rl_integral"),
    ("whml.verify", "apply_singular", "halfline.apply_singular"),
    ("whml.verify", "apply_fourier", "halfline.apply_fourier"),
    ("whml.verify", "quadratic_form", "halfline.quadratic_form"),
    ("whml.contour", "c1p_inf", "symbols.c1p_inf"),
    ("whml.contour", "c2p_inf", "symbols.c2p_inf"),
    ("whml.contour", "gamma1_mellin_term", "symbols.gamma1_mellin_term"),
    ("whml.contour", "wh_c1", "symbols.wh_c1"),
    ("whml.verify", "c1p_inf", "symbols.c1p_inf"),
    ("whml.verify", "c2p_inf", "symbols.c2p_inf"),
    ("whml.verify", "wh_c1", "symbols.wh_c1"),
    ("whml.contour", "eval_segment", "contour.eval_segment"),
    ("whml.classify", "build_loop", "contour.build_loop"),
    ("whml.cli", "build_loop", "contour.build_loop"),
    ("whml.contour", "build_validation_loop", "contour.build_validation_loop"),
    ("whml.classify", "min_modulus", "contour.min_modulus"),
    ("whml.contour", "min_modulus", "contour.min_modulus"),
    ("whml.cli", "min_modulus", "contour.min_modulus"),
    ("whml.classify", "winding_number", "contour.winding_number"),
    ("whml.contour", "winding_number", "contour.winding_number"),
    ("whml.cli", "winding_number", "contour.winding_number"),
    ("whml.classify", "compute_alpha_c", "transcend.alpha_c"),
    ("whml.transcend", "alpha_c", "transcend.alpha_c"),
    ("whml.cli", "alpha_c", "transcend.alpha_c"),
    ("whml.verify", "alpha_c", "transcend.alpha_c"),
    ("whml.transcend", "te_residual_zero", "transcend.te_residual_zero"),
    ("whml.verify", "te_residual_zero", "transcend.te_residual_zero"),
    ("whml.transcend", "inequality_scan", "transcend.inequality_scan"),
    ("whml.verify", "inequality_scan", "transcend.inequality_scan"),
    ("whml.transcend", "no_solution_certificate", "transcend.no_solution_certificate"),
    ("whml.verify", "no_solution_certificate", "transcend.no_solution_certificate"),
    ("whml.classify", "classify", "classify.classify"),
    ("whml.cli", "classify", "classify.classify"),
)

SUITE_NAMES = ("kernel", "operator", "symbols", "transcend")
CLI_COMMANDS = ("classify", "alphac", "index", "contour", "verify")
SCAN_SPANS = ("transcend.inequality_scan", "transcend.no_solution_certificate")
SYMBOL_SPANS = ("symbols.c1p_inf", "symbols.c2p_inf", "symbols.gamma1_mellin_term",
                "symbols.wh_c1")


class Tracer:
    """Span recorder; one open-span stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, on_result=None):
        """fn timed as span `name`; on_result(tracer, parent_name, args,
        kwargs, result) records work counts after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += duration - frame[2]
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (frame[0], parent[0] if parent else None, name, start, end))
                    else:
                        tracer.dropped += 1
            if on_result is not None:
                on_result(tracer, parent[1] if parent else None, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped}, fh)


def _size(x) -> int:
    """Number of points in a numpy array or a Python scalar."""
    return int(getattr(x, "size", 1))


def _beta_points(tracer, parent, args, kwargs, result):
    n = _size(result)
    tracer.count("specfun.complex_beta.points", n)
    if parent in SCAN_SPANS:
        tracer.count("transcend.scan_cells", n)


def _spline_points(tracer, parent, args, kwargs, result):
    tracer.count("gridfn.spline.points", _size(args[-1]))


def _loop_points(fn):
    signature = inspect.signature(fn)

    def record(tracer, parent, args, kwargs, loop):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["n_base"]
        tracer.count("contour.loop_points", len(loop.points))
        # points beyond the initial uniform samples: n on each of the three
        # curved segments, max(2, n // 8) on each of the three others
        tracer.count("contour.refine_inserts", len(loop.points) - 3 * n - 3 * max(2, n // 8))

    return record


def _counting_quad(tracer, quad):
    """quad whose integrand counts its evaluations."""

    def counted_quad(f, *args, **kwargs):
        evals = [0]

        def integrand(*x):
            evals[0] += 1
            return f(*x)

        try:
            return quad(integrand, *args, **kwargs)
        finally:
            tracer.count("quadrature.quad.integrand_evals", evals[0])

    return counted_quad


def install(tracer: Tracer):
    """Wrap every site; returns a function that restores the originals."""
    for module in ("whml.cli", "whml.verify"):
        importlib.import_module(module)
    restore = []

    def patch(owner, attr, replacement):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for module_name, attr, name in SITES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        hook = None
        if name == "specfun.complex_beta":
            hook = _beta_points
        elif name in ("contour.build_loop", "contour.build_validation_loop"):
            hook = _loop_points(fn)
        elif name == "quadrature.quad":
            fn = _counting_quad(tracer, fn)
        patch(module, attr, tracer.wrap(name, fn, hook))

    grid = importlib.import_module("whml.gridfn").GridFunction
    call, derivative = grid.__call__, grid.derivative
    patch(grid, "__call__", tracer.wrap("gridfn.spline", call, _spline_points))

    def traced_derivative(self, order=1):
        return tracer.wrap("gridfn.spline", derivative(self, order), _spline_points)

    patch(grid, "derivative", traced_derivative)

    suites = importlib.import_module("whml.verify").SUITES
    originals = dict(suites)
    for name, fn in originals.items():
        suites[name] = tracer.wrap(f"verify.suite.{name}", fn)

    def undo():
        suites.update(originals)
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return undo


def layer_metrics(tracer: Tracer, rounds: int, cli_times: dict, overhead_pct: float) -> dict:
    """Per-layer figures per traced round (CLI times per call), as
    {name: {"value": ..., "unit": ...}}."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}

    def per_round(name, unit, value):
        out[name] = {"value": value / rounds, "unit": unit}

    for fn in ("complex_beta", "bessel_k"):
        per_round(f"specfun.{fn}.calls", "count", calls[f"specfun.{fn}"])
        per_round(f"specfun.{fn}.self_s", "s", self_s[f"specfun.{fn}"])
    per_round("specfun.complex_beta.points", "count", counts["specfun.complex_beta.points"])
    per_round("quadrature.quad.calls", "count", calls["quadrature.quad"])
    per_round("quadrature.quad.integrand_evals", "count",
              counts["quadrature.quad.integrand_evals"])
    per_round("quadrature.quad.self_s", "s", self_s["quadrature.quad"])
    per_round("gridfn.spline.calls", "count", calls["gridfn.spline"])
    per_round("gridfn.spline.points", "count", counts["gridfn.spline.points"])
    per_round("gridfn.spline.self_s", "s", self_s["gridfn.spline"])
    per_round("kernel.kernel_m.calls", "count", calls["kernel.kernel_m"])
    per_round("kernel.kernel_m.self_s", "s", self_s["kernel.kernel_m"])
    per_round("kernel.potential_on_grid.self_s", "s", self_s["kernel.potential_on_grid"])
    for fn in ("rl_integral", "apply_singular", "apply_fourier", "quadratic_form",
               "caputo_derivative", "mellin_difference_residual"):
        per_round(f"halfline.{fn}.self_s", "s", self_s[f"halfline.{fn}"])
    per_round("symbols.point_evals", "count", sum(calls[n] for n in SYMBOL_SPANS))
    per_round("symbols.self_s", "s", sum(self_s[n] for n in SYMBOL_SPANS))
    per_round("contour.loop_points", "count", counts["contour.loop_points"])
    per_round("contour.refine_inserts", "count", counts["contour.refine_inserts"])
    per_round("contour.eval_segment.calls", "count", calls["contour.eval_segment"])
    per_round("contour.build_loop.self_s", "s", self_s["contour.build_loop"])
    per_round("contour.min_modulus.calls", "count", calls["contour.min_modulus"])
    per_round("contour.min_modulus.self_s", "s", self_s["contour.min_modulus"])
    per_round("contour.winding_number.self_s", "s", self_s["contour.winding_number"])
    per_round("transcend.alpha_c.calls", "count", calls["transcend.alpha_c"])
    per_round("transcend.te_residual_zero.calls", "count", calls["transcend.te_residual_zero"])
    per_round("transcend.alpha_c.self_s", "s", self_s["transcend.alpha_c"])
    per_round("transcend.inequality_scan.self_s", "s", self_s["transcend.inequality_scan"])
    per_round("transcend.no_solution_certificate.self_s", "s",
              self_s["transcend.no_solution_certificate"])
    per_round("transcend.scan_cells", "count", counts["transcend.scan_cells"])
    per_round("classify.classify.self_s", "s", self_s["classify.classify"])
    for suite in SUITE_NAMES:
        per_round(f"verify.suite.{suite}.self_s", "s", self_s[f"verify.suite.{suite}"])
    out["cli.import_s"] = {"value": cli_times.get("import", 0.0), "unit": "s"}
    for cmd in CLI_COMMANDS:
        out[f"cli.call_s.{cmd}"] = {"value": cli_times.get(cmd, 0.0), "unit": "s"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out
