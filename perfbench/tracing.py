"""Spans around the calls into each magcal layer, recorded from outside the library.

A layer is one ``magcal`` module. While installed, the tracer replaces every
public function of a traced module at each name its callers look it up by:
the module attribute (``fileio.read_samples_csv``, ``nm.nm_gradient_hessian``)
and every ``from .x import f`` binding in another magcal module
(``magcal.cli.solve_ml``, ``magcal.experiments.simulate``). ``linalg``,
``types`` and ``errors`` hold small helpers called per sample and are not
traced. Uninstalling restores the original bindings.

Spans stay in memory as ``[name, start, end, parent, info]`` lists (parent is
an index into the same list, -1 for a root) and are written when the
benchmark ends. A span's self time is its duration minus the time covered by
its children; calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "experiments", "fileio", "initfit", "metrics", "ml", "nm", "simulate")

FILE_READS = ("fileio.read_samples_csv",)
FILE_WRITES = (
    "fileio.write_samples_csv",
    "fileio.write_calibrated_csv",
    "fileio.write_monte_carlo_csv",
    "fileio.write_sensitivity_csv",
    "fileio.write_timing_csv",
)
JSON_IO = ("fileio.read_json", "fileio.write_json")


def is_exact(name: str) -> bool:
    """Whether a per-layer metric is fixed by the op's inputs: a count or a solver outcome ratio."""
    return name.endswith(("calls", "solves", "iterations", "converged_ratio", "failed_ratio"))


def _solve_info(result, exc) -> dict:
    if exc is None:
        return {"iterations": result.iterations, "converged": result.converged, "failed": False}
    report = getattr(exc, "report", None)
    iterations = report.iterations if report is not None else 0
    return {"iterations": iterations, "converged": False, "failed": True}


def _path_bytes(args) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# name -> function(args, result, exc) giving the span's info dict.
_INFO = {
    "nm.solve_nm": lambda args, result, exc: _solve_info(result, exc),
    "ml.solve_ml": lambda args, result, exc: _solve_info(result, exc),
    "simulate.simulate": lambda args, result, exc: {"samples": 0 if exc else result.n_samples},
    **{name: lambda args, result, exc: _path_bytes(args) for name in FILE_READS + FILE_WRITES},
}


class Tracer:
    """Installs span-recording wrappers over the magcal layers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._bindings: list = []  # (namespace dict, key, original, wrapper)
        modules = [importlib.import_module(f"magcal.{name}") for name in LAYERS]
        namespaces = [vars(sys.modules["magcal"])] + [
            vars(m) for m in sys.modules.values()
            if getattr(m, "__name__", "").startswith("magcal.")
        ]
        for module in modules:
            layer = module.__name__.split(".", 1)[1]
            for attr, func in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for ns in namespaces:
                    for key, value in ns.items():
                        if value is func:
                            self._bindings.append((ns, key, func, wrapper))

    def _wrap(self, name, func):
        info_of = _INFO.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if info_of is not None:
                    span[4] = info_of(args, None, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if info_of is not None:
                span[4] = info_of(args, result, None)
            return result

        return wrapper

    def install(self) -> None:
        for ns, key, _, wrapper in self._bindings:
            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, func, _ in self._bindings:
            ns[key] = func

    def begin_op(self, label) -> int:
        """Open the root span of one op; returns its index."""
        index = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, {"seed": label}])
        self._stack.append(index)
        return index

    def end_op(self, index) -> range:
        """Close the root span; returns the indices of the op's spans."""
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        return range(index + 1, len(self.spans))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


def op_layer_metrics(spans: list, block: range) -> dict:
    """Per-layer metrics of one op from its spans ``spans[i] for i in block``.

    These are the ``per_layer`` metrics of BENCHMARK.json, less
    ``trace.overhead_ratio``, which compares whole ops. A layer that the op
    does not use reads 0.
    """
    child_time = {}
    for i in block:
        name, start, stop, parent, _ = spans[i]
        child_time[parent] = child_time.get(parent, 0.0) + (stop - start)

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(names):
        return sum(dur(i) for i in block if spans[i][0] in names)

    def outer_time(lay):
        # Inclusive time of the layer, counting nested same-layer calls once.
        return sum(dur(i) for i in block if layer(i) == lay and layer(spans[i][3]) != lay)

    def self_time(lay):
        return sum(dur(i) - child_time.get(i, 0.0) for i in block if layer(i) == lay)

    def calls(lay):
        return sum(1 for i in block if layer(i) == lay)

    def count(name):
        return sum(1 for i in block if spans[i][0] == name)

    def info_sum(names, key):
        return sum(spans[i][4][key] for i in block if spans[i][0] in names)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    out = {}
    read_s, write_s = total(FILE_READS), total(FILE_WRITES)
    out["fileio.read_s"] = read_s
    out["fileio.read_mb_per_s"] = rate(info_sum(FILE_READS, "bytes") / 1e6, read_s)
    out["fileio.write_s"] = write_s
    out["fileio.write_mb_per_s"] = rate(info_sum(FILE_WRITES, "bytes") / 1e6, write_s)
    out["fileio.json_s"] = total(JSON_IO)
    out["fileio.calls"] = calls("fileio")
    for lay, solver in (("ml", "ml.solve_ml"), ("nm", "nm.solve_nm")):
        solves = count(solver)
        solve_s = total((solver,))
        iterations = info_sum((solver,), "iterations")
        out[f"{lay}.solve_s"] = solve_s
        out[f"{lay}.solves"] = solves
        out[f"{lay}.iterations"] = iterations
        # Solve time / iterations. A solve assembles its system once more than
        # it iterates (the exit check), and that assembly is included.
        out[f"{lay}.s_per_iter"] = rate(solve_s, iterations)
        out[f"{lay}.converged_ratio"] = rate(info_sum((solver,), "converged"), solves)
        out[f"{lay}.failed_ratio"] = rate(info_sum((solver,), "failed"), solves)
    out["nm.grad_hess_s"] = total(("nm.nm_gradient_hessian",))
    out["nm.grad_hess_calls"] = count("nm.nm_gradient_hessian")
    simulate_s = outer_time("simulate")
    out["simulate.s"] = simulate_s
    out["simulate.samples_per_s"] = rate(info_sum(("simulate.simulate",), "samples"), simulate_s)
    out["simulate.calls"] = calls("simulate")
    out["initfit.s"] = outer_time("initfit")
    out["initfit.calls"] = calls("initfit")
    out["metrics.s"] = outer_time("metrics")
    out["experiments.self_s"] = self_time("experiments")
    out["cli.self_s"] = self_time("cli")
    return out


def summarize(per_op: list, overhead_ratio: float, counted: int) -> dict:
    """Median of each per-layer metric over the traced ops.

    The exact metrics take the median over the first ``counted`` ops only, so
    that they do not depend on how many ops the run had time for.
    """
    out = {name: statistics.median(op[name] for op in
                                   (per_op[:counted] if is_exact(name) else per_op))
           for name in per_op[0]}
    out["trace.overhead_ratio"] = overhead_ratio
    return out
