"""Spans timed from outside the program.

The benchmark never edits ``src/``.  It times a layer by replacing each of
the layer's public functions with a wrapper that records a span, at every
place the package binds that function: ``harness``, ``cli``,
``decomposition`` and the package namespace all import names with
``from ... import``, so patching only the defining module would miss most
calls.  Factorizations are timed by handing ``fem`` a copy of
``scipy.sparse.linalg`` whose ``spilu``/``splu`` are wrapped, so only the
calls ``fem`` makes are seen.

A span is ``[name, start, end, parent, item, info]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``item`` the id of the item
(sweep point or mesh draw) being worked on, ``info`` a dict of counts read
off the call's result, or the exception type when the call raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass

TRACED_MODULES = ("meshing", "fem", "decomposition", "asymptotics", "harness", "cli")
TRACED_METHODS = (
    ("fem", "P2Space", "__init__"),
    ("fem", "P2Space", "stiffness"),
    ("fem", "DirichletSolver", "__init__"),
    ("fem", "DirichletSolver", "solve"),
)
FACTOR_FUNCTIONS = ("spilu", "splu")


def _lu_info(lu):
    return {"nnz": int(lu.nnz)}


def _solve_info(out):
    report = out[1]
    return {"iters": int(report.iterations), "residual": float(report.rel_residual)}


def _mesh_info(mesh):
    return {"cells": int(mesh.n_cells), "min_quality": float(mesh.grading_report.min_quality)}


OBSERVERS = {
    "fem.spilu": _lu_info,
    "fem.splu": _lu_info,
    "fem.DirichletSolver.solve": _solve_info,
    "meshing.build_mesh": _mesh_info,
}


def package_modules():
    """Every loaded neckstress module.  ``neckstress.cli`` is imported first:
    it imports all the others, and a module imported after a rebind would
    keep the replacement once the patch is undone."""
    importlib.import_module("neckstress.cli")
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "neckstress" or n.startswith("neckstress."))]


class Patch:
    """Rebinds objects across the neckstress package; ``undo`` restores them."""

    def __init__(self):
        self._undo = []

    def rebind(self, old, new):
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is old:
                    self.set(mod, name, new)

    def set(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._open = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if observe is not None:
                rec[5] = observe(out)
            return out

        return traced

    def install(self, patch: Patch):
        """Wrap every public function of the traced modules, the traced
        methods, and the factorizations as ``fem`` calls them."""
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"neckstress.{short}")
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{short}.{name}"
                    patch.rebind(fn, self.wrap(key, fn, OBSERVERS.get(key)))
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"neckstress.{short}"), cls_name)
            key = f"{short}.{cls_name}.{meth}"
            patch.set(cls, meth, self.wrap(key, cls.__dict__[meth], OBSERVERS.get(key)))
        fem = importlib.import_module("neckstress.fem")
        spla = fem.spla
        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(vars(spla))
        for name in FACTOR_FUNCTIONS:
            key = f"fem.{name}"
            setattr(proxy, name, self.wrap(key, getattr(spla, name), OBSERVERS[key]))
        patch.rebind(spla, proxy)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    best = float("inf")
    for _ in range(3):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics

@dataclass(frozen=True)
class Layer:
    """One row of the prediction table: per-layer metrics, the end-to-end
    metric they should move, the workloads they should move it on (their
    spans must fire there), and the workloads where no change is predicted."""

    metrics: tuple
    spans: tuple          # span names that must all fire on the ``on`` workloads
    moves: str
    on: tuple
    no_change_on: tuple


FACTOR_SPANS = ("fem.spilu", "fem.splu")
SOLVE_SPANS = ("fem.DirichletSolver.solve",)
MEASURE_SPANS = ("fem.max_gradient", "fem.boundary_traction_moment")

LAYERS = (
    Layer(("fem.factor_pct", "fem.factor_nnz"), ("fem.factor",),
          "job_s", ("point_fine", "sweep_m2"), ("mesh_scan",)),
    Layer(("fem.solve_pct", "fem.solves", "fem.solver_iters", "fem.residual_max"), SOLVE_SPANS,
          "job_s", ("sweep_m2", "point_fine"), ("mesh_scan",)),
    Layer(("fem.factorizations",), ("fem.factor",),
          "job_s", ("point_fine",), ("sweep_m2",)),
    Layer(("decomposition.gram_pct", "fem.energy_pct", "fem.energy_calls"),
          ("decomposition.assemble_system", "fem.energy_integral"),
          "job_s item_s.p50", ("sweep_m2", "point_fine"), ("mesh_scan",)),
    Layer(("fem.space_pct", "fem.stiffness_pct"), ("fem.P2Space.__init__", "fem.P2Space.stiffness"),
          "job_s", ("sweep_m2", "point_fine"), ("mesh_scan",)),
    Layer(("decomposition.cells_pct", "decomposition.coef_pct", "decomposition.sumcheck_pct",
           "fem.measure_pct"),
          ("decomposition.solve_cell_problems", "decomposition.solve_coefficients",
           "decomposition.sum_field_check") + MEASURE_SPANS,
          "item_s.p50", ("sweep_m2",), ("mesh_scan",)),
    Layer(("process.cpu_s", "process.cores_used"), (),
          "job_s down, peak_rss_mb up", ("sweep_m2",), ("point_fine",)),
    Layer(("meshing.build_pct", "meshing.validate_pct", "meshing.cells", "meshing.min_quality",
           "meshing.errors"),
          ("meshing.build_mesh", "meshing.validate_mesh"),
          "item_s.p50 cells_per_s", ("mesh_scan",), ("sweep_m2",)),
    Layer(("meshing.io_pct",), ("meshing.save_mesh", "meshing.load_mesh"),
          "item_s.p50 cells_per_s", ("mesh_scan",), ("sweep_m2", "point_fine")),
    Layer(("fem.export_pct", "cli.self_pct"), ("fem.export_field", "cli.main"),
          "job_s", ("point_fine",), ("sweep_m2",)),
    Layer(("asymptotics.compare_pct", "harness.point_self_pct", "harness.emit_pct"),
          ("harness.compare_oracles", "harness.run_point", "harness.run_sweep",
           "harness.write_csv", "harness.sweep_summary"),
          "job_s", ("sweep_m2",), ("mesh_scan",)),
    Layer(("trace.spans", "trace.overhead_s"), (), "", (), ()),
)

# Shares of job wall time, each the sum over spans of the listed names
# (total time, or self time where marked).  Nested same-name spans count once.
SHARES = {
    "fem.factor_pct": ("total", FACTOR_SPANS),
    "fem.solve_pct": ("self", SOLVE_SPANS),
    "fem.energy_pct": ("total", ("fem.energy_integral",)),
    "fem.space_pct": ("total", ("fem.P2Space.__init__",)),
    "fem.stiffness_pct": ("total", ("fem.P2Space.stiffness",)),
    "fem.measure_pct": ("total", MEASURE_SPANS),
    "fem.export_pct": ("total", ("fem.export_field",)),
    "decomposition.gram_pct": ("total", ("decomposition.assemble_system",)),
    "decomposition.cells_pct": ("total", ("decomposition.solve_cell_problems",)),
    "decomposition.coef_pct": ("total", ("decomposition.solve_coefficients",
                                         "decomposition.reconstruct")),
    "decomposition.sumcheck_pct": ("total", ("decomposition.sum_field_check",)),
    "meshing.build_pct": ("total", ("meshing.build_mesh",)),
    "meshing.validate_pct": ("total", ("meshing.validate_mesh",)),
    "meshing.io_pct": ("total", ("meshing.save_mesh", "meshing.load_mesh")),
    "asymptotics.compare_pct": ("total", ("harness.compare_oracles",)),
    "harness.point_self_pct": ("self", ("harness.run_point",)),
    "harness.emit_pct": ("mixed", ("harness.run_sweep", "harness.write_csv",
                                   "harness.sweep_summary")),
    "cli.self_pct": ("self", ("cli.main",)),
}

COUNTS = ("fem.factorizations", "fem.factor_nnz", "fem.solves", "fem.energy_calls",
          "fem.solver_iters", "meshing.cells")

PER_LAYER = tuple(name for layer in LAYERS for name in layer.metrics)
UNITS = {**{m: "%" for m in SHARES}, **{m: "count" for m in COUNTS},
         "fem.residual_max": "1", "meshing.min_quality": "1", "meshing.errors": "count",
         "process.cpu_s": "s", "process.cores_used": "1", "trace.spans": "count",
         "trace.overhead_s": "s"}


def seconds_key(share: str) -> str:
    """``fem.factor_pct`` -> ``fem.factor_s``, the seconds behind a share."""
    return share[:-len("_pct")] + "_s"


def _span_seconds(spans, start, end):
    """Total and self seconds per span name over spans[start:end]."""
    child = [0.0] * (end - start)
    for i in range(start, end):
        p = spans[i][3]
        if p >= start:
            child[p - start] += spans[i][2] - spans[i][1]
    total, self_ = {}, {}
    for i in range(start, end):
        name, t0, t1, p = spans[i][:4]
        dur = t1 - t0
        self_[name] = self_.get(name, 0.0) + dur - child[i - start]
        while p >= start and spans[p][0] != name:
            p = spans[p][3]
        if p < start:
            total[name] = total.get(name, 0.0) + dur
    return total, self_


def layer_seconds(spans, start, end) -> dict:
    """Absolute seconds behind each share metric, for one job."""
    total, self_ = _span_seconds(spans, start, end)
    out = {}
    for metric, (how, names) in SHARES.items():
        if how == "total":
            sec = sum(total.get(n, 0.0) for n in names)
        elif how == "self":
            sec = sum(self_.get(n, 0.0) for n in names)
        else:   # run_sweep's own JSON emission plus the CSV and fit calls
            sec = self_.get(names[0], 0.0) + sum(total.get(n, 0.0) for n in names[1:])
        out[seconds_key(metric)] = sec
    return out


def layer_counts(spans, start, end) -> dict:
    """Exact per-job counts read off the spans."""
    c = {"fem.factorizations": 0, "fem.factor_nnz": 0, "fem.solves": 0,
         "fem.energy_calls": 0, "fem.solver_iters": 0, "meshing.cells": 0,
         "meshing.errors": 0}
    residual_max = 0.0
    min_quality = float("inf")
    for name, _, _, _, _, info in spans[start:end]:
        if name in FACTOR_SPANS:
            c["fem.factorizations"] += 1
            c["fem.factor_nnz"] += info["nnz"] if info and "nnz" in info else 0
        elif name in SOLVE_SPANS:
            c["fem.solves"] += 1
            if info and "iters" in info:
                c["fem.solver_iters"] += info["iters"]
                residual_max = max(residual_max, info["residual"])
        elif name == "fem.energy_integral":
            c["fem.energy_calls"] += 1
        elif name == "meshing.build_mesh":
            if info and "cells" in info:
                c["meshing.cells"] += info["cells"]
                min_quality = min(min_quality, info["min_quality"])
            else:
                c["meshing.errors"] += 1
    c["fem.residual_max"] = residual_max
    c["meshing.min_quality"] = min_quality if min_quality < float("inf") else 0.0
    c["trace.spans"] = end - start
    return c


def fired(spans, start, end) -> set:
    """Span names seen; ``fem.factor`` stands for either factorization."""
    names = {s[0] for s in spans[start:end]}
    if names.intersection(FACTOR_SPANS):
        names.add("fem.factor")
    return names


def coverage_gaps(workload: str, names: set) -> list:
    """Spans the table says fire on this workload that did not."""
    return [f"{name} (for {', '.join(layer.metrics)})"
            for layer in LAYERS if workload in layer.on
            for name in layer.spans if name not in names]
