"""The workloads: inputs from a seed, one job each, and the gates that check
a job's outputs against references recorded from the program.

Each workload is one closed-loop client: an item starts only after the one
before it has finished, in one thread.

* ``sweep_m2`` runs ``neckstress sweep --out --json`` with the defaults
  (power m=2, ``affine-x2``, 8 gap widths), then the CLI's own fit and
  oracle comparison.  Items are the 8 ``run_point`` calls.
* ``point_fine`` runs ``neckstress solve`` on one large point (m=6,
  ``shear-twist``, eps=1e-4, budget scale 2) with ``--export-field``.  The
  item is the whole command.
* ``mesh_scan`` meshes seeded draws over the admissible ``make_profile``
  box: ``build_mesh``, ``validate_mesh``, then a ``save_mesh``/``load_mesh``
  round trip.  Items are the draws that mesh.  The draws come from a pool of
  uniform draws recorded in ``references.json`` with each draw's outcome,
  cell count and time, so every draw has a reference.  The pool is sorted
  by outcome, then cell count, then time, and cut into strata of
  ``per_stratum`` draws; the seed picks one draw per stratum.  That keeps
  the job's work, failure share and largest mesh close across seeds while
  the draws themselves change.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

SWEEP_ARGV = ("sweep",)
POINT_ARGV = ("solve", "--profile", "power", "--m", "6", "--phi", "shear-twist",
              "--eps", "1e-4", "--budget-scale", "2")
ROW_FAMILIES = (
    ("max_grad_u",),
    ("a11_11", "a11_12", "a11_13", "a11_22", "a11_23", "a11_33"),
    ("cdiff_1", "cdiff_2", "cdiff_3"),
)
ROW_KEYS = tuple(k for fam in ROW_FAMILIES for k in fam)
REL_TOL = 1e-10
SLOPE_TOL = 1e-6
FIELD_HEADER = "# neckstress-field-v1"
CSV_HEADER = "# neckstress-v1"

# the admissible make_profile box the scan draws from
EPS_RANGE = (1e-6, 0.45)
KAPPA0_RANGE = (0.1, 30.0)
M_RANGE = (2.0, 10.0)
R0_RANGE = (0.0, 0.95)


def _ns(module):
    return importlib.import_module(f"neckstress.{module}")


class ItemClock:
    """Times the client's items and tags spans with the current item id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = []

    def time(self, fn, *args):
        if self.tracer is not None:
            self.tracer.item = len(self.times)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.times.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.item = None


def run_cli(argv) -> int:
    """``neckstress.cli.main`` looked up at call time, so wrappers fire."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _ns("cli").main(list(argv))


def capture_points(patch, rows, clock=None):
    """Route every ``run_point`` binding through a wrapper that keeps the
    rows and, given a clock, times each call as an item."""
    inner = _ns("harness").run_point

    def point(config, eps):
        row = inner(config, eps) if clock is None else clock.time(inner, config, eps)
        rows.append(row)
        return row

    patch.rebind(inner, point)


def _row_problems(label, row, ref) -> list:
    """Each checked entry within REL_TOL of its reference, relative to the
    larger of the entry and the largest entry of its family in the row, so
    entries that mirror symmetry nulls are held to the family's scale."""
    if row.get("status") != "ok":
        return [f"{label}: status {row.get('status')!r} ({row.get('message', '')})"]
    out = []
    for fam in ROW_FAMILIES:
        scale = max(abs(ref[k]) for k in fam)
        for k in fam:
            err = abs(float(row[k]) - ref[k])
            if not err <= REL_TOL * max(abs(ref[k]), scale):
                out.append(f"{label}: {k} = {float(row[k])!r}, reference {ref[k]!r}")
    return out


def _read_csv_rows(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != CSV_HEADER:
        raise ValueError(f"CSV schema line {lines[0]!r}")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        raw = dict(zip(header, line.split(",")))
        row = {"status": raw["status"], "message": raw["message"]}
        row.update({k: float(raw[k]) for k in ROW_KEYS})
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# sweep_m2

class SweepM2:
    name = "sweep_m2"

    def __init__(self, tmp: Path, argv=SWEEP_ARGV):
        self.argv = (*argv, "--out", str(tmp / "sweep.csv"), "--json", str(tmp / "sweep.json"))
        self.csv = tmp / "sweep.csv"
        self.json = tmp / "sweep.json"

    def run(self, patch, clock) -> dict:
        rows = []
        capture_points(patch, rows, clock)
        return {"rc": run_cli(self.argv), "rows": rows}

    def observe(self, ran) -> dict:
        summary = json.loads(self.json.read_text(encoding="utf-8"))
        fit = summary["fits"].get("max_grad_u")
        return {"rc": ran["rc"], "rows": _read_csv_rows(self.csv),
                "slope": fit["slope"] if fit else None,
                "cells": {i: int(r["n_cells"]) for i, r in enumerate(ran["rows"])}}

    @staticmethod
    def record(obs) -> dict:
        return {"rows": [{k: r[k] for k in ROW_KEYS} for r in obs["rows"]],
                "slope": obs["slope"]}

    @staticmethod
    def check(obs, ref) -> tuple[dict, list]:
        """Per-item problems (item index -> messages) and job-level problems."""
        items = {}
        for i, (row, r) in enumerate(zip(obs["rows"], ref["rows"])):
            p = _row_problems(f"point {i}", row, r)
            if p:
                items[i] = p
        job = []
        if obs["rc"] != 0:
            job.append(f"sweep exited {obs['rc']}")
        if len(obs["rows"]) != len(ref["rows"]):
            job.append(f"{len(obs['rows'])} CSV rows, reference {len(ref['rows'])}")
        if (obs["slope"] is None) != (ref["slope"] is None) or (
                ref["slope"] is not None and not abs(obs["slope"] - ref["slope"]) <= SLOPE_TOL):
            job.append(f"max_grad_u slope {obs['slope']!r}, reference {ref['slope']!r}")
        return items, job


# ---------------------------------------------------------------------------
# point_fine

def read_field_max(path) -> tuple[float, int]:
    """Max |u| over the dofs of an exported field file, and the dof count."""
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != FIELD_HEADER:
            raise ValueError("field file schema line")
        n = int(f.readline().split()[2])
        f.readline()
        data = np.loadtxt(f, ndmin=2)
    if data.shape != (n, 5) or not np.array_equal(data[:, 0], np.arange(n)):
        raise ValueError(f"field file holds {data.shape} values for {n} dofs")
    return float(np.hypot(data[:, 3], data[:, 4]).max()), n


class PointFine:
    name = "point_fine"

    def __init__(self, tmp: Path, argv=POINT_ARGV):
        self.field = tmp / "field.txt"
        self.argv = (*argv, "--export-field", str(self.field))

    def run(self, patch, clock) -> dict:
        rows = []
        capture_points(patch, rows)
        return {"rc": clock.time(run_cli, self.argv), "rows": rows}

    def observe(self, ran) -> dict:
        field_max, n = read_field_max(self.field)
        return {"rc": ran["rc"], "row": ran["rows"][0], "field_max_u": field_max,
                "field_dofs": n, "cells": {0: int(ran["rows"][0]["n_cells"])}}

    @staticmethod
    def record(obs) -> dict:
        return {"row": {k: float(obs["row"][k]) for k in ROW_KEYS},
                "field_max_u": obs["field_max_u"], "field_dofs": obs["field_dofs"]}

    @staticmethod
    def check(obs, ref) -> tuple[dict, list]:
        job = _row_problems("point", obs["row"], ref["row"])
        if obs["rc"] != 0:
            job.append(f"solve exited {obs['rc']}")
        if obs["field_dofs"] != ref["field_dofs"]:
            job.append(f"field file has {obs['field_dofs']} dofs, reference {ref['field_dofs']}")
        err = abs(obs["field_max_u"] - ref["field_max_u"])
        if not err <= REL_TOL * abs(ref["field_max_u"]):
            job.append(f"field max|u| {obs['field_max_u']!r}, reference {ref['field_max_u']!r}")
        return {}, job


# ---------------------------------------------------------------------------
# mesh_scan

def make_pool(seed: int, size: int) -> list:
    """Uniform draws over the admissible box: kind, m and r0 uniform, eps
    and kappa0 log-uniform."""
    rng = np.random.default_rng(seed)
    le, lk = np.log(EPS_RANGE), np.log(KAPPA0_RANGE)
    pool = []
    for _ in range(size):
        u = rng.random(4)
        kind = "power" if u[0] < 0.5 else "flat"
        lo, hi = M_RANGE if kind == "power" else R0_RANGE
        pool.append({
            "kind": kind,
            "shape": float(lo + u[1] * (hi - lo)),
            "eps": float(math.exp(le[0] + u[2] * (le[1] - le[0]))),
            "kappa0": float(math.exp(lk[0] + u[3] * (lk[1] - lk[0]))),
        })
    return pool


def pick_draws(pool: dict, seed: int) -> list:
    """One draw per stratum of the sorted pool, chosen and ordered by the seed."""
    per = pool["per_stratum"]
    ranked = sorted(pool["draws"], key=lambda d: (d["outcome"], d["n_cells"], d["cost_s"]))
    rng = np.random.default_rng(seed)
    picks = [ranked[s + int(k)] for s, k in
             zip(range(0, len(ranked), per), rng.integers(per, size=len(ranked) // per))]
    return [picks[i] for i in rng.permutation(len(picks))]


def mesh_draw(draw, path):
    """The scan's item: mesh one draw, validate it, save and load it."""
    meshing = _ns("meshing")
    shape = {"m": draw["shape"]} if draw["kind"] == "power" else {"r0": draw["shape"]}
    profile = _ns("geometry").make_profile(draw["kind"], epsilon=draw["eps"],
                                           kappa0=draw["kappa0"], **shape)
    mesh = meshing.build_mesh(profile)
    meshing.validate_mesh(mesh)
    meshing.save_mesh(mesh, str(path))
    return mesh, meshing.load_mesh(str(path))


def round_trip_exact(mesh, loaded) -> bool:
    return all(np.array_equal(getattr(mesh, a), getattr(loaded, a))
               for a in ("nodes", "cells", "edges", "edge_tags"))


class MeshScan:
    name = "mesh_scan"

    def __init__(self, tmp: Path, draws: list):
        self.path = tmp / "mesh.txt"
        self.draws = draws

    def run(self, patch, clock) -> dict:
        outcomes = []
        for draw in self.draws:
            try:
                mesh, loaded = clock.time(mesh_draw, draw, self.path)
            except Exception as exc:    # a draw's outcome, compared with the reference
                outcomes.append((type(exc).__name__, 0, True))
            else:
                outcomes.append(("meshed", int(mesh.n_cells), round_trip_exact(mesh, loaded)))
        return {"outcomes": outcomes}

    def observe(self, ran) -> dict:
        out = ran["outcomes"]
        return {"outcomes": out,
                "cells": {i: c for i, (o, c, _) in enumerate(out) if o == "meshed"},
                "known_errors": [i for i, (o, _, _) in enumerate(out) if o != "meshed"]}

    def check(self, obs, ref=None) -> tuple[dict, list]:
        items = {}
        for i, ((outcome, cells, exact), draw) in enumerate(zip(obs["outcomes"], self.draws)):
            p = []
            if outcome != draw["outcome"] or cells != draw["n_cells"]:
                p.append(f"draw {i} {draw['kind']} shape={draw['shape']!r} eps={draw['eps']!r} "
                         f"kappa0={draw['kappa0']!r}: {outcome} with {cells} cells, "
                         f"reference {draw['outcome']} with {draw['n_cells']}")
            if not exact:
                p.append(f"draw {i}: save/load round trip is not exact")
            if p:
                items[i] = p
        return items, []
