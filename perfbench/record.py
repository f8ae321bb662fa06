"""Record the references the benchmark's gates compare against, from the
program in this checkout:

    python3 perfbench/record.py

Writes ``perfbench/references.json``: the ``sweep_m2`` rows and fitted
slope, the ``point_fine`` row and exported-field maximum, and the
``mesh_scan`` draw pool with each draw's outcome, cell count and time.  Record
again only when a change is meant to alter these outputs.
"""

import json
import shutil
import sys
import time

import run  # pins BLAS threads before numpy loads

POOL_SEED = 2018
POOL_SIZE = 800
PER_STRATUM = 8


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads as wl

    tmp = run.STATE / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for cls in (wl.SweepM2, wl.PointFine):
            workload = cls(tmp)
            patch = tracing.Patch()
            try:
                ran = workload.run(patch, wl.ItemClock())
            finally:
                patch.undo()
            refs[cls.name] = cls.record(workload.observe(ran))
            print(f"recorded {cls.name}", flush=True)
        draws = wl.make_pool(POOL_SEED, POOL_SIZE)
        for draw in draws:
            t0 = time.perf_counter()
            try:
                mesh, _ = wl.mesh_draw(draw, tmp / "mesh.txt")
            except Exception as exc:    # the recorded outcome of this draw
                draw.update(outcome=type(exc).__name__, n_cells=0)
            else:
                draw.update(outcome="meshed", n_cells=int(mesh.n_cells))
            # only orders draws of one outcome and cell count into strata
            draw["cost_s"] = round(time.perf_counter() - t0, 3)
        refs["mesh_scan"] = {"pool_seed": POOL_SEED, "per_stratum": PER_STRATUM, "draws": draws}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.HERE / "references.json", "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    meshed = sum(d["outcome"] == "meshed" for d in draws)
    print(f"mesh pool: {meshed} of {len(draws)} draws meshed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
