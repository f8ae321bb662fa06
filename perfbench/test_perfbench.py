"""Fast self-check of the benchmark: the wrappers, the gates and the output
schema, on coarse grading, one sweep point and a few mesh draws.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys

import pytest

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import neckstress  # noqa: E402
import neckstress.cli  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

COARSE = ("dx_min_frac = 0.5\ndx_max_frac = 0.12\narc_frac = 0.15\nn_radial = 6\n"
          "eps-list = 1e-2\n")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def coarse(tmp_path):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE)
    return ("--config", str(cfg))


def traced_run(workload, ref, seconds=0.0):
    tracer = tracing.Tracer()
    patch = tracing.Patch()
    tracer.install(patch)
    try:
        return run.run_jobs(workload, ref, seconds, tracer), tracer
    finally:
        patch.undo()


def test_wrappers_reach_every_binding_site():
    originals = {
        "build_mesh": neckstress.meshing.build_mesh,
        "energy_integral": neckstress.fem.energy_integral,
        "run_point": neckstress.harness.run_point,
    }
    spla = neckstress.fem.spla
    solve = neckstress.fem.DirichletSolver.solve
    patch = tracing.Patch()
    tracing.Tracer().install(patch)
    try:
        for mod, name in ((neckstress.harness, "build_mesh"), (neckstress.cli, "build_mesh"),
                          (neckstress, "build_mesh"),
                          (neckstress.decomposition, "energy_integral"),
                          (neckstress, "energy_integral"),
                          (neckstress.cli, "run_point"), (neckstress.harness, "run_point")):
            bound = getattr(mod, name)
            assert bound is not originals[name]
            assert bound.__wrapped__ is originals[name]
        assert neckstress.fem.spla is not spla
        assert neckstress.fem.spla.spilu.__wrapped__ is spla.spilu
        assert neckstress.fem.DirichletSolver.solve.__wrapped__ is solve
    finally:
        patch.undo()
    assert neckstress.harness.build_mesh is originals["build_mesh"]
    assert neckstress.decomposition.energy_integral is originals["energy_integral"]
    assert neckstress.cli.run_point is originals["run_point"]
    assert neckstress.fem.spla is spla
    assert neckstress.fem.DirichletSolver.solve is solve


def test_one_point_sweep_is_traced_gated_and_repeats(tmp_path, coarse):
    sweep = wl.SweepM2(tmp_path, argv=("sweep",) + coarse)
    first, tracer = traced_run(sweep, {"rows": [], "slope": None})
    job = first[0]
    ref = wl.SweepM2.record(job["obs"])
    assert len(ref["rows"]) == 1 and ref["slope"] is None
    assert len(job["item_times"]) == 1
    c = job["counts"]
    assert (c["fem.factorizations"], c["fem.solves"], c["fem.energy_calls"]) == (1, 7, 42)
    assert c["fem.factor_nnz"] > 0 and c["meshing.cells"] == job["obs"]["cells"][0]
    assert tracing.coverage_gaps("sweep_m2", job["fired"]) == []
    assert {s[4] for s in tracer.spans if s[0] == "fem.energy_integral"} == {0}

    second, _ = traced_run(sweep, ref)
    again = second[0]
    assert again["item_problems"] == {} and again["problems"] == []
    assert {k: again["counts"][k] for k in tracing.COUNTS} == {k: c[k] for k in tracing.COUNTS}

    res = run.summarize("sweep_m2", second, 1, 0.5)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 1

    wrong = json.loads(json.dumps(ref))
    wrong["rows"][0]["max_grad_u"] *= 1.0 + 1e-9
    items, _ = wl.SweepM2.check(again["obs"], wrong)
    assert list(items) == [0] and "max_grad_u" in items[0][0]
    _, job_problems = wl.SweepM2.check(again["obs"], {"rows": ref["rows"], "slope": -0.5})
    assert job_problems and "slope" in job_problems[0]


def test_point_with_export_is_gated(tmp_path, coarse):
    point = wl.PointFine(tmp_path, argv=("solve", "--eps", "1e-2") + coarse)
    blank = {"row": dict.fromkeys(wl.ROW_KEYS, 0.0), "field_max_u": 0.0, "field_dofs": 0}
    ran, _ = traced_run(point, blank)
    job = ran[0]
    assert job["problems"]
    ref = wl.PointFine.record(job["obs"])
    assert ref["field_dofs"] > 0 and ref["field_max_u"] > 0
    assert tracing.coverage_gaps("point_fine", job["fired"]) == []
    assert wl.PointFine.check(job["obs"], ref) == ({}, [])
    wrong = dict(ref, field_max_u=ref["field_max_u"] * (1 + 1e-9))
    assert wl.PointFine.check(job["obs"], wrong)[1]


def test_mesh_draws_match_recorded_outcomes(tmp_path):
    draws = wl.pick_draws(run.load_references()["mesh_scan"], seed=0)
    few = [d for d in draws if d["outcome"] == "meshed"][:2] + \
          [d for d in draws if d["outcome"] != "meshed"][:1]
    scan = wl.MeshScan(tmp_path, few)
    ran, _ = traced_run(scan, None)
    job = ran[0]
    assert job["item_problems"] == {} and job["problems"] == []
    assert tracing.coverage_gaps("mesh_scan", job["fired"]) == []
    assert job["counts"]["meshing.errors"] == 1
    res = run.summarize("mesh_scan", ran, 1, 0.5)
    assert res["failed"] == 0 and res["known_meshing_errors"] == 1
    assert res["failed_frac"] == pytest.approx(1 / 3)

    scan.draws = [dict(few[0], n_cells=few[0]["n_cells"] + 1)] + few[1:]
    assert list(scan.check(job["obs"])[0]) == [0]


def test_result_line_matches_benchmark_json(tmp_path):
    draws = [d for d in wl.pick_draws(run.load_references()["mesh_scan"], seed=1)
             if d["outcome"] == "meshed"][:1]
    ran, _ = traced_run(wl.MeshScan(tmp_path, draws), None)
    res = run.summarize("mesh_scan", ran, 1, 0.5)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = json.loads(json.dumps(run.result_line(res, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert all(res["end_to_end"][m["name"]] > 0 for m in BENCHMARK["end_to_end"])


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_value(list(range(8)))[0] == 7
    value, level, n = run.tail_value(list(range(100)))
    assert (value, n) == (89, 100) and level == pytest.approx(90.0)


def test_counts_must_repeat_between_runs(tmp_path):
    counts = dict.fromkeys(tracing.COUNTS, 3)
    assert run.check_counts_repeat("sweep_m2", 1, counts, tmp_path) == []
    assert run.check_counts_repeat("sweep_m2", 2, counts, tmp_path) == []
    changed = dict(counts, **{"fem.factorizations": 4})
    assert len(run.check_counts_repeat("sweep_m2", 3, changed, tmp_path)) == 1
    assert run.check_counts_repeat("mesh_scan", 5, changed, tmp_path) == []
