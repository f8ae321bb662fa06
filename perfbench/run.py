"""neckstress benchmark.

    python3 perfbench/run.py --workload {sweep_m2,point_fine,mesh_scan,all}
                             --seed N --seconds S --trace {0,1}

Runs jobs of one workload (see ``workloads.py``) from the repository's own
``src/`` for about ``--seconds`` seconds: one job at least, and another
only while the median job so far still fits.  The jobs' outputs are checked
against ``references.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which are
the end-to-end metrics with ``--trace 0`` and the per-layer metrics (from
spans, see ``tracing.py``) with ``--trace 1``.  The exit code is 0 only when
every gate passed.  ``--workload all`` runs every workload untraced and
then traced in this one process, and reports the tracing overhead.

BLAS is pinned to one thread, so the client thread is the only busy one and
the second core stays free.  Spans, the counts of each job and a result
file with the environment record go to ``.perfbench/`` in the checkout.
"""

import os

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep_m2", "point_fine", "mesh_scan")
SETUP_SAMPLES = 7
# fresh interpreters import the package for set-up samples after the first
IMPORT_PROBE = ("import time; t = time.perf_counter(); import neckstress, neckstress.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "job_s": "s", "item_s.p50": "s", "item_s.tail": "s", "cells_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def tail_value(values):
    """The highest percentile with at least ten samples above it (the
    maximum below 11 samples), its level and the sample count."""
    v = sorted(values)
    k = len(v) - 11 if len(v) >= 11 else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v), len(v)


def environment(workload, seed, trace) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads_pinned": int(THREADS), "blas_threads": blas_threads(),
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln and ln.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[Path(path).name] = int(fn())
                break
    return out


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def src_digest() -> str:
    return digest(sorted((SRC / "neckstress").glob("*.py")))


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def make_workload(name, seed, tmp, refs):
    """The workload object and the references its gates read."""
    import workloads as wl
    if name == "sweep_m2":
        return wl.SweepM2(tmp), refs["sweep_m2"]
    if name == "point_fine":
        return wl.PointFine(tmp), refs["point_fine"]
    return wl.MeshScan(tmp, wl.pick_draws(refs["mesh_scan"], seed)), None


def setup(name, seed, tmp, first_import_s):
    """Package import plus input generation, SETUP_SAMPLES times: the first
    import is this process's own, the others fresh interpreters'."""
    samples = []
    for i in range(SETUP_SAMPLES):
        if i == 0:
            imp = first_import_s
        else:
            res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, timeout=120,
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": str(SRC)})
            imp = float(res.stdout.strip())
        t0 = time.perf_counter()
        made = make_workload(name, seed, tmp, load_references())
        samples.append(imp + time.perf_counter() - t0)
    return made, statistics.median(samples)


def run_jobs(workload, ref, seconds, tracer=None) -> list:
    """Jobs for about ``seconds``; timings, gate problems and, traced, the
    per-job layer seconds and counts."""
    import tracing
    import workloads as wl
    jobs = []
    t_start = time.perf_counter()
    while not jobs or (time.perf_counter() - t_start
                       + statistics.median(j["wall"] for j in jobs) <= seconds):
        patch = tracing.Patch()
        clock = wl.ItemClock(tracer)
        first = len(tracer.spans) if tracer else 0
        cpu0 = os.times()
        t0 = time.perf_counter()
        try:
            ran = workload.run(patch, clock)
        finally:
            patch.undo()
        wall = time.perf_counter() - t0
        cpu1 = os.times()
        job = {"wall": wall, "cpu": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
               "item_times": clock.times,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        try:
            obs = workload.observe(ran)
            job["item_problems"], job["problems"] = workload.check(obs, ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            obs = {"cells": {}}
            job["item_problems"], job["problems"] = {}, [f"outputs unreadable: {exc!r}"]
        job["obs"] = obs
        if tracer is not None:
            last = len(tracer.spans)
            job["layer_s"] = tracing.layer_seconds(tracer.spans, first, last)
            job["counts"] = tracing.layer_counts(tracer.spans, first, last)
            job["fired"] = tracing.fired(tracer.spans, first, last)
        jobs.append(job)
    return jobs


def summarize(name, jobs, trace, setup_s, span_cost=0.0) -> dict:
    """Metrics and gate totals of one run."""
    import tracing
    problems = []
    attempted = failed = known = 0
    ok_times, ok_cells = [], []
    for j in jobs:
        n = len(j["item_times"])
        attempted += n
        bad = set(range(n)) if j["problems"] else set(j["item_problems"])
        failed += len(bad)
        known += len(set(j["obs"].get("known_errors", ())) - bad)
        problems += j["problems"] + [p for ps in j["item_problems"].values() for p in ps]
        for i, cells in j["obs"]["cells"].items():
            if i not in bad:
                ok_times.append(j["item_times"][i])
                ok_cells.append(cells)
    if ok_times:
        tail, level, n_items = tail_value(ok_times)
        p50, rate = statistics.median(ok_times), sum(ok_cells) / sum(ok_times)
    else:
        problems.append("no item succeeded")
        tail = level = n_items = p50 = rate = 0
    out = {
        "workload": name, "jobs": len(jobs), "attempted": attempted, "failed": failed,
        "known_meshing_errors": known, "failed_frac": (failed + known) / max(attempted, 1),
        "items_ok": n_items, "tail_percentile": level, "job_walls_s": [j["wall"] for j in jobs],
        "job_peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        "end_to_end": {
            "job_s": statistics.median(j["wall"] for j in jobs),
            "item_s.p50": p50,
            "item_s.tail": tail,
            "cells_per_s": rate,
            "setup_s": setup_s,
            # through the first job: later jobs repeat its inputs, and how many
            # fit in the run depends on the machine's speed
            "peak_rss_mb": jobs[0]["peak_rss_mb"],
        },
    }
    if trace:
        out["per_layer"], out["layer_seconds"] = per_layer(jobs, span_cost)
        out["counts"] = jobs[0]["counts"]
        for i, j in enumerate(jobs[1:], 1):
            diff = {k: (out["counts"][k], j["counts"][k]) for k in tracing.COUNTS
                    if j["counts"][k] != out["counts"][k]}
            if diff:
                problems.append(f"job {i} counts differ from job 0: {diff}")
        names = set().union(*(j["fired"] for j in jobs))
        problems += [f"span did not fire: {g}" for g in tracing.coverage_gaps(name, names)]
    out["problems"] = problems
    out["correct"] = not problems
    return out


def per_layer(jobs, span_cost):
    """Per-layer metrics and the seconds behind the shares, medians over jobs."""
    import tracing
    rows = []
    for j in jobs:
        row = {m: 100.0 * j["layer_s"][tracing.seconds_key(m)] / j["wall"]
               for m in tracing.SHARES}
        row.update(j["counts"])
        row["process.cpu_s"] = j["cpu"]
        row["process.cores_used"] = j["cpu"] / j["wall"]
        row["trace.overhead_s"] = j["counts"]["trace.spans"] * span_cost
        rows.append(row)
    layer = {m: statistics.median(r[m] for r in rows) for m in tracing.PER_LAYER}
    seconds = {k: statistics.median(j["layer_s"][k] for j in jobs) for k in jobs[0]["layer_s"]}
    return layer, seconds


def check_counts_repeat(name, seed, counts, state: Path) -> list:
    """Compare this run's per-job counts with the last run of the same
    inputs and the same program and benchmark code in this checkout, and
    store them for the next one."""
    import tracing
    code = digest(sorted((SRC / "neckstress").glob("*.py")) + sorted(HERE.glob("*.py"))
                  + [HERE / "references.json"])[:16]
    key = f"{name}:{seed if name == 'mesh_scan' else ''}:{code}"
    path = state / "counts.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mine = {k: counts[k] for k in tracing.COUNTS}
    problems = []
    if key in stored and stored[key] != mine:
        problems.append(f"counts differ from the previous run: {stored[key]} vs {mine}")
    stored[key] = mine
    path.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def report_lines(res) -> list:
    import tracing
    e = res["end_to_end"]
    lines = [
        f"{res['workload']}: {res['jobs']} job(s), {res['attempted']} items attempted, "
        f"{res['failed']} failed the gates, {res['known_meshing_errors']} recorded meshing errors",
    ]
    for k, unit in END_TO_END.items():
        extra = ""
        if k == "item_s.tail":
            extra = f"  (p{res['tail_percentile']:.1f} of {res['items_ok']} items)"
        lines.append(f"  {k:<14} {e[k]:.6g} {unit}{extra}")
    lines.append(f"  {'failed_frac':<14} {res['failed_frac']:.4f} 1  "
                 f"(failed or gate-violating items / attempted)")
    if "per_layer" in res:
        for k, v in res["per_layer"].items():
            sec = res["layer_seconds"][tracing.seconds_key(k)] if k in tracing.SHARES else None
            lines.append(f"  {k:<28} {v:.6g} {tracing.UNITS[k]}"
                         + (f"  ({sec:.4f} s)" if sec is not None else ""))
    for p in res["problems"][:20]:
        lines.append(f"  GATE: {p}")
    return lines


def run_workload(name, seed, seconds, trace, first_import_s) -> dict:
    import tracing
    tmp = STATE / f"tmp-{os.getpid()}-{name}"
    tmp.mkdir(parents=True, exist_ok=True)
    patch = tracing.Patch()
    try:
        (workload, ref), setup_s = setup(name, seed, tmp, first_import_s)
        tracer = None
        span_cost = 0.0
        if trace:
            tracer = tracing.Tracer()
            span_cost = tracing.span_cost()
            tracer.install(patch)
        try:
            jobs = run_jobs(workload, ref, seconds, tracer)
        finally:
            patch.undo()
        res = summarize(name, jobs, trace, setup_s, span_cost)
        if trace:
            res["problems"] += check_counts_repeat(name, seed, res["counts"], STATE)
            res["correct"] = not res["problems"]
            with open(STATE / f"spans_{name}.json", "w", encoding="utf-8") as f:
                json.dump({"workload": name, "seed": seed,
                           "fields": ["name", "start", "end", "parent", "item", "info"],
                           "spans": tracer.spans}, f)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["env"] = environment(name, seed, trace)
    with open(STATE / f"result_{name}_trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump(res, f, indent=1, default=str)
    return res


def result_line(res, trace) -> dict:
    import tracing
    if trace:
        metrics = {m: {"value": res["per_layer"][m], "unit": tracing.UNITS[m]}
                   for m in tracing.PER_LAYER}
    else:
        metrics = {m: {"value": res["end_to_end"][m], "unit": u} for m, u in END_TO_END.items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="neckstress benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "neckstress" / "__init__.py").is_file():
        print(f"no neckstress package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import neckstress.cli  # noqa: F401  (the first set-up sample times this import)
    first_import_s = time.perf_counter() - t_import
    STATE.mkdir(exist_ok=True)

    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, first_import_s)
        print("env: " + json.dumps(res["env"], sort_keys=True))
        print("\n".join(report_lines(res)))
        print(json.dumps(result_line(res, args.trace)))
        return 0 if res["correct"] else 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0, first_import_s)
        traced = run_workload(name, args.seed, args.seconds, 1, first_import_s)
        print("\n".join(report_lines(plain) + ["  traced:"] + report_lines(traced)))
        overhead = traced["end_to_end"]["job_s"] / plain["end_to_end"]["job_s"] - 1.0
        print(f"  tracing overhead: job_s {100 * overhead:+.2f}% traced vs untraced "
              f"(span-cost estimate {traced['per_layer']['trace.overhead_s']:.4f} s per job)")
        for res in (plain, traced):
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result_line(plain, 0)["metrics"].items()})
    print("env: " + json.dumps(plain["env"], sort_keys=True))
    print("peak_rss_mb: one process ran every workload, so each reading includes the ones before")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
