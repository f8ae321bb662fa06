import gc
import json
import math
import re
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

import neckstress as ns
from neckstress.cli import main
from neckstress.elasticity import ElasticityError
from neckstress.fem import FemError
from neckstress.geometry import GeometryError
from neckstress.harness import (
    CSV_SCHEMA,
    HarnessError,
    config_from_mapping,
    dumps_csv,
    load_config_file,
)
from neckstress.meshing import MeshingError

from conftest import COARSE

# a deliberately coarse, fast configuration for harness plumbing tests
FAST = replace(
    ns.ExperimentConfig(),
    eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
    grading=COARSE,
)


FAST_FLAT = replace(FAST, kind="flat", r0=0.3, kappa0=4.0)


@pytest.fixture(scope="module")
def fast_rows():
    return ns.run_sweep(FAST)


@pytest.fixture(scope="module")
def fast_flat_rows():
    return ns.run_sweep(FAST_FLAT)


def test_fit_rate_synthetic_power():
    eps = np.logspace(-1, -4, 6)
    fit = ns.fit_rate([(e, e**-0.5) for e in eps])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_rate_constant():
    eps = np.logspace(-1, -4, 5)
    fit = ns.fit_rate([(e, 3.7) for e in eps])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_log_regime():
    eps = np.logspace(-2, -4, 8)
    pred = ns.predicted_rate(3, ("power", 2.0))    # 1/(eps |log eps|)
    fit = ns.fit_rate([(e, 1.0 / (e * abs(math.log(e)))) for e in eps], pred)
    assert -1.0 < fit.slope < -0.85
    assert fit.corrected_slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_scaling_invariance():
    eps = np.logspace(-1, -3, 6)
    vals = [(e, 2.3 * e**-0.7) for e in eps]
    f1 = ns.fit_rate(vals)
    f2 = ns.fit_rate([(e, 1e6 * v) for e, v in vals])
    assert abs(f1.slope - f2.slope) < 1e-12
    assert f2.intercept == pytest.approx(f1.intercept + math.log(1e6))


def test_fit_rate_validation():
    with pytest.raises(HarnessError):
        ns.fit_rate([(1e-1, 1.0), (1e-2, 2.0)])
    with pytest.raises(HarnessError):
        ns.fit_rate([(1e-1, 1.0), (1e-2, -2.0), (1e-3, 1.0), (1e-4, 1.0)])


def test_config_eps_must_decrease():
    with pytest.raises(HarnessError):
        replace(ns.ExperimentConfig(), eps_list=(1e-3, 1e-2))


def test_config_unknown_phi():
    with pytest.raises(HarnessError):
        replace(ns.ExperimentConfig(), phi="bogus")
    # a rigid index that is not an integer used to raise int()'s ValueError
    for phi in ("rigid:x", "rigid:", "rigid:4"):
        with pytest.raises(HarnessError, match=f"^boundary data selector {phi!r}: rigid index"):
            replace(ns.ExperimentConfig(), phi=phi)
    with pytest.raises(HarnessError, match="^boundary data selector 'rigid:x'"):
        main(["sweep", "--phi", "rigid:x"])


@pytest.mark.parametrize("eps_list, message", [
    ((), "^eps_list must not be empty$"),
    ((1e-2, math.nan), "^eps_list values must be finite and > 0, got nan$"),
    ((math.nan,), "^eps_list values must be finite and > 0, got nan$"),
    ((math.inf, 1e-2), "^eps_list values must be finite and > 0, got inf$"),
    ((1e-2, 0.0), "^eps_list values must be finite and > 0, got 0.0$"),
    ((1e-2, -1e-3), "^eps_list values must be finite and > 0, got -0.001$"),
], ids=["empty", "nan-last", "nan-only", "inf", "zero", "negative"])
def test_config_rejects_eps_that_is_not_finite_and_positive(eps_list, message):
    # a NaN used to pass the strictly-decreasing check, since every
    # comparison with it is false, and fail only at its own point
    with pytest.raises(HarnessError, match=message):
        replace(ns.ExperimentConfig(), eps_list=eps_list)


def test_resolve_phi_selectors():
    pts = np.array([[0.5, 2.0], [-1.0, 3.0]])
    assert np.allclose(ns.resolve_phi("affine-x2")(pts), [[2.0, 0.0], [3.0, 0.0]])
    assert np.allclose(ns.resolve_phi("affine-x2x2")(pts), [[2.0, 2.0], [3.0, 3.0]])
    assert np.allclose(ns.resolve_phi("shear-twist")(pts), [[2.0, 1.0], [3.0, -3.0]])
    assert np.allclose(ns.resolve_phi("zero")(pts), 0.0)
    assert np.allclose(ns.resolve_phi("rigid:3")(pts), [[-2.0, 0.5], [-3.0, -1.0]])
    with pytest.raises(HarnessError):
        ns.resolve_phi("rigid:9")


def test_run_sweep_rows(fast_rows):
    assert len(fast_rows) == 4
    assert all(r["status"] == "ok" for r in fast_rows)
    eps = [r["eps"] for r in fast_rows]
    assert eps == sorted(eps, reverse=True)
    for r in fast_rows:
        assert np.isfinite(r["max_grad_u"])
        assert r["sys_residual"] <= 1e-10


def test_failures_recorded_in_row(caplog):
    bad = replace(FAST, eps_list=(1e-2, 1e-3), grading=replace(COARSE, max_cells=300))
    with caplog.at_level("ERROR", logger="neckstress.harness"):
        rows = ns.run_sweep(bad)
    assert len(rows) == 2
    assert all(r["status"] == "error" for r in rows)
    assert all("MeshingError" in r["message"] for r in rows)
    failed = [r for r in caplog.records if r.name == "neckstress.harness"]
    assert len(failed) == 2
    assert all(r.exc_info and r.exc_info[0].__name__ == "MeshingError" for r in failed)


def test_failures_listed_in_json_summary(tmp_path, fast_rows):
    out = tmp_path / "sweep.json"
    bad = replace(FAST, eps_list=(1e-2, 1e-3), grading=replace(COARSE, max_cells=300),
                  out_json=str(out))
    rows = ns.run_sweep(bad)
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["n_failed"] == 2
    assert [(f["eps"], f["error"]) for f in summary["failures"]] == [
        (1e-2, "MeshingError"), (1e-3, "MeshingError")]
    assert [f["message"] for f in summary["failures"]] == [r["message"] for r in rows]
    assert ns.sweep_summary(FAST, fast_rows)["failures"] == []


def test_csv_roundtrip(tmp_path, fast_rows):
    path = tmp_path / "sweep.csv"
    ns.write_csv(fast_rows, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == CSV_SCHEMA
    rows = ns.read_csv(str(path))
    assert len(rows) == len(fast_rows)
    for a, b in zip(fast_rows, rows):
        assert b["eps"] == a["eps"]
        assert b["max_grad_u"] == a["max_grad_u"]   # full-precision floats
        assert b["status"] == a["status"]


def test_read_csv_rejects_a_row_with_a_wrong_field_count(tmp_path):
    # zip used to truncate the short row, and a fit then raised KeyError
    path = tmp_path / "short.csv"
    path.write_text(f"{CSV_SCHEMA}\neps,status,max_grad_u\n0.01,ok,2.5\n0.001,ok\n")
    with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}:4: 2 fields, the header has 3$"):
        ns.read_csv(str(path))


def test_read_csv_names_a_field_that_is_not_a_number(tmp_path):
    # float() used to raise an untyped ValueError
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_SCHEMA}\neps,status,max_grad_u\n0.01,ok,2.5\nabc,ok,3.0\n")
    with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}:4: column 'eps': "
                                           "not a number: 'abc'$"):
        ns.read_csv(str(path))


def test_read_csv_rejects_a_file_with_no_column_header(tmp_path):
    # the schema line alone used to raise IndexError
    path = tmp_path / "schema_only.csv"
    path.write_text(f"{CSV_SCHEMA}\n")
    with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}: missing column header"):
        ns.read_csv(str(path))


def test_sweep_summary_fits(fast_rows):
    summary = ns.sweep_summary(FAST, fast_rows)
    assert summary["n_failed"] == 0
    assert "max_grad_u" in summary["fits"]
    fit = summary["fits"]["max_grad_u"]
    assert fit["predicted_exponent"] == pytest.approx(-0.5)
    assert json.dumps(summary)   # serializable


def _power_entry(m):
    # the rho law of each diagonal a11 entry at order m, d = 2
    return lambda eps, al: ns.rho(1, 1 if al <= 2 else 3, m, eps)


@pytest.mark.parametrize("cfg, entry, log_labels", [
    (replace(ns.ExperimentConfig(), kind="flat", r0=0.3),
     lambda eps, al: ns.flat_entry_oracle(2, 0.6, eps, (al, al)), ()),
    (replace(ns.ExperimentConfig(), m=2.0), _power_entry(2.0), ()),
    # at m = 3 the rotation entry a11_33 scales like |log eps|
    (replace(ns.ExperimentConfig(), m=3.0), _power_entry(3.0), ("33",)),
], ids=["flat", "power-m2", "power-m3"])
def test_compare_oracles_synthetic_pass(cfg, entry, log_labels):
    # rows whose a11 entries follow the oracle exactly must pass with ~0 dev
    rows = []
    for eps in cfg.eps_list:
        row = {"eps": eps, "status": "ok"}
        for lab, (al, be) in ns.harness.DIAG_ENTRIES.items():
            row[f"a11_{lab}"] = entry(eps, al)
        for lab in ("12", "13", "23"):
            row[f"a11_{lab}"] = 0.0
        rows.append(row)
    rep = ns.compare_oracles(cfg, rows)
    assert rep["pass"]
    for lab, res in rep["entries"].items():
        assert res["deviation"] < 1e-6
        assert res["tolerance"] == (0.25 if lab in log_labels else 0.15)
        assert (res["measured_corrected"] is not None) == (lab in log_labels)


def test_compare_oracles_needs_rows():
    with pytest.raises(HarnessError):
        ns.compare_oracles(FAST, [{"status": "error", "eps": 1e-2}])


def test_config_file_load_and_override(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# geometry\n"
        "profile = flat\n"
        "r0 = 0.25\n"
        "eps-list = 1e-2, 1e-3, 1e-4, 1e-5\n"
        "phi = affine-x2x2\n"
        "max_cells = 50000\n"
    )
    mapping = load_config_file(str(path))
    cfg = config_from_mapping(mapping)
    assert cfg.kind == "flat"
    assert cfg.r0 == 0.25
    assert cfg.eps_list == (1e-2, 1e-3, 1e-4, 1e-5)
    assert cfg.phi == "affine-x2x2"
    assert cfg.grading.max_cells == 50000
    # explicit overrides win
    cfg2 = config_from_mapping({"r0": 0.1}, cfg)
    assert cfg2.r0 == 0.1 and cfg2.kind == "flat"


def test_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    with pytest.raises(HarnessError):
        load_config_file(str(path))
    with pytest.raises(HarnessError):
        config_from_mapping({"not_a_key": 1.0})


@pytest.mark.parametrize("mapping", [{"solver_method": "direct"}, {"seed": 1},
                                     {"out_field": "f.txt"}, {"neck_measure_frac": "0.9"}])
def test_config_rejects_removed_and_output_only_keys(mapping):
    # the solver path and mesh generation take no method or seed, and the
    # measurement strip is fixed (NECK_MEASURE_FRAC); the field export path
    # is set by the solve subcommand only
    with pytest.raises(HarnessError, match="unknown config key"):
        config_from_mapping(mapping)


@pytest.mark.parametrize("key, raw, build, error, message", [
    ("layers", "0", lambda: ns.GradingConfig(n_layers=0),
     MeshingError, "^n_layers must be >= 1"),
    ("lam", "nan", lambda: ns.ElasticParams(math.nan, 1.0),
     ElasticityError, "^lam must be finite, got nan"),
    ("tol", "0", lambda: ns.SolverConfig(tol=0.0),
     FemError, "^tol must be finite and > 0, got 0.0"),
    ("m", "1", lambda: ns.ExperimentConfig(m=1.0),
     GeometryError, "^order m must satisfy m >= 2, got 1.0"),
    ("profile", "bogus", lambda: ns.ExperimentConfig(kind="bogus"),
     GeometryError, "^unknown profile kind 'bogus'"),
    ("eps_list", "1e-2, nan", lambda: ns.ExperimentConfig(eps_list=(1e-2, math.nan)),
     HarnessError, "^eps_list values must be finite and > 0, got nan"),
], ids=["layers", "lam", "tol", "m", "profile", "eps_list"])
def test_invalid_value_fails_at_construction(monkeypatch, tmp_path, key, raw, build,
                                             error, message):
    """Each invalid value raises the typed error of the class that owns it,
    naming the field, once, where the config is built: through the classes,
    a mapping, a config file or a flag, and before any mesh is built."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed an experiment whose config is invalid")

    monkeypatch.setattr(ns.harness, "build_mesh", no_mesh)
    monkeypatch.setattr(ns.cli, "build_mesh", no_mesh)
    with pytest.raises(error, match=message):
        build()
    with pytest.raises(error, match=message):
        config_from_mapping({key: raw})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    for command in ("mesh", "solve", "sweep"):
        with pytest.raises(error, match=message):
            main([command, "--config", str(cfg)])
    if key in ("layers", "tol", "m", "eps_list"):   # the keys that are flags too
        with pytest.raises(error, match=message):
            main(["sweep", f"--{key.replace('_', '-')}", raw.replace(" ", "")])


def test_solver_tol_key_sets_the_solver_tolerance():
    # the key the tolerance had as an ExperimentConfig field still loads
    assert config_from_mapping({"solver_tol": "1e-12"}).solver.tol == 1e-12


def test_dumps_csv_deterministic(fast_rows):
    assert dumps_csv(fast_rows) == dumps_csv(fast_rows)


def test_row_reproducible_in_isolation(fast_rows):
    row = ns.run_point(FAST, FAST.eps_list[1])
    for key, val in row.items():
        if isinstance(val, float) and np.isfinite(val):
            assert val == fast_rows[1][key]
        elif key != "message":
            assert val == fast_rows[1][key]


def test_sum_field_stays_bounded_along_sweep(fast_rows):
    # the v1+v2 gradients stay O(1) while v1 alone blows up like 1/eps
    fit_sum = ns.fit_rate([(r["eps"], r["sumgrad_1"]) for r in fast_rows])
    fit_v11 = ns.fit_rate([(r["eps"], r["maxgrad_v11"]) for r in fast_rows])
    assert abs(fit_sum.slope) <= 0.15
    assert abs(fit_v11.slope + 1.0) <= 0.2


def test_flat_max_gradient_insensitive_to_halving_eps():
    cfg = replace(FAST_FLAT, eps_list=(4e-3, 2e-3))
    rows = ns.run_sweep(cfg)
    ratio = rows[1]["max_grad_u"] / rows[0]["max_grad_u"]
    assert ratio < 1.3


def test_flat_offdiagonal_much_smaller_than_diagonal(fast_flat_rows):
    ratios = [abs(r["a11_12"]) / r["a11_11"] for r in fast_flat_rows]
    assert all(r < 1e-3 for r in ratios)
    assert ratios[-1] < ratios[0]


def test_gram_eigenvalue_trends(fast_rows, fast_flat_rows):
    # point contact: conditioning of a11 worsens as the gap closes;
    # flat contact: the smallest eigenvalue stays bounded below
    def eigs(row):
        a = np.array([
            [row["a11_11"], row["a11_12"], row["a11_13"]],
            [row["a11_12"], row["a11_22"], row["a11_23"]],
            [row["a11_13"], row["a11_23"], row["a11_33"]],
        ])
        w = np.linalg.eigvalsh(a)
        return w[0], w[-1]

    rel = [lo / hi for lo, hi in map(eigs, fast_rows)]
    assert all(b < a for a, b in zip(rel, rel[1:]))
    lo_flat = [eigs(r)[0] for r in fast_flat_rows]
    assert min(lo_flat) > 0.25 * lo_flat[0]


def test_gram_diagonals_approach_analytic_constants():
    """As the gap closes, the translation diagonals converge to the fiber
    energies mu*pi/sqrt(eps) and (lam+2mu)*pi/sqrt(eps) of the gap-linear
    profile, pinning the material constants quantitatively."""
    import math
    base = math.pi / math.sqrt(1e-4)
    for lam, mu in ((1.0, 1.0), (2.0, 0.5)):
        cfg = replace(ns.ExperimentConfig(), elastic=ns.ElasticParams(lam, mu))
        row = ns.run_point(cfg, 1e-4)
        assert row["status"] == "ok"
        assert abs(row["a11_11"] / (mu * base) - 1.0) < 0.06
        assert abs(row["a11_22"] / ((lam + 2 * mu) * base) - 1.0) < 0.06


@pytest.mark.parametrize("phi, maxiter, method", [
    ("affine-x2", None, "direct"),      # every system at this size
    ("zero", None, "pcg"),              # v3 alone would be "trivial"
    ("affine-x2", 1, "pcg->direct"),    # every column gives up after 1 iteration
])
def test_solver_columns_report_the_block_solve(monkeypatch, phi, maxiter, method):
    if method != "direct":
        monkeypatch.setattr(ns.fem, "_DIRECT_MAX_FREE_DOFS", 0)
    if maxiter is not None:
        monkeypatch.setattr(ns.fem, "_PCG_MAXITER", maxiter)
    row = ns.run_point(replace(FAST, phi=phi), FAST.eps_list[0])
    assert row["status"] == "ok"
    assert row["solver_method"] == method
    if method == "direct":
        assert row["solver_iters"] == 0
    elif maxiter is not None:
        assert row["solver_iters"] == maxiter
    else:
        assert row["solver_iters"] > 0


@pytest.mark.parametrize("lam", [1000.0, -0.5])
def test_extreme_moduli_points_solve_directly(lam):
    """Nearly incompressible (lam/mu = 1000, where block PCG needed 16-24
    iterations per point) and auxetic (lam = -mu/2) points."""
    config = replace(FAST, elastic=ns.ElasticParams(lam, 1.0))
    report = ns.solve_point(config, FAST.eps_list[-1]).cells.report
    assert (report.method, report.iterations) == ("direct", 0)
    assert report.rel_residual <= 1e-12


def test_point_frees_its_mesh_without_the_cycle_collector(monkeypatch):
    """A point's mesh, space and stiffness are freed by reference counting:
    the mesh holds no reference to its P2Space, so no reference cycle is
    left for the cyclic collector.  The space is built once per point."""
    meshes, inits = [], []
    build, init = ns.harness.build_mesh, ns.P2Space.__init__

    def recording_build(*args, **kwargs):
        mesh = build(*args, **kwargs)
        meshes.append(weakref.ref(mesh))
        return mesh

    def counting_init(self, mesh):
        inits.append(mesh.n_cells)
        init(self, mesh)

    monkeypatch.setattr(ns.harness, "build_mesh", recording_build)
    monkeypatch.setattr(ns.P2Space, "__init__", counting_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        row = ns.run_point(FAST, FAST.eps_list[0])
        assert row["status"] == "ok"
        assert len(meshes) == 1 and len(inits) == 1
        assert meshes[0]() is None
    finally:
        if was_enabled:
            gc.enable()


def test_point_with_a_bad_tol_fails_before_meshing(monkeypatch):
    """A solver tolerance that cannot be met fails where the config is
    built, typed and named, and no mesh is built for it."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed a point whose tolerance is invalid")

    monkeypatch.setattr(ns.harness, "build_mesh", no_mesh)
    with pytest.raises(FemError, match="^tol must be finite and > 0"):
        replace(FAST, solver=ns.SolverConfig(tol=0.0))
    with pytest.raises(FemError, match="^tol must be finite and > 0"):
        main(["solve", "--tol", "0"])


def test_patch_energies_reuse_the_solved_point(monkeypatch):
    """solve_point and then patch_energy_profile build one P2 space and make
    one factorization between them: the patch energies read the point's own
    v1^1 instead of solving again."""
    inits, factors = [], []
    init = ns.P2Space.__init__

    def counting_init(self, mesh):
        inits.append(mesh.n_cells)
        init(self, mesh)

    def counting(factor):
        def wrapper(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ns.P2Space, "__init__", counting_init)
    for name in ("splu", "spilu"):
        monkeypatch.setattr(ns.fem.spla, name, counting(getattr(ns.fem.spla, name)))
    point = ns.solve_point(FAST, FAST.eps_list[0])
    pairs = ns.patch_energy_profile(point, (0.1, 0.2))
    assert len(inits) == 1 and len(factors) == 1
    assert len(pairs) == 2 and all(e > 0.0 for _, e in pairs)


def _reachable_ids(root) -> set:
    """Ids of every object reachable from ``root`` by references, not
    entering classes or modules."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return seen


def test_point_holds_its_stiffness_once(monkeypatch):
    """A point assembles K once and the solver keeps only blocks of it: the
    assembled matrix is freed before the LU is computed, and no factor is
    reachable from the solved cell problems afterwards."""
    stiffness = ns.P2Space.stiffness
    solve_cells = ns.harness.solve_cell_problems
    assembled, alive_at_factor, factors, solved = [], [], [], []

    def recording_stiffness(space, params):
        k = stiffness(space, params)
        assembled.append(weakref.ref(k))
        return k

    def recording(factor):
        def wrapper(*args, **kwargs):
            alive_at_factor.append([ref() is not None for ref in assembled])
            factors.append(factor(*args, **kwargs))
            return factors[-1]
        return wrapper

    def recording_solve_cells(*args, **kwargs):
        solved.append(solve_cells(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(ns.P2Space, "stiffness", recording_stiffness)
    for name in ("splu", "spilu"):
        monkeypatch.setattr(ns.fem.spla, name, recording(getattr(ns.fem.spla, name)))
    monkeypatch.setattr(ns.harness, "solve_cell_problems", recording_solve_cells)
    row = ns.run_point(FAST, FAST.eps_list[0])
    assert row["status"] == "ok"
    assert len(assembled) == 1
    assert alive_at_factor == [[False]]
    assert len(solved) == 1 and len(factors) == 1
    assert id(factors[0]) not in _reachable_ids(solved[0])
