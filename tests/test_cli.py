import json
import re
from operator import attrgetter

import pytest

import neckstress.fem
from neckstress import load_mesh, read_csv
from neckstress.asymptotics import AsymptoticsError
from neckstress.cli import main, oracle_table
from neckstress.harness import HarnessError, config_from_mapping


def test_mesh_subcommand(tmp_path, capsys):
    out = tmp_path / "m.txt"
    rc = main(["mesh", "--eps", "1e-2", "--out", str(out)])
    assert rc == 0
    assert "nodes" in capsys.readouterr().out
    mesh = load_mesh(str(out))
    assert mesh.n_cells > 0


def test_solve_subcommand(tmp_path, capsys, monkeypatch):
    # the export reuses the point's solution: one factorization per solve
    built = []
    init = neckstress.fem.DirichletSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(neckstress.fem.DirichletSolver, "__init__", counting_init)
    out = tmp_path / "row.csv"
    field = tmp_path / "field.txt"
    rc = main(["solve", "--eps", "1e-2", "--profile", "power", "--m", "2",
               "--out", str(out), "--export-field", str(field)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "max_grad_u" in text
    rows = read_csv(str(out))
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    assert len(built) == 1
    lines = field.read_text().splitlines()
    assert lines[0] == "# neckstress-field-v1"
    dof_lines = [ln for ln in lines if not ln.startswith("#")]
    assert len(dof_lines) == rows[0]["n_dofs"] / 2


def test_sweep_subcommand_with_config(tmp_path, capsys, monkeypatch):
    # run_sweep used to build the JSON's summary and main a second one
    calls = []
    summarize = neckstress.harness.sweep_summary

    def counting(*args):
        calls.append(args)
        return summarize(*args)

    monkeypatch.setattr(neckstress.harness, "sweep_summary", counting)
    monkeypatch.setattr(neckstress.cli, "sweep_summary", counting)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "profile = power\n"
        "m = 2\n"
        "eps-list = 1e-2, 3e-3, 1e-3, 3e-4\n"
        "dx_min_frac = 0.5\ndx_max_frac = 0.12\narc_frac = 0.15\nn_radial = 6\n"
    )
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    rc = main(["sweep", "--config", str(cfg), "--out", str(csv_path),
               "--json", str(json_path)])
    assert rc == 0
    rows = read_csv(str(csv_path))
    assert len(rows) == 4
    summary = json.loads(json_path.read_text())
    assert summary["n_failed"] == 0
    assert "max_grad_u" in summary["fits"]
    # the config echo nests the grading block; the moduli are one ratio
    assert summary["config"]["grading"]["dx_min_frac"] == 0.5
    assert summary["config"]["lam"] == 1.0 and "elastic" not in summary["config"]
    assert "solver" not in summary["config"]
    assert summary["config"]["eps_list"] == [1e-2, 3e-3, 1e-3, 3e-4]
    assert len(calls) == 1
    slope = summary["fits"]["max_grad_u"]["slope"]
    assert f"max|grad u| slope = {slope:.4f} " in capsys.readouterr().out


def test_fit_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "eps-list = 1e-2, 3e-3, 1e-3, 3e-4\n"
        "dx_min_frac = 0.5\ndx_max_frac = 0.12\narc_frac = 0.15\nn_radial = 6\n"
    )
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
    capsys.readouterr()
    rc = main(["fit", str(csv_path), "--column", "max_grad_u"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert -0.65 < data["slope"] < -0.35


def test_fit_subcommand_names_an_unknown_column(tmp_path):
    # the column lookup used to raise KeyError
    path = tmp_path / "sweep.csv"
    rows = "".join(f"{e},ok,{1.0 / e}\n" for e in (1e-1, 1e-2, 1e-3, 1e-4))
    path.write_text(f"# neckstress-v1\neps,status,max_grad_u\n{rows}")
    with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}: no column 'nope'$"):
        main(["fit", str(path), "--column", "nope"])


def test_fit_subcommand_rejects_a_text_column(tmp_path):
    # np.isfinite used to raise TypeError on the strings of the column
    path = tmp_path / "sweep.csv"
    rows = "".join(f"{e},ok,{1.0 / e}\n" for e in (1e-1, 1e-2, 1e-3, 1e-4))
    path.write_text(f"# neckstress-v1\neps,status,max_grad_u\n{rows}")
    with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}: column 'status' is not numeric$"):
        main(["fit", str(path), "--column", "status"])


@pytest.mark.parametrize("eps, message", [
    ((1e-1, 0.0, 1e-3, 1e-4), "every eps finite and > 0"),
    ((1e-1, "nan", 1e-3, 1e-4), "every eps finite and > 0"),
    ((1e-2, 1e-2, 1e-2, 1e-2), "at least two distinct eps"),
], ids=["zero", "nan", "repeated"])
def test_fit_subcommand_rejects_eps_that_make_the_fit_meaningless(tmp_path, eps, message):
    # a 0 or NaN eps used to print a NaN slope and exit 0, and one eps
    # repeated to end in ZeroDivisionError
    path = tmp_path / "sweep.csv"
    rows = "".join(f"{e},ok,{1.0 + i}\n" for i, e in enumerate(eps))
    path.write_text(f"# neckstress-v1\neps,status,max_grad_u\n{rows}")
    with pytest.raises(HarnessError, match=f"^rate fitting requires {message}$"):
        main(["fit", str(path)])


# the coarse sweep of the CI workflow: four points, about a second
COARSE_CFG = ("dx_min_frac = 0.5\ndx_max_frac = 0.12\narc_frac = 0.15\nn_radial = 6\n"
              "eps-list = 1e-2, 5e-3, 2.5e-3, 1.25e-3\n")


def _coarse_sweep(tmp_path, *flags):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE_CFG)
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    assert main(["sweep", "--config", str(cfg), *flags, "--out", str(csv_path),
                 "--json", str(json_path)]) == 0
    return csv_path, json.loads(json_path.read_text())


def test_fit_subcommand_prints_the_sweep_fit_of_each_column(tmp_path, capsys):
    # the sweep's max_grad_u fit used to repeat the predicted law, which fit
    # printed as null
    csv_path, summary = _coarse_sweep(tmp_path)
    assert len(summary["fits"]) == 10
    for column, fit in summary["fits"].items():
        capsys.readouterr()
        assert main(["fit", str(csv_path), "--column", column]) == 0
        assert json.loads(capsys.readouterr().out) == fit


def test_sweep_json_corrects_only_the_fit_under_a_log_law(tmp_path):
    # at m = 3 in d = 2 the law of max_grad_u carries a |log eps| factor
    _, summary = _coarse_sweep(tmp_path, "--m", "3", "--phi", "shear-twist")
    assert summary["predicted_rate"]["log_factor"] == -1
    corrected = [c for c, fit in summary["fits"].items() if "corrected_slope" in fit]
    assert corrected == ["max_grad_u"]
    for fit in summary["fits"].values():
        assert not {"predicted_exponent", "log_factor"} & set(fit)
        assert None not in fit.values()


@pytest.mark.parametrize("flag", ["--dims", "--orders"])
def test_oracle_subcommand_rejects_a_list_item_that_does_not_parse(flag, capsys):
    # int()/float() used to end in a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        main(["oracle", flag, "2,x"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected comma-separated" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--dims", "2", "--orders", "2,3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    report = json.loads(out.read_text())
    assert report["n_pass"] == report["n_cases"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_oracle_subcommand_rejects_a_bad_tol(tmp_path, capsys, tol):
    # NaN used to reach the --out JSON as "tolerance": NaN, failing every
    # case; the slope tolerance is now fixed, so any --tol is a usage error
    out = tmp_path / "oracle.json"
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--dims", "2", "--orders", "2", "--tol", tol, "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["inf", "nan"])
def test_oracle_subcommand_rejects_an_order_that_is_not_finite(tmp_path, order):
    # inf used to write "m": Infinity and "law": NaN into the report, which
    # is not JSON; nan ended in QuadratureError without naming the order
    out = tmp_path / "oracle.json"
    with pytest.raises(AsymptoticsError, match=f"^rho requires a finite m >= 2, got {order}$"):
        main(["oracle", "--dims", "2", "--orders", order, "--out", str(out)])
    assert not out.exists()


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("profile = power\nm = 4\n")
    out = tmp_path / "m.txt"
    rc = main(["mesh", "--config", str(cfg), "--m", "2", "--eps", "1e-2",
               "--out", str(out)])
    assert rc == 0
    assert load_mesh(str(out)).meta["m"] == 2.0


def test_sweep_raises_a_fault_of_the_gram_entry_comparison(monkeypatch):
    # any exception used to print "gram-entry comparison skipped" and exit 0
    def broken(config, rows):
        raise RuntimeError("comparison fault")

    monkeypatch.setattr(neckstress.cli, "run_sweep", lambda config: [])
    monkeypatch.setattr(neckstress.cli, "compare_oracles", broken)
    with pytest.raises(RuntimeError, match="^comparison fault$"):
        main(["sweep"])


@pytest.mark.parametrize("line,field,value", [
    ("profile = flat", "kind", "flat"),
    ("budget-scale = 2", "grading.budget_scale", 2.0),
], ids=["profile", "budget-scale"])
def test_config_file_takes_the_flag_name(tmp_path, monkeypatch, line, field, value):
    """A config-file key spelled like its flag sets the same field as the
    flag does."""
    seen = []
    monkeypatch.setattr(neckstress.cli, "run_sweep", lambda config: seen.append(config) or [])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    flag, raw = (s.strip() for s in line.split("="))
    assert main(["sweep", f"--{flag}", raw]) == 0
    assert [attrgetter(field)(c) for c in seen] == [value, value]


def test_flag_overrides_a_config_key_of_either_name(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(neckstress.cli, "run_sweep", lambda config: seen.append(config) or [])
    cfg = tmp_path / "exp.cfg"
    for text in ("profile = flat\n", "kind = flat\n"):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--profile", "power"]) == 0
    assert [c.kind for c in seen] == ["power", "power"]


def test_dim_is_not_a_config_key(tmp_path):
    with pytest.raises(HarnessError, match="dim"):
        config_from_mapping({"dim": 2})
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dim = 2\n")
    with pytest.raises(HarnessError, match="dim"):
        main(["mesh", "--config", str(cfg)])


def test_dim_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--dim", "2"])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err


def test_tol_flag_is_a_usage_error_outside_oracle(capsys):
    # the linear solver takes no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_mesh_subcommand_rejects_radial_ratio_below_one(tmp_path):
    # below 1 the ring spacings summed to less than a ray and meshing never
    # ended; the ratio is now fixed at 1.4, so the key itself is rejected
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("radial_ratio = 0.5\n")
    with pytest.raises(HarnessError, match="^unknown config key 'radial_ratio'$"):
        main(["mesh", "--config", str(cfg), "--eps", "1e-2"])


@pytest.mark.parametrize("flag", ["--layers", "--mesh-budget"])
def test_removed_grading_flag_is_a_usage_error(capsys, flag):
    # the layer count and the cell cap are fixed
    with pytest.raises(SystemExit) as exc:
        main(["mesh", flag, "5"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_settings_no_command_reads_are_rejected(tmp_path, capsys):
    # mu is the unit of stress (lam is read as lambda/mu); mesh reads no
    # boundary data and no gap list, solve no gap list, and fit no exponent
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("mu = 2\n")
    with pytest.raises(HarnessError, match="^unknown config key 'mu'$"):
        main(["solve", "--config", str(cfg)])
    for argv, flag in ((["mesh", "--phi", "zero"], "--phi"),
                       (["mesh", "--eps-list", "1e-2"], "--eps-list"),
                       (["solve", "--eps-list", "1e-2"], "--eps-list"),
                       (["fit", "f.csv", "--exponent", "-0.5"], "--exponent")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_oracle_table_structure():
    rep = oracle_table([2], [2.0])
    assert rep["n_cases"] == 5 and rep["tolerance"] == 0.05
    assert all(set(c) >= {"d", "k", "p", "m", "fitted", "law", "pass"}
               for c in rep["cases"])


@pytest.mark.parametrize("line, key, raw", [
    ("m = abc", "m", "abc"),
    ("n_radial = 4.5", "n_radial", "4.5"),
    ("eps_list = 1e-2, x", "eps_list", "1e-2, x"),
], ids=["m", "n_radial", "eps_list"])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, line, key, raw):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(HarnessError, match=re.escape(f"{key!r}: cannot parse {raw!r}")):
        main(["mesh", "--config", str(cfg)])
