import json
import re
from operator import attrgetter

import pytest

import neckstress.fem
from neckstress import load_mesh, read_csv
from neckstress.cli import main, oracle_table
from neckstress.harness import HarnessError, config_from_mapping
from neckstress.meshing import MeshingError


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


def test_sweep_subcommand_with_config(tmp_path, capsys):
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
    # the config echo nests the grading, moduli and solver blocks
    assert summary["config"]["grading"]["dx_min_frac"] == 0.5
    assert summary["config"]["elastic"] == {"lam": 1.0, "mu": 1.0}
    assert summary["config"]["solver"] == {"tol": 1e-10}
    assert summary["config"]["eps_list"] == [1e-2, 3e-3, 1e-3, 3e-4]
    out = capsys.readouterr().out
    assert "slope" in out


def test_fit_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "eps-list = 1e-2, 3e-3, 1e-3, 3e-4\n"
        "dx_min_frac = 0.5\ndx_max_frac = 0.12\narc_frac = 0.15\nn_radial = 6\n"
    )
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
    capsys.readouterr()
    rc = main(["fit", str(csv_path), "--column", "max_grad_u",
               "--exponent", "-0.5"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["predicted_exponent"] == -0.5
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
def test_oracle_subcommand_rejects_a_bad_tol(tmp_path, tol):
    # NaN used to reach the --out JSON as "tolerance": NaN, failing every case
    out = tmp_path / "oracle.json"
    with pytest.raises(HarnessError, match=f"^--tol must be finite and > 0, got {float(tol)!r}$"):
        main(["oracle", "--dims", "2", "--orders", "2", "--tol", tol, "--out", str(out)])
    assert not out.exists()


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("profile = flat\nr0 = 0.3\n")
    rc = main(["mesh", "--config", str(cfg), "--profile", "power",
               "--m", "2", "--eps", "1e-2"])
    assert rc == 0


@pytest.mark.parametrize("line,field,value", [
    ("layers = 6", "grading.n_layers", 6),
    ("mesh-budget = 5000", "grading.max_cells", 5000),
    ("tol = 1e-12", "solver.tol", 1e-12),
], ids=["layers", "mesh-budget", "tol"])
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
    for text in ("layers = 6\n", "n_layers = 6\n", "layers = 5\nn_layers = 6\n"):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--layers", "3"]) == 0
    assert [c.grading.n_layers for c in seen] == [3, 3, 3]


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


def test_mesh_subcommand_rejects_radial_ratio_below_one(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("radial_ratio = 0.5\n")
    with pytest.raises(MeshingError, match="radial_ratio"):
        main(["mesh", "--config", str(cfg), "--eps", "1e-2"])


@pytest.mark.parametrize("exponent", ["nan", "inf", "-inf"])
def test_fit_subcommand_rejects_an_exponent_that_is_not_finite(tmp_path, exponent):
    # json.dumps used to print it as NaN or Infinity, which is not JSON
    path = tmp_path / "sweep.csv"
    rows = "".join(f"{e},ok,{1.0 / e}\n" for e in (1e-1, 1e-2, 1e-3, 1e-4))
    path.write_text(f"# neckstress-v1\neps,status,max_grad_u\n{rows}")
    with pytest.raises(HarnessError, match=f"^--exponent must be finite, got {exponent}$"):
        main(["fit", str(path), f"--exponent={exponent}"])


def test_oracle_table_structure():
    rep = oracle_table([2], [2.0], n_eps=5)
    assert rep["n_cases"] == 5
    assert all(set(c) >= {"d", "k", "p", "m", "fitted", "law", "pass"}
               for c in rep["cases"])


@pytest.mark.parametrize("line, key, raw", [
    ("m = abc", "m", "abc"),
    ("layers = 4.5", "layers", "4.5"),
    ("eps_list = 1e-2, x", "eps_list", "1e-2, x"),
], ids=["m", "layers", "eps_list"])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, line, key, raw):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(HarnessError, match=re.escape(f"{key!r}: cannot parse {raw!r}")):
        main(["mesh", "--config", str(cfg)])
