"""What importing the package loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str, tmp_path) -> str:
    """Run a script in a fresh interpreter with the package on its path."""
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_importing_and_meshing_load_no_scipy(tmp_path):
    out = run_fresh("""
        import contextlib, io, sys
        import neckstress, neckstress.cli
        from neckstress import meshing
        grading = meshing.GradingConfig(dx_min_frac=0.4, dx_max_frac=0.1,
                                        arc_frac=0.12, n_radial=6)
        mesh = meshing.build_mesh(neckstress.make_profile("power", epsilon=1e-2, m=2.0),
                                  grading)
        meshing.validate_mesh(mesh)
        meshing.save_mesh(mesh, "mesh.txt")
        assert meshing.load_mesh("mesh.txt").n_cells == mesh.n_cells
        with contextlib.redirect_stdout(io.StringIO()):
            assert neckstress.cli.main(["mesh", "--eps", "1e-1",
                                        "--out", "cli_mesh.txt"]) == 0
            try:
                neckstress.cli.main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, tmp_path)
    assert out.strip() == "[]"

