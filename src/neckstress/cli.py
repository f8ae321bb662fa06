"""Command-line interface.

Subcommands: ``mesh`` (emit a mesh), ``solve`` (full pipeline at one gap
width), ``sweep`` (full experiment), ``fit`` (post-process a sweep CSV),
``oracle`` (quadrature-vs-scaling-law table, any dimension).  Options may
also come from a declarative ``key = value`` config file; explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import asymptotics as asy
from .harness import (
    TEXT_COLUMNS,
    ExperimentConfig,
    HarnessError,
    compare_oracles,
    config_from_mapping,
    fit_rate,
    load_config_file,
    read_csv,
    run_point,
    run_sweep,
    sweep_summary,
    write_csv,
)
from .meshing import build_mesh, save_mesh


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--profile", choices=["flat", "power"], help="geometry family")
    p.add_argument("--m", type=float, help="relative-convexity order (power)")
    p.add_argument("--r0", type=float, help="flat-set radius (flat)")
    p.add_argument("--kappa0", type=float)
    p.add_argument("--eps-list", dest="eps_list", help="comma-separated, decreasing")
    p.add_argument("--phi", help="affine-x2 | affine-x2x2 | shear-twist | rigid:<a> | zero")
    p.add_argument("--mesh-budget", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--budget-scale", dest="budget_scale", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", dest="out", help="output path")


def _list_of(convert):
    """argparse type of a comma-separated list, each item ``convert``-ed."""
    def parse(text: str) -> list:
        try:
            return [convert(s) for s in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__}s, got {text!r}") from None
    return parse


def _config_from_args(args) -> ExperimentConfig:
    config = config_from_mapping(load_config_file(args.config) if args.config else {})
    flags = {key: getattr(args, key) for key in (
        "profile", "m", "r0", "kappa0", "eps_list", "phi",
        "mesh_budget", "layers", "budget_scale", "tol")}
    return config_from_mapping(flags, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="neckstress",
        description="Thin-neck rigid-inclusion elasticity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="build and export a mesh")
    _add_common(p_mesh)
    p_mesh.add_argument("--eps", type=float, default=1e-2)

    p_solve = sub.add_parser("solve", help="full pipeline at a single eps")
    _add_common(p_solve)
    p_solve.add_argument("--eps", type=float, default=1e-2)
    p_solve.add_argument("--export-field", help="write the reconstructed field here")

    p_sweep = sub.add_parser("sweep", help="run the eps sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--json", dest="out_json", help="summary JSON path")

    p_fit = sub.add_parser("fit", help="fit rates from an existing sweep CSV")
    p_fit.add_argument("csv", help="sweep CSV file")
    p_fit.add_argument("--column", default="max_grad_u")
    p_fit.add_argument("--exponent", type=float, help="predicted exponent")

    p_or = sub.add_parser("oracle", help="quadrature oracle vs scaling laws")
    p_or.add_argument("--dims", type=_list_of(int), default="2,3,4")
    p_or.add_argument("--orders", type=_list_of(float), default="2,3,4,6")
    p_or.add_argument("--tol", type=float, default=0.05)
    p_or.add_argument("--out", help="JSON report path")

    args = parser.parse_args(argv)
    if args.command in ("solve", "sweep"):
        # the sparse solver stack loads once a command is known to solve, so
        # timing the points one by one does not charge the import to the first
        import scipy.sparse.linalg  # noqa: F401

    if args.command == "mesh":
        config = _config_from_args(args)
        mesh = build_mesh(config.profile_for(args.eps), config.grading)
        rep = mesh.grading_report
        print(f"mesh: {rep.n_nodes} nodes, {rep.n_cells} cells "
              f"({rep.n_neck_cells} in the neck), min quality {rep.min_quality:.3g}")
        if args.out:
            save_mesh(mesh, args.out)
            print(f"wrote {args.out}")
        return 0

    if args.command == "solve":
        config = replace(_config_from_args(args), out_field=args.export_field)
        row = run_point(config, args.eps)
        for key in ("status", "n_dofs", "max_grad_u", "argmax_x1", "a11_11",
                    "a11_33", "cdiff_1", "cdiff_3", "sys_residual",
                    "b_agree_rel", "message"):
            print(f"{key} = {row[key]}")
        if args.out:
            write_csv([row], args.out)
            print(f"wrote {args.out}")
        if args.export_field and row["status"] == "ok":
            print(f"wrote {args.export_field}")
        return 0 if row["status"] == "ok" else 1

    if args.command == "sweep":
        config = _config_from_args(args)
        config = replace(config, out_csv=args.out or config.out_csv,
                         out_json=args.out_json or config.out_json)
        rows = run_sweep(config)
        summary = sweep_summary(config, rows)
        fit = summary.get("fits", {}).get("max_grad_u")
        if fit:
            print(f"max|grad u| slope = {fit['slope']:.4f} (R2 = {fit['r2']:.4f}), "
                  f"predicted {fit['predicted_exponent']}")
        try:
            cmp_report = compare_oracles(config, rows)
            print("gram-entry comparison: "
                  + ("PASS" if cmp_report["pass"] else "FAIL"))
        except Exception as exc:
            print(f"gram-entry comparison skipped: {exc}")
        failed = [r for r in rows if r["status"] != "ok"]
        if failed:
            print(f"{len(failed)} of {len(rows)} points failed")
        return 0 if not failed else 1

    if args.command == "fit":
        rows = read_csv(args.csv)
        if rows and args.column not in rows[0]:
            raise HarnessError(f"{args.csv}: no column {args.column!r}")
        if args.column in TEXT_COLUMNS:
            raise HarnessError(f"{args.csv}: column {args.column!r} is not numeric")
        samples = [(r["eps"], r[args.column]) for r in rows
                   if r["status"] == "ok" and np.isfinite(r[args.column])
                   and r[args.column] > 0]
        if args.exponent is not None and not math.isfinite(args.exponent):
            # json.dumps would print it as NaN or Infinity, which is not JSON
            raise HarnessError(f"--exponent must be finite, got {args.exponent!r}")
        law = None if args.exponent is None else asy.ScalingLaw(args.exponent)
        fit = fit_rate(samples, law)
        print(json.dumps(fit.as_dict(), indent=2))
        return 0

    if args.command == "oracle":
        report = oracle_table(args.dims, args.orders, tol=args.tol)
        for line in report["lines"]:
            print(line)
        print(f"oracle vs scaling laws: {report['n_pass']}/{report['n_cases']} PASS")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
        return 0 if report["n_pass"] == report["n_cases"] else 1

    raise AssertionError("unreachable")


def oracle_table(dims, orders, eps_lo: float = 1e-6, eps_hi: float = 1e-2,
                 n_eps: int = 9, tol: float = 0.05) -> dict:
    """Fitted oracle exponents against the rho laws for every integrand pair
    behind the Gram-entry scaling laws; log branches use the corrected fit."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise HarnessError(f"--tol must be finite and > 0, got {tol!r}")
    eps_grid = np.logspace(np.log10(eps_hi), np.log10(eps_lo), n_eps)
    lines = []
    cases = []
    for d in dims:
        for k, p, rho_kind, rho_k in asy.gram_integral_cases(d):
            for m in orders:
                law = asy.rho_law(rho_kind, rho_k, m)
                vals = [(e, asy.singular_integral_oracle(k, m, p, e)) for e in eps_grid]
                fit = fit_rate(vals, law)
                slope = fit.law_slope
                dev = abs(slope - law.exponent)
                ok = dev <= tol
                tagtxt = "log" if law.log_factor else "   "
                lines.append(
                    f"d={d} k={k} p={p:<3} m={m:<3} rho{rho_kind}({rho_k},m) {tagtxt} "
                    f"fit={slope:+.4f} law={law.exponent:+.4f} dev={dev:.4f} "
                    + ("PASS" if ok else "FAIL"))
                cases.append({
                    "d": d, "k": k, "p": p, "m": m,
                    "rho_kind": rho_kind, "rho_k": rho_k,
                    "fitted": slope, "law": law.exponent,
                    "has_log": bool(law.log_factor), "deviation": dev, "pass": bool(ok),
                })
    return {"lines": lines, "cases": cases, "n_pass": sum(c["pass"] for c in cases),
            "n_cases": len(cases), "tolerance": tol}


if __name__ == "__main__":
    sys.exit(main())
