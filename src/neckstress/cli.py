"""Command-line interface.

Subcommands: ``mesh`` (emit a mesh), ``solve`` (full pipeline at one gap
width), ``sweep`` (full experiment), ``fit`` (post-process a sweep CSV),
``oracle`` (quadrature-vs-scaling-law table, any dimension).  Options may
also come from a declarative ``key = value`` config file; explicit flags
override the file.  The console script and ``python -m neckstress`` run
:func:`run`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import asymptotics as asy
from .elasticity import ElasticityError
from .geometry import GeometryError
from .harness import (
    TEXT_COLUMNS,
    ExperimentConfig,
    HarnessError,
    column_samples,
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
from .meshing import MeshingError, build_mesh, save_mesh


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--profile", choices=["flat", "power"], help="geometry family")
    p.add_argument("--m", type=float, help="relative-convexity order (power)")
    p.add_argument("--r0", type=float, help="flat-set radius (flat)")
    p.add_argument("--kappa0", type=float)
    p.add_argument("--budget-scale", dest="budget_scale", type=float)
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
    # a flag the subcommand does not take reads as None: the file's value
    config = config_from_mapping(load_config_file(args.config) if args.config else {})
    flags = {key: getattr(args, key, None) for key in (
        "profile", "m", "r0", "kappa0", "eps_list", "phi", "budget_scale")}
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
    p_sweep.add_argument("--eps-list", dest="eps_list", help="comma-separated, decreasing")
    for p in (p_solve, p_sweep):   # mesh reads no boundary data
        p.add_argument("--phi", help="affine-x2 | affine-x2x2 | shear-twist | rigid:<a> | zero")
    p_sweep.add_argument("--json", help="summary JSON path")

    p_fit = sub.add_parser("fit", help="fit rates from an existing sweep CSV")
    p_fit.add_argument("csv", help="sweep CSV file")
    p_fit.add_argument("--column", default="max_grad_u")

    p_or = sub.add_parser("oracle", help="quadrature oracle vs scaling laws")
    p_or.add_argument("--dims", type=_list_of(int), default="2,3,4")
    p_or.add_argument("--orders", type=_list_of(float), default="2,3,4,6")
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
        t0 = time.perf_counter()
        rows = run_sweep(config)
        wall_time_s = time.perf_counter() - t0
        summary = sweep_summary(config, rows)
        summary["wall_time_s"] = wall_time_s
        if args.out:
            write_csv(rows, args.out)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump(summary, f, indent=2, sort_keys=True)
        fit = summary["fits"].get("max_grad_u")
        if fit:
            print(f"max|grad u| slope = {fit['slope']:.4f} (R2 = {fit['r2']:.4f}), "
                  f"predicted {summary['predicted_rate']['exponent']}")
        try:
            cmp_report = compare_oracles(config, rows)
            print("gram-entry comparison: "
                  + ("PASS" if cmp_report["pass"] else "FAIL"))
        except (HarnessError, asy.AsymptoticsError) as exc:
            # fewer than 4 ok rows, or an eps outside the rho laws' (0, 1/2)
            print(f"gram-entry comparison skipped: {exc}")
        if summary["n_failed"]:
            print(f"{summary['n_failed']} of {len(rows)} points failed")
        return 1 if summary["n_failed"] else 0

    if args.command == "fit":
        rows = read_csv(args.csv)
        if rows and args.column not in rows[0]:
            raise HarnessError(f"{args.csv}: no column {args.column!r}")
        if args.column in TEXT_COLUMNS:
            raise HarnessError(f"{args.csv}: column {args.column!r} is not numeric")
        print(json.dumps(fit_rate(column_samples(rows, args.column)).as_dict(), indent=2))
        return 0

    if args.command == "oracle":
        report = oracle_table(args.dims, args.orders)
        for line in report["lines"]:
            print(line)
        print(f"oracle vs scaling laws: {report['n_pass']}/{report['n_cases']} PASS")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
        return 0 if report["n_pass"] == report["n_cases"] else 1

    raise AssertionError("unreachable")


# the package's errors that name a bad input rather than a fault of the code
_INPUT_ERRORS = (GeometryError, MeshingError, HarnessError, ElasticityError,
                 asy.AsymptoticsError)


def run(argv=None) -> int:
    """:func:`main`, with an input error printed as one stderr line,
    ``neckstress: <Type>: <message>``, and exit status 1."""
    try:
        return main(argv)
    except _INPUT_ERRORS as exc:
        print(f"neckstress: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# the oracle table's gap widths, and the largest deviation of a fitted slope
# from its law's exponent that passes
_ORACLE_EPS = np.logspace(-2.0, -6.0, 9)
_ORACLE_TOL = 0.05


def oracle_table(dims, orders) -> dict:
    """Fitted oracle exponents against the rho laws for every integrand pair
    behind the Gram-entry scaling laws; log branches use the corrected fit."""
    lines = []
    cases = []
    for d in dims:
        for k, p, rho_kind, rho_k in asy.gram_integral_cases(d):
            for m in orders:
                law = asy.rho_law(rho_kind, rho_k, m)
                vals = [(e, asy.singular_integral_oracle(k, m, p, e)) for e in _ORACLE_EPS]
                slope = fit_rate(vals, law).law_slope
                dev = abs(slope - law.exponent)
                ok = dev <= _ORACLE_TOL
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
            "n_cases": len(cases), "tolerance": _ORACLE_TOL}
