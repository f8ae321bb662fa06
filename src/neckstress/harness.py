"""Experiment orchestration: gap sweeps, log-log rate fits against the
predicted exponents, oracle comparisons, the sweep CSV and its summary.

Every sweep row is reproducible in isolation from the recorded config; runs
are deterministic, so identical configs produce bit-identical CSV files.
Wall-clock times are reported only in the JSON summary for that reason.
"""

from __future__ import annotations

import io
import logging
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import asymptotics as asy
from .decomposition import (
    CellSolutions,
    CoefficientSystem,
    assemble_system,
    reconstruct,
    solve_cell_problems,
    solve_coefficients,
    sum_field_check,
)
from .elasticity import ElasticParams, rigid_basis
from .fem import (
    DisplacementField,
    boundary_traction_moment,
    export_field,
    gradient_sq_integral,
    max_gradient,
)
from .geometry import NeckProfile, gap, make_profile, neck_region
from .meshing import FLOAT_FMT, BoundaryTag, GradingConfig, build_mesh

logger = logging.getLogger(__name__)

CSV_SCHEMA = "# neckstress-v1"

CSV_COLUMNS = [
    "eps", "status", "n_dofs", "n_cells",
    "max_grad_u", "argmax_x1", "argmax_x2",
    "a11_11", "a11_12", "a11_13", "a11_22", "a11_23", "a11_33",
    "cdiff_1", "cdiff_2", "cdiff_3",
    "c1_1", "c1_2", "c1_3", "c2_1", "c2_2", "c2_3",
    "sys_residual", "p_residual", "asym_defect", "b_agree_rel",
    "sumgrad_1", "sumgrad_2", "sumgrad_3", "maxgrad_v11",
    "solver_iters", "solver_method", "message",
]


# the CSV columns that hold text; every other column is a number
TEXT_COLUMNS = ("status", "solver_method", "message")


class HarnessError(RuntimeError):
    pass


def default_eps_list() -> tuple[float, ...]:
    return tuple(np.logspace(-1.5, -4.0, 8))


# gradients are measured in the neck strip |x1| < NECK_MEASURE_FRAC r_neck,
# which stops short of the closure-arc junction at |x1| = r_neck
NECK_MEASURE_FRAC = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    """One two-dimensional experiment: geometry family and its shape value
    (``m`` for power, None reading as 2; ``r0`` for flat), boundary data, the
    mesh grading, ``lam`` read as lambda/mu with mu = 1 the unit of stress,
    and the strictly decreasing list of gap widths to sweep.  Every part is
    validated here, so a bad experiment fails before anything is meshed; the
    kind is stored lower-case.  The neck chart radius (1), the outer radius
    (5) and the measurement strip are fixed.  The only output path is
    ``out_field``, set by ``solve --export-field``."""

    kind: str = "power"            # "power" | "flat"
    m: float | None = None
    r0: float = 0.0
    kappa0: float = 1.0
    eps_list: tuple = field(default_factory=default_eps_list)
    phi: str = "affine-x2"
    grading: GradingConfig = GradingConfig()
    lam: float = 1.0
    out_field: str | None = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if not eps:
            raise HarnessError("eps_list must not be empty")
        for e in eps:
            if not (math.isfinite(e) and e > 0.0):
                raise HarnessError(f"eps_list values must be finite and > 0, got {e!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise HarnessError("eps_list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        resolve_phi(self.phi)   # validates the selector
        ElasticParams(self.lam, 1.0)    # validates the ratio
        # validates the geometry at every eps; the kind is stored as the
        # profile spells it, so "FLAT" reads as "flat" everywhere
        object.__setattr__(self, "kind", self.profile_for(eps[0]).kind.value)
        if asy.predicted_rate(2, self.geometry_for_rates()).log_factor and eps[0] >= 1.0:
            raise HarnessError(f"eps_list values must be < 1 under a |log eps| law, got {eps[0]!r}")

    def profile_for(self, eps: float) -> NeckProfile:
        """The profile at gap width ``eps``; a shape value the kind does not
        take (power with r0, flat with m) raises ``GeometryError``."""
        return make_profile(self.kind, epsilon=eps, kappa0=self.kappa0,
                            m=self.m, r0=self.r0)

    def geometry_for_rates(self) -> tuple:
        """("flat", flat-set measure) for flat contact with r0 > 0, else
        ("power", m); flat with r0 = 0 is order-2 point contact.  Every rate
        law and envelope reads the geometry from here."""
        if self.kind == "flat" and self.r0 > 0.0:
            return ("flat", 2.0 * self.r0)
        return ("power", 2.0 if self.m is None else self.m)


def resolve_phi(selector: str):
    """Boundary-data selector to callable: 'affine-x2' is (x2, 0),
    'affine-x2x2' is (x2, x2), 'rigid:<a>' the a-th rigid motion, 'zero'."""
    if selector == "zero":
        return lambda pts: np.zeros_like(pts)
    if selector == "affine-x2":
        return lambda pts: np.column_stack([pts[:, 1], np.zeros(pts.shape[0])])
    if selector == "affine-x2x2":
        return lambda pts: np.column_stack([pts[:, 1], pts[:, 1]])
    if selector == "shear-twist":
        # shear plus a relative torque between the two inclusions; the twist
        # component breaks the mid-gap mirror symmetry that otherwise nulls
        # the rotation-coefficient differences
        return lambda pts: np.column_stack([pts[:, 1], pts[:, 0] * pts[:, 1]])
    if selector.startswith("rigid:"):
        basis = rigid_basis(2)
        try:
            alpha = int(selector.split(":", 1)[1])
        except ValueError:
            alpha = 0
        if not 1 <= alpha <= len(basis):
            raise HarnessError(f"boundary data selector {selector!r}: "
                               f"rigid index must be 1..{len(basis)}")
        return basis[alpha - 1]
    raise HarnessError(f"unknown boundary data selector {selector!r}")


# ---------------------------------------------------------------------------
# single point

def run_point(config: ExperimentConfig, eps: float) -> dict:
    """Solve the whole pipeline at one gap width and measure everything.

    Returns a CSV row dict; failures are recorded in-row with status
    "error" so a sweep can continue.  With ``config.out_field`` set, the
    reconstructed field is also exported there."""
    row = {k: float("nan") for k in CSV_COLUMNS}
    row.update(eps=eps, status="ok", message="", solver_method="")
    try:
        _measure_point(config, eps, row)
    except Exception as exc:  # recorded, not raised: sweeps must continue
        row["status"] = "error"
        row["message"] = f"{type(exc).__name__}: {exc}"
        logger.exception("eps=%.3e failed: %s", eps, row["message"])
    return row


@dataclass(frozen=True)
class SolvedPoint:
    """One gap width solved: its profile, the cell problems with the solver
    that holds their stiffness blocks, the coefficient system and the
    reconstructed displacement."""

    profile: NeckProfile
    cells: CellSolutions
    system: CoefficientSystem
    u: DisplacementField


def solve_point(config: ExperimentConfig, eps: float) -> SolvedPoint:
    """Mesh the shell at one gap width and run the whole pipeline on it:
    the cell problems in one block solve, the coefficient system, and the
    reconstruction."""
    profile = config.profile_for(eps)
    mesh = build_mesh(profile, config.grading)
    cells = solve_cell_problems(mesh, ElasticParams(config.lam, 1.0), resolve_phi(config.phi))
    system = solve_coefficients(assemble_system(cells))
    return SolvedPoint(profile, cells, system, reconstruct(cells, system))


def _measure_point(config: ExperimentConfig, eps: float, row: dict):
    point = solve_point(config, eps)
    profile, cells, system, u = point.profile, point.cells, point.system, point.u
    region = neck_region(profile, NECK_MEASURE_FRAC * profile.r_neck)
    (gmax, where), (row["maxgrad_v11"], _) = max_gradient([u, cells.v[(1, 1)]], region)
    row["n_dofs"] = 2 * u.space.n_scalar
    row["n_cells"] = u.space.mesh.n_cells
    row["max_grad_u"] = gmax
    row["argmax_x1"], row["argmax_x2"] = where
    for lab, (al, be) in {**DIAG_ENTRIES, **OFFDIAG_ENTRIES}.items():
        row[f"a11_{lab}"] = system.a11[al - 1, be - 1]
    for al in range(1, 4):
        row[f"cdiff_{al}"] = abs(system.diff[al - 1])
        row[f"c1_{al}"] = system.c1[al - 1]
        row[f"c2_{al}"] = system.c2[al - 1]
    row["sys_residual"] = system.residual
    row["p_residual"] = system.residual_p
    row["asym_defect"] = system.gram_defect

    b_tr = np.array(boundary_traction_moment(
        cells.solver, cells.v3, BoundaryTag.INCLUSION_TOP, cells.basis))
    row["b_agree_rel"] = float(
        np.linalg.norm(b_tr - system.b1) / max(np.linalg.norm(system.b1), 1e-300))

    for al, (val, _) in sum_field_check(cells, region).items():
        row[f"sumgrad_{al}"] = val
    row["solver_iters"] = cells.report.iterations
    row["solver_method"] = cells.report.method
    if config.out_field:
        export_field(u, config.out_field)


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """One row per eps, in the configured (decreasing) order.  Writes
    nothing: ``neckstress sweep`` writes the rows and their summary."""
    return [run_point(config, eps) for eps in config.eps_list]


# ---------------------------------------------------------------------------
# CSV

def _fmt(v) -> str:
    if isinstance(v, str):
        return v.replace(",", ";").replace("\n", " ")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return FLOAT_FMT % float(v)


def dumps_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_csv(rows: list[dict], path: str):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_csv(rows))


def read_csv(path: str) -> list[dict]:
    """Rows of a file written by :func:`write_csv`.  A missing schema or
    column header, or a row whose field count differs from the header's,
    raises :class:`HarnessError` naming the path and line."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(i, ln) for i, ln in enumerate(f.read().splitlines(), 1) if ln]
    if not lines or lines[0][1] != CSV_SCHEMA:
        raise HarnessError(f"{path}: missing schema header {CSV_SCHEMA!r}")
    if len(lines) < 2:
        raise HarnessError(f"{path}: missing column header after the schema line")
    header = lines[1][1].split(",")
    rows = []
    for lineno, ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise HarnessError(f"{path}:{lineno}: {len(parts)} fields, "
                               f"the header has {len(header)}")
        row = {}
        for key, raw in zip(header, parts):
            if key in TEXT_COLUMNS:
                row[key] = raw
                continue
            try:
                row[key] = float(raw)
            except ValueError:
                raise HarnessError(f"{path}:{lineno}: column {key!r}: "
                                   f"not a number: {raw!r}") from None
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# rate fitting

@dataclass
class RateFit:
    """Least-squares fit of log(value) against log(eps).

    When the law carries a |log eps| factor the corrected fit divides it
    out first, and :attr:`law_slope` is the corrected slope.
    """

    eps: tuple
    values: tuple
    slope: float
    intercept: float
    r2: float
    corrected_slope: float | None = None
    corrected_r2: float | None = None

    @property
    def law_slope(self) -> float:
        """The slope to set against the law's exponent."""
        return self.slope if self.corrected_slope is None else self.corrected_slope

    def as_dict(self) -> dict:
        """The fields that hold a value: what the fit measured, no law."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def fit_rate(samples, law: asy.ScalingLaw | None = None) -> RateFit:
    """samples: iterable of (eps, value), >= 4 points with two distinct eps,
    each eps and value finite and > 0.  A ``law`` with a |log eps| factor adds
    the corrected fit, and then every eps must be < 1, where it vanishes."""
    pairs = [(float(e), float(v)) for e, v in samples]
    if len(pairs) < 4:
        raise HarnessError(f"need at least 4 samples for a fit, got {len(pairs)}")
    eps, val = (np.array(column) for column in zip(*pairs))
    for name, xs in (("eps", eps), ("value", val)):
        if not np.all(np.isfinite(xs) & (xs > 0.0)):
            raise HarnessError(f"rate fitting requires every {name} finite and > 0")
    if np.unique(eps).size < 2:
        raise HarnessError("rate fitting requires at least two distinct eps")
    log_factor = 0 if law is None else law.log_factor
    if log_factor and eps.max() >= 1.0:
        raise HarnessError("a |log eps| law requires every eps < 1")
    fit = RateFit(tuple(eps), tuple(val), *_loglog_fit(eps, val))
    if log_factor:
        corrected = val / np.abs(np.log(eps)) ** log_factor
        fit.corrected_slope, _, fit.corrected_r2 = _loglog_fit(eps, corrected)
    return fit


def _loglog_fit(eps, val):
    x = np.log(eps)
    y = np.log(val)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    syy = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / syy if syy > 0 else 1.0
    return slope, intercept, r2


def column_samples(rows: list[dict], column: str) -> list[tuple]:
    """(eps, value) of ``column`` in the ok rows whose value is finite and
    positive: the samples every rate fit of a sweep's column reads."""
    return [(r["eps"], r[column]) for r in rows
            if r["status"] == "ok" and np.isfinite(r[column]) and r[column] > 0]


def sweep_summary(config: ExperimentConfig, rows: list[dict]) -> dict:
    """The config echo, its ``predicted_rate`` law of ``max_grad_u``, the fit
    of each standard column with at least 4 samples (:func:`column_samples`),
    and the eps and exception type of each failed point."""
    law = asy.predicted_rate(2, config.geometry_for_rates())
    failed = [r for r in rows if r["status"] != "ok"]
    summary = {
        "config": asdict(config),
        "n_rows": len(rows),
        "n_failed": len(failed),
        # run_point records failures as "<exception type>: <text>"
        "failures": [{"eps": r["eps"], "error": r["message"].split(":", 1)[0],
                      "message": r["message"]} for r in failed],
        "predicted_rate": asdict(law),
        "fits": {},
    }
    for col in ("max_grad_u", "a11_11", "a11_33", "cdiff_1", "cdiff_2",
                "cdiff_3", "sumgrad_1", "sumgrad_2", "sumgrad_3", "maxgrad_v11"):
        samples = column_samples(rows, col)
        if len(samples) >= 4:
            summary["fits"][col] = fit_rate(samples, law if col == "max_grad_u" else None).as_dict()
    return summary


# ---------------------------------------------------------------------------
# oracle comparison

DIAG_ENTRIES = {"11": (1, 1), "22": (2, 2), "33": (3, 3)}
OFFDIAG_ENTRIES = {"12": (1, 2), "13": (1, 3), "23": (2, 3)}


def _entry_envelope(geometry, al: int, be: int):
    """The rho law of the a11 entry (al, be) (None under flat contact) and
    the analytic terms whose nonnegative combination bounds it.  A diagonal
    entry's universal constants are unknown, so each of its terms carries a
    calibration constant fitted per experiment; an off-diagonal entry has
    the one term of its upper bound."""
    kind, value = geometry
    if kind == "flat":
        if al != be:
            return None, [lambda e: asy.flat_entry_oracle(2, value, e, (al, be))]
        if al <= 2:
            return None, [lambda e: value / e, lambda e: e ** -0.5, lambda e: 1.0]
        return None, [lambda e: value ** 3 / e, lambda e: 1.0]
    _, _, rho_kind, k = asy.entry_case(2, al, be)
    law = asy.rho_law(rho_kind, k, value)
    if al != be:
        return law, [lambda e: asy.rho(rho_kind, k, value, e)]
    return law, [lambda e: asy.rho(rho_kind, k, value, e), lambda e: 1.0]


def _calibrated_envelope(terms, eps, values):
    """Least-squares nonnegative term weights, relative residual weighting."""
    from scipy.optimize import nnls
    a = np.array([[t(e) / v for t in terms] for e, v in zip(eps, values)])
    coeffs, _ = nnls(a, np.ones(len(eps)))
    fitted = np.array([sum(c * t(e) for c, t in zip(coeffs, terms)) for e in eps])
    rel_misfit = float(np.abs(fitted / np.array(values) - 1.0).max())
    return coeffs, fitted, rel_misfit


# the largest deviation of a measured a11 slope from its envelope's, for a
# pure power law and for one with a |log eps| factor
_ENTRY_TOL = 0.15
_ENTRY_TOL_LOG = 0.25


def compare_oracles(config: ExperimentConfig, rows: list[dict]) -> dict:
    """Per-entry comparison of the measured a11 slopes against the analytic
    envelopes (flat table or rho laws).

    Diagonal entries obey two-sided scaling laws: the envelope terms are
    first calibrated (nonnegative least squares; the universal constants are
    not explicit) and the measured slope is compared against the calibrated
    envelope's slope.  Off-diagonals are upper bounds only; for the
    mirror-symmetric geometry built here their exact values vanish, so they
    are reported as bound-satisfaction ratios instead of slopes.
    """
    ok = [r for r in rows if r["status"] == "ok"]
    if len(ok) < 4:
        raise HarnessError("need at least 4 successful rows to compare")
    geometry = config.geometry_for_rates()
    report = {"entries": {}, "offdiag": {}}

    for lab, (al, be) in DIAG_ENTRIES.items():
        meas = [(r["eps"], r[f"a11_{lab}"]) for r in ok]
        if any(v <= 0 for _, v in meas):
            report["entries"][lab] = {"pass": False, "reason": "nonpositive diagonal"}
            continue
        eps, vals = zip(*meas)
        law, terms = _entry_envelope(geometry, al, be)
        coeffs, fitted, rel_misfit = _calibrated_envelope(terms, eps, vals)
        pred_fit = fit_rate(list(zip(eps, fitted)), law)
        meas_fit = fit_rate(meas, law)
        use_tol = _ENTRY_TOL if meas_fit.corrected_slope is None else _ENTRY_TOL_LOG
        dev = abs(meas_fit.law_slope - pred_fit.law_slope)
        report["entries"][lab] = {
            "measured_slope": meas_fit.slope,
            "predicted_slope": pred_fit.slope,
            "measured_corrected": meas_fit.corrected_slope,
            "predicted_corrected": pred_fit.corrected_slope,
            "calibration": [float(c) for c in coeffs],
            "envelope_misfit": rel_misfit,
            "deviation": dev,
            "tolerance": use_tol,
            "pass": bool(dev <= use_tol),
        }

    for lab, (al, be) in OFFDIAG_ENTRIES.items():
        vals = np.array([abs(r[f"a11_{lab}"]) for r in ok])
        _, (bound,) = _entry_envelope(geometry, al, be)
        env = np.array([bound(r["eps"]) for r in ok])
        ratios = vals / env
        report["offdiag"][lab] = {
            "max_ratio": float(ratios.max()),
            "ratio_growth": float(ratios[-1] / max(ratios[0], 1e-300)),
            "bounded": bool(ratios.max() <= max(10.0 * ratios[0], 1e-6) or vals.max() < 1e-8 * max(abs(r["a11_11"]) for r in ok)),
        }
    report["pass"] = all(e.get("pass", False) for e in report["entries"].values())
    return report


# ---------------------------------------------------------------------------
# patch energies (local energy scaling of w = v1^1 - vtilde1^1)

def patch_energy_profile(point: SolvedPoint, z_list) -> list[tuple[float, float]]:
    """(gap(z), int_{patch(z)} |grad w|^2) along lateral stations z.

    The patch at z is the full-height strip |x1 - z| < gap(z); w is the
    point's first translation cell solution v1^1 minus its explicit
    gap-linear competitor.  The patch energies scale like gap(z)^(d-1)."""
    profile = point.profile
    v11 = point.cells.v[(1, 1)]
    space = v11.space
    coords = space.dof_coords
    inside = np.abs(coords[:, 0]) <= profile.r_neck
    x1 = np.clip(coords[:, 0], -profile.r_neck, profile.r_neck)
    x2 = np.clip(coords[:, 1], profile.bottom(x1), profile.top(x1))
    tilde_vals = np.zeros_like(coords)
    pts = np.column_stack([x1, x2])
    tilde_vals[inside] = asy.vtilde(profile, point.cells.basis[0], pts[inside])
    w = DisplacementField(space, v11.values - tilde_vals, "w")

    out = []
    for z in z_list:
        delta = float(gap(profile, z))

        def patch(pts, z=z, delta=delta):
            keep = np.abs(pts[:, 0] - z) < delta
            keep &= np.abs(pts[:, 0]) < profile.r_neck
            return keep

        out.append((delta, gradient_sq_integral(w, patch)))
    return out


# ---------------------------------------------------------------------------
# config files

def load_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment.  A key is a CLI flag name
    or the name of the field it sets, on ``ExperimentConfig`` or one of its
    parts, with '-' or '_'; values are parsed like CLI arguments.  Two lines
    that set one field raise :class:`HarnessError` naming both."""
    out, lines = {}, {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HarnessError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            name = _FLAG_FIELDS.get(key, key)
            first = lines.setdefault(name, lineno)
            if first != lineno:
                raise HarnessError(f"{path}:{lineno}: {name!r} set again, first on line {first}")
            out[key] = value
    return out


# CLI flag names (with '_' for '-') that differ from the field they set
_FLAG_FIELDS = {"profile": "kind"}


def _config_keys() -> dict:
    """Each config key's owner (the ``ExperimentConfig`` field holding the
    part that declares it, or None for its own fields) and type, read off
    the dataclasses.  The field export path is set by ``solve`` only."""
    keys = {}
    hints = typing.get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        # an optional value (m: float | None) parses as the type it holds
        ftype = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        if is_dataclass(ftype):
            part = typing.get_type_hints(ftype)
            keys.update((g.name, (f.name, part[g.name])) for g in fields(ftype))
        elif f.name != "out_field":
            keys[f.name] = (None, ftype)
    return keys


_CONFIG_KEYS = _config_keys()


def config_from_mapping(mapping: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` (default: the defaults) with the keys of ``mapping`` set.  A
    value that does not parse raises :class:`HarnessError` naming its key;
    one that parses but is invalid raises the typed error of the class
    that owns it, such as ``MeshingError`` for ``n_radial = 0``."""
    base = base or ExperimentConfig()
    own, parts = {}, {}
    for key, raw in mapping.items():
        if raw is None:
            continue
        name = _FLAG_FIELDS.get(key, key)
        if name not in _CONFIG_KEYS:
            raise HarnessError(f"unknown config key {name!r}")
        owner, ftype = _CONFIG_KEYS[name]
        try:
            if ftype is tuple:   # eps_list: comma-separated on a config line
                items = [s for s in raw.split(",") if s.strip()] if isinstance(raw, str) else raw
                value = tuple(float(v) for v in items)
            else:
                value = ftype(raw) if ftype in (int, float) else str(raw)
        except (TypeError, ValueError) as exc:
            raise HarnessError(f"config key {key!r}: cannot parse {raw!r}") from exc
        (own if owner is None else parts.setdefault(owner, {}))[name] = value
    for owner, values in parts.items():
        own[owner] = replace(getattr(base, owner), **values)
    return replace(base, **own)
