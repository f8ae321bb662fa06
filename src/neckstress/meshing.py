"""Boundary-fitted graded triangulation of the shell between two inclusions.

Mesh layout (d = 2 only):

* Neck block, |x1| <= r_neck: a tensor-product grid of quads split into
  triangles.  Column widths are proportional to the local gap length scale,
  so they shrink toward the thinnest part of the gap (the origin for Power
  profiles, the flat-set edge for Flat ones) with bounded geometric growth
  away from it; each column carries ``n_layers`` element layers spanning the
  local gap, so element heights scale with gap(x1).
* Closure arcs: each inclusion is closed by a circular arc meeting the neck
  curve tangentially at |x1| = r_neck.
* Outer region: the blob made of the two inclusions plus the neck is
  star-shaped about the origin, so the remaining shell is meshed by rings of
  nodes on straight rays from the blob boundary to the outer circle, graded
  radially.  The ray rings share the mouth-segment nodes of the neck block,
  which makes the whole triangulation conforming.

The nodes mirror exactly in x1, and the neck block's diagonals do too, so
symmetric problems stay symmetric at the discrete level inside the neck
block only: every annulus quad takes the same diagonal, which leaves
midside dofs of the outer region with no mirror partner (ROADMAP item 8).
"""

from __future__ import annotations

import enum
import functools
import io
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import NeckProfile, ProfileKind

logger = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"


class MeshingError(RuntimeError):
    """Mesh generation failed; the message names the offending region."""


class BoundaryTag(enum.IntEnum):
    INCLUSION_TOP = 1     # boundary of the upper inclusion D1
    INCLUSION_BOTTOM = 2  # boundary of the lower inclusion D2
    OUTER = 3             # outer boundary of D


@dataclass(frozen=True)
class GradingConfig:
    """Mesh resolution knobs.

    ``dx_min_frac`` sets the finest neck column width as a fraction of the
    profile's gap length scale; ``dx_max_frac`` and ``arc_frac`` are caps
    relative to r_neck.  ``budget_scale`` refines everything uniformly
    (budget x4 corresponds to budget_scale = 2).  Generation is
    deterministic.
    """

    n_layers: int = 4
    dx_min_frac: float = 0.2
    dx_max_frac: float = 0.05
    arc_frac: float = 0.06
    n_radial: int = 10
    radial_ratio: float = 1.4
    max_cells: int = 200_000
    budget_scale: float = 1.0

    def __post_init__(self):
        if self.n_layers < 1:
            raise MeshingError("n_layers must be >= 1")
        if not (0.0 < self.dx_min_frac <= 1.0):
            raise MeshingError("dx_min_frac must be in (0, 1]")
        for name in ("dx_max_frac", "arc_frac"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise MeshingError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.budget_scale) and self.budget_scale >= 1.0):
            raise MeshingError(f"budget_scale must be finite and >= 1, got {self.budget_scale!r}")
        # below 1 the geometric ring spacings sum to less than a ray, and
        # radial_levels would never stop adding rings
        if not (math.isfinite(self.radial_ratio) and self.radial_ratio >= 1.0):
            raise MeshingError(f"radial_ratio must be finite and >= 1, got {self.radial_ratio!r}")

    @property
    def layers(self) -> int:
        return max(1, round(self.n_layers * self.budget_scale))

    def radial_levels(self, ray_length: float, first_gap: float,
                      gap_cap: float) -> np.ndarray:
        """Normalized ring positions in (0, 1]: geometric growth from
        ``first_gap`` capped at ``gap_cap``, with at least ``n_radial`` rings.

        Deriving the ring count from the target spacings keeps cell shapes
        invariant under budget scaling."""
        g = self.radial_ratio
        incs = []
        total, d = 0.0, first_gap
        while total < ray_length:
            step = min(d, gap_cap)
            incs.append(step)
            total += step
            d *= g
        while len(incs) < self.n_radial:
            incs.append(incs[-1])
            total += incs[-1]
        s = np.cumsum(incs)
        return s / s[-1]


@dataclass
class GradingReport:
    n_nodes: int = 0
    n_cells: int = 0
    n_neck_cells: int = 0
    min_layers: int = 0
    min_quality: float = 0.0
    dx_min: float = 0.0
    dx_max: float = 0.0


@dataclass
class Mesh:
    """Triangulation with tagged boundary edges.

    ``nodes`` is (n, 2), ``cells`` (m, 3) with positive orientation,
    ``edges`` (k, 2) the boundary edges with tags in ``edge_tags``.
    Cells [0, n_neck_cells) are the neck block.  Immutable after
    construction (arrays are set read-only).
    """

    nodes: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    edge_tags: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.nodes, self.cells, self.edges, self.edge_tags):
            a.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_centroids(self) -> np.ndarray:
        return self.nodes[self.cells].mean(axis=1)

    def signed_areas(self) -> np.ndarray:
        return _signed_areas(*_corners(self.nodes, self.cells))

    @functools.cached_property
    def grading_report(self) -> GradingReport:
        """From the arrays and ``meta``, so a loaded mesh reports what the
        built one did; neck widths an older file lacks read 0."""
        meta = self.meta
        return GradingReport(
            n_nodes=self.n_nodes,
            n_cells=self.n_cells,
            n_neck_cells=int(meta.get("n_neck_cells", 0)),
            min_layers=int(meta.get("n_layers", 0)),
            min_quality=float(triangle_quality(self.nodes, self.cells).min()),
            dx_min=float(meta.get("dx_min", 0.0)),
            dx_max=float(meta.get("dx_max", 0.0)),
        )


def _corners(nodes: np.ndarray, cells: np.ndarray):
    """Corner coordinates x, y of every cell, each (3, m): one contiguous
    gather per coordinate instead of strided slices of nodes[cells]."""
    ct = cells.T
    return nodes[:, 0][ct], nodes[:, 1][ct]


def _signed_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))


def triangle_quality(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Shape quality 4*sqrt(3)*area / sum(edge^2), 1 for equilateral."""
    x, y = _corners(nodes, cells)
    area = np.abs(_signed_areas(x, y))
    l2 = (
        ((x[1] - x[0]) ** 2 + (y[1] - y[0]) ** 2)
        + ((x[2] - x[1]) ** 2 + (y[2] - y[1]) ** 2)
        + ((x[0] - x[2]) ** 2 + (y[0] - y[2]) ** 2)
    )
    return 4.0 * math.sqrt(3.0) * area / l2


# ---------------------------------------------------------------------------
# column grading

def _local_scale(profile: NeckProfile, x: float) -> float:
    """Lateral length scale of the gap at x: the distance over which gap(x)
    changes by an O(1) factor.  Smallest at the gap minimum."""
    if profile.kind is ProfileKind.POWER:
        delta = profile.epsilon + profile.kappa0 * abs(x) ** profile.m
        return (delta / profile.kappa0) ** (1.0 / profile.m)
    d = abs(x) - profile.r0     # signed distance to the flat-set edge
    return math.sqrt(profile.epsilon / profile.kappa0 + d * d)


def _local_walk(profile: NeckProfile, start: float, stop: float,
                frac: float, dx_max: float):
    """Positions from start toward stop with step = frac * local gap scale,
    capped by dx_max.

    The local scale is 1-Lipschitz, so consecutive widths grow by at most
    the geometric factor 1 + frac; anchoring the walk at the gap minimum or
    flat-set edge keeps the worst cell aspect there, invariant under budget
    scaling.
    """
    direction = 1.0 if stop > start else -1.0
    pts = [start]
    while True:
        step = min(frac * _local_scale(profile, pts[-1]), dx_max)
        step = max(step, 1e-7 * profile.r_neck)
        nxt = pts[-1] + direction * step
        if (stop - nxt) * direction <= 0.0:
            break
        pts.append(nxt)
    # land exactly on stop without widening any cell beyond its nominal step:
    # a short remainder is split evenly over the final two cells
    if len(pts) >= 2 and abs(stop - pts[-1]) < 0.5 * abs(pts[-1] - pts[-2]):
        pts[-1] = 0.5 * (pts[-2] + stop)
    pts.append(stop)
    return np.array(pts)


def _neck_columns(profile: NeckProfile, config: GradingConfig) -> np.ndarray:
    """Symmetric x1 grid on [-r_neck, r_neck], graded toward the gap minimum
    (Power) or the flat-set edge (Flat)."""
    s = config.budget_scale
    xc = profile.r_neck
    dx_max = config.dx_max_frac * xc / s
    frac = config.dx_min_frac / s
    if profile.kind is ProfileKind.FLAT and profile.r0 > 0.0:
        inner = _local_walk(profile, profile.r0, 0.0, frac, dx_max)
        outer = _local_walk(profile, profile.r0, xc, frac, dx_max)
        half = np.concatenate([inner[::-1], outer[1:]])
    else:
        half = _local_walk(profile, 0.0, xc, frac, dx_max)
    return np.concatenate([-half[::-1][:-1], half])


# ---------------------------------------------------------------------------
# closure arcs

def closure_arc(profile: NeckProfile):
    """Center height and radius of the tangent closure circle of D1.

    The arc passes through (+-r_neck, y_t) with y_t = eps + h1(r_neck) and
    matches the slope of the neck curve there, which puts its center on the
    x2 axis at c = y_t + r_neck/h1'(r_neck).  D2's arc is the reflection of
    D1's through the mid-gap line: (x, y) -> (x, eps - y).
    """
    xc = profile.r_neck
    yt = profile.top(xc)
    slope = float(profile.dh1(xc))
    if slope <= 0.0:
        raise MeshingError("neck curve has no positive slope at the chart cut")
    c = yt + xc / slope
    rad = math.hypot(xc, yt - c)
    return c, rad


def _arc_interior_nodes(profile: NeckProfile, config: GradingConfig):
    """Interior sample points of the top closure arc, right junction to left.

    Built from a half-arc and mirrored so the coordinates are exactly
    symmetric in x1.
    """
    c, rad = closure_arc(profile)
    xc = profile.r_neck
    yt = profile.top(xc)
    phi_r = math.atan2(yt - c, xc)
    span = math.pi - 2.0 * phi_r
    target = config.arc_frac * profile.r_neck / config.budget_scale
    n_int = max(9, int(math.ceil(rad * span / target)))
    k = (n_int + 1) // 2
    psi = phi_r + (np.arange(1, k + 1) / k) * (math.pi / 2.0 - phi_r)
    right = np.column_stack([rad * np.cos(psi), c + rad * np.sin(psi)])
    right[-1, 0] = 0.0  # apex exactly on the axis
    left = right[:-1][::-1].copy()
    left[:, 0] = -left[:, 0]
    return np.vstack([right, left])


# ---------------------------------------------------------------------------
# mesh builder

def _chain(ids: np.ndarray, close: bool = False) -> np.ndarray:
    """Edges (ids[i], ids[i + 1]) along a node chain, plus the closing edge
    (ids[-1], ids[0]) when ``close``."""
    ids = np.asarray(ids, dtype=np.int64)
    nxt = np.roll(ids, -1) if close else ids[1:]
    return np.column_stack([ids[:len(nxt)], nxt])


def build_mesh(profile: NeckProfile, config: GradingConfig | None = None) -> Mesh:
    """Triangulate the shell for a 2-d profile.

    Raises :class:`MeshingError` when the grading cannot be met within
    ``config.max_cells``, when the generated blob boundary fails the
    star-shapedness check, or when :func:`validate_mesh` finds a degenerate
    or inverted cell.
    """
    if config is None:
        config = GradingConfig()

    layers = config.layers
    xs = _neck_columns(profile, config)
    nx = xs.size
    arc_top = _arc_interior_nodes(profile, config)
    n_arc = arc_top.shape[0]
    n_ring = 2 * (layers + 1) + 2 * n_arc
    arc_h = config.arc_frac * profile.r_neck / config.budget_scale
    # far-field cap keeps the outermost radial gaps comparable to the
    # circumferential widths there
    gap_cap = arc_h * profile.outer_radius / profile.r_neck
    s_levels = config.radial_levels(profile.outer_radius, arc_h, gap_cap)
    n_radial = s_levels.size
    est_cells = 2 * (nx - 1) * layers + 2 * n_ring * n_radial
    if est_cells > config.max_cells:
        raise MeshingError(
            f"grading needs about {est_cells} cells (> budget {config.max_cells}); "
            f"neck columns={nx}, ring nodes={n_ring}"
        )

    # --- neck block ---------------------------------------------------------
    tops = profile.top(xs)
    bots = profile.bottom(xs)
    t = np.linspace(0.0, 1.0, layers + 1)
    neck_xy = np.empty((nx, layers + 1, 2))
    neck_xy[:, :, 0] = xs[:, None]
    neck_xy[:, :, 1] = bots[:, None] + t[None, :] * (tops - bots)[:, None]
    nid = np.arange(nx * (layers + 1)).reshape(nx, layers + 1)

    # two cells per quad (i, j), row-major; diagonal a-cc where the quad's
    # midpoint is at x1 >= 0, mirrored (b-d) on the other side
    a, b = nid[:-1, :-1], nid[1:, :-1]
    cc, d = nid[1:, 1:], nid[:-1, 1:]
    right = (0.5 * (xs[:-1] + xs[1:]) >= 0.0)[:, None]
    neck_cells = np.stack([
        np.stack([a, b, np.where(right, cc, d)], axis=-1),
        np.stack([np.where(right, a, b), cc, d], axis=-1),
    ], axis=2).reshape(-1, 3)

    nodes = [neck_xy.reshape(-1, 2)]
    next_id = nx * (layers + 1)

    arc_top_ids = np.arange(next_id, next_id + n_arc)
    nodes.append(arc_top)
    next_id += n_arc
    arc_bot = arc_top.copy()
    arc_bot[:, 1] = profile.epsilon - arc_bot[:, 1]
    arc_bot_ids = np.arange(next_id, next_id + n_arc)
    nodes.append(arc_bot)
    next_id += n_arc

    # --- blob boundary ring, counterclockwise -------------------------------
    ring0 = np.concatenate([
        nid[nx - 1, :],            # right mouth, bottom to top
        arc_top_ids,               # top arc, right to left
        nid[0, ::-1],              # left mouth, top to bottom
        arc_bot_ids[::-1],         # bottom arc, left to right
    ])
    all_nodes = np.vstack(nodes)
    ring_xy = all_nodes[ring0]
    theta = np.unwrap(np.arctan2(ring_xy[:, 1], ring_xy[:, 0]))
    dtheta = np.diff(theta)
    if np.any(dtheta <= 0.0):
        bad = ring_xy[np.argmin(dtheta)]
        raise MeshingError(
            f"inner boundary is not star-shaped about the origin near "
            f"({bad[0]:.3g}, {bad[1]:.3g}); adjust closure or outer radius"
        )

    # --- radial rings to the outer circle ------------------------------------
    n0 = ring0.size
    dirs = ring_xy / np.linalg.norm(ring_xy, axis=1, keepdims=True)
    outer_pts = profile.outer_radius * dirs
    nodes.append((ring_xy + s_levels[:, None, None] * (outer_pts - ring_xy)).reshape(-1, 2))
    ring_ids = np.vstack([ring0, next_id + np.arange(n_radial * n0).reshape(n_radial, n0)])
    # ccw sector boundary: inner_i -> outer_i -> outer_j -> inner_j, j = i + 1
    a, b = ring_ids[:-1], ring_ids[1:]
    cc, d = np.roll(b, -1, axis=1), np.roll(a, -1, axis=1)
    ann_cells = np.stack([
        np.stack([a, b, cc], axis=-1), np.stack([a, cc, d], axis=-1),
    ], axis=2).reshape(-1, 3)

    all_nodes = np.vstack(nodes)
    all_cells = np.vstack([neck_cells, ann_cells])

    # --- boundary edges -------------------------------------------------------
    top_chain = np.concatenate([[nid[nx - 1, layers]], arc_top_ids, [nid[0, layers]]])
    bot_chain = np.concatenate([[nid[0, 0]], arc_bot_ids[::-1], [nid[nx - 1, 0]]])
    chains = [
        (_chain(nid[:, layers]), BoundaryTag.INCLUSION_TOP),
        (_chain(top_chain), BoundaryTag.INCLUSION_TOP),
        (_chain(nid[:, 0]), BoundaryTag.INCLUSION_BOTTOM),
        (_chain(bot_chain), BoundaryTag.INCLUSION_BOTTOM),
        (_chain(ring_ids[-1], close=True), BoundaryTag.OUTER),
    ]
    edges = np.vstack([e for e, _ in chains])
    tags = np.concatenate([np.full(len(e), tag, dtype=np.int8) for e, tag in chains])

    dx = np.diff(xs)
    c_top, rad = closure_arc(profile)
    meta = {
        "x_cut": profile.r_neck,
        "arc_center_y": c_top,
        "arc_radius": rad,
        "n_layers": layers,
        "n_neck_cells": int(neck_cells.shape[0]),
        "profile_kind": profile.kind.value,
        "epsilon": profile.epsilon,
        "kappa0": profile.kappa0,
        "m": 0.0 if profile.m is None else profile.m,
        "r0": profile.r0,
        "r_neck": profile.r_neck,
        "outer_radius": profile.outer_radius,
        "dx_min": float(dx.min()),
        "dx_max": float(dx.max()),
    }
    mesh = Mesh(all_nodes, all_cells, edges, tags, meta)
    validate_mesh(mesh)
    report = mesh.grading_report
    logger.debug(
        "mesh: %d nodes, %d cells (%d neck), min quality %.3g",
        report.n_nodes, report.n_cells, report.n_neck_cells, report.min_quality,
    )
    return mesh


def validate_mesh(mesh: Mesh):
    """Structural invariants: orientation (the one check of built and
    loaded meshes, naming the worst cell), tag integrity, closed tag curves."""
    areas = mesh.signed_areas()
    if np.any(areas <= 0.0):
        c = mesh.nodes[mesh.cells[int(np.argmin(areas))]].mean(axis=0)
        raise MeshingError(f"degenerate or inverted cell near ({c[0]:.4g}, {c[1]:.4g})")
    if mesh.edges.shape[0] != mesh.edge_tags.shape[0]:
        raise MeshingError("boundary edge/tag count mismatch")
    if np.any(mesh.edge_tags <= 0):
        raise MeshingError("untagged boundary edge")
    # every tagged edge set must be a union of closed curves: node degrees even
    for tag in np.unique(mesh.edge_tags):
        sel = mesh.edges[mesh.edge_tags == tag]
        ids, counts = np.unique(sel.ravel(), return_counts=True)
        if np.any(counts != 2):
            raise MeshingError(f"boundary curve for tag {tag} is not closed")
    # boundary edges must be edges of exactly one cell
    c = mesh.cells
    first = np.concatenate([c[:, 0], c[:, 1], c[:, 2]])
    second = np.concatenate([c[:, 1], c[:, 2], c[:, 0]])
    keys = np.sort(np.minimum(first, second) * mesh.n_nodes + np.maximum(first, second))
    be = np.sort(mesh.edges, axis=1)
    bkeys = be[:, 0] * mesh.n_nodes + be[:, 1]
    uses = np.searchsorted(keys, bkeys, side="right") - np.searchsorted(keys, bkeys)
    bad = np.flatnonzero(uses != 1)
    if bad.size:
        a, b = be[bad[0]]
        raise MeshingError(f"tagged edge ({a},{b}) is not a boundary edge")


# ---------------------------------------------------------------------------
# plain-text serialization

def save_mesh(mesh: Mesh, path: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_mesh(mesh))


def format_rows(row_fmt: str, table: np.ndarray) -> str:
    """Every row of a 2-d table through one ``%`` row format, in one call."""
    return (row_fmt * table.shape[0]) % tuple(table.ravel().tolist())


def dumps_mesh(mesh: Mesh) -> str:
    buf = io.StringIO()
    buf.write("# neckstress-mesh-v1\n")
    buf.write(f"nodes {mesh.n_nodes}\n")
    buf.write(format_rows(f"{FLOAT_FMT} {FLOAT_FMT}\n", mesh.nodes))
    buf.write(f"cells {mesh.n_cells}\n")
    buf.write(format_rows("%d %d %d\n", mesh.cells))
    buf.write(f"edges {mesh.edges.shape[0]}\n")
    buf.write(format_rows("%d %d %d\n", np.column_stack([mesh.edges, mesh.edge_tags])))
    buf.write(f"meta {len(mesh.meta)}\n")
    for k in sorted(mesh.meta):
        v = mesh.meta[k]
        if isinstance(v, float):
            buf.write(("%s = " + FLOAT_FMT + "\n") % (k, v))
        else:
            buf.write(f"{k} = {v}\n")
    return buf.getvalue()


def load_mesh(path: str) -> Mesh:
    """Read a mesh written by :func:`save_mesh` and validate it.

    A missing or malformed block header, a truncated block, or a row that
    does not parse raises :class:`MeshingError` naming the path and block.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "# neckstress-mesh-v1":
        raise MeshingError(f"{path}: not a neckstress mesh file")
    i = 1

    def _block(name):
        nonlocal i
        if i >= len(lines):
            raise MeshingError(f"{path}: file ends before the '{name}' block")
        head = lines[i].split()
        if not head or head[0] != name:
            raise MeshingError(f"{path}: expected '{name}' block, got {lines[i]!r}")
        if len(head) != 2 or not head[1].isdigit():
            raise MeshingError(f"{path}: bad row count in '{name}' block header {lines[i]!r}")
        n = int(head[1])
        rows = lines[i + 1: i + 1 + n]
        if len(rows) < n:
            raise MeshingError(f"{path}: '{name}' block is truncated: "
                               f"{len(rows)} of {n} rows")
        i += 1 + n
        return rows

    def _table(name, dtype, ncols):
        rows = _block(name)
        if not rows:
            return np.empty((0, ncols), dtype=dtype)
        try:
            table = np.loadtxt(rows, dtype=dtype, ndmin=2, comments=None)
        except ValueError as exc:
            raise MeshingError(f"{path}: bad row in '{name}' block: {exc}") from None
        if table.shape != (len(rows), ncols):
            raise MeshingError(f"{path}: '{name}' block parsed as {table.shape[0]} rows of "
                               f"{table.shape[1]} values, expected {len(rows)} of {ncols}")
        return table

    nodes = _table("nodes", np.float64, 2)
    cells = _table("cells", np.int64, 3)
    if cells.shape[0] == 0 or cells.min() < 0 or cells.max() >= nodes.shape[0]:
        raise MeshingError(f"{path}: 'cells' block needs at least one cell, "
                           f"with node ids in 0..{nodes.shape[0] - 1}")
    erows = _table("edges", np.int64, 3)
    edges = erows[:, :2].copy()
    tags = erows[:, 2].astype(np.int8)
    if not np.array_equal(tags, erows[:, 2]):
        raise MeshingError(f"{path}: edge tag out of range in 'edges' block")
    meta = {}
    for r in _block("meta"):
        k, sep, v = (s.strip() for s in r.partition("="))
        try:
            if not sep:
                raise ValueError("no '='")
            if k in ("n_layers", "n_neck_cells"):
                meta[k] = int(v)
            elif k == "profile_kind":
                meta[k] = v
            else:
                meta[k] = float(v)
        except ValueError:
            raise MeshingError(f"{path}: bad row in 'meta' block: {r!r}") from None

    mesh = Mesh(nodes, cells, edges, tags, meta)
    validate_mesh(mesh)
    return mesh
