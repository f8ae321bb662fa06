"""Boundary-fitted graded triangulation of the shell between two inclusions.

Mesh layout (d = 2 only):

* Neck block, |x1| <= r_neck: a tensor-product grid of quads split into
  triangles.  Column widths are proportional to the local gap length scale,
  so they shrink toward the thinnest part of the gap (the origin for Power
  profiles, the flat-set edge for Flat ones) with bounded geometric growth
  away from it; each column carries ``_N_LAYERS * budget_scale`` element
  layers spanning the local gap, so element heights scale with gap(x1).
* Closure arcs: each inclusion is closed by a circular arc meeting the neck
  curve tangentially at |x1| = r_neck.
* Outer region: the blob made of the two inclusions plus the neck is
  star-shaped about the origin and inside the outer circle (a closure arc
  whose apex is not is rejected before any node is built), so the
  remaining shell is meshed by rings of nodes on straight rays from the
  blob boundary to the outer circle, graded radially by the ratio
  ``_RADIAL_RATIO``.  The ray rings share the mouth-segment nodes of the
  neck block, which makes the whole triangulation conforming.

Both blocks are structured: the neck block is a lattice of columns by
layers, the outer region one of ring positions (periodic) by radial levels,
and the mouth nodes lie on both.  ``build_mesh`` records each node's place
in ``Mesh.lattice``, from which ``fem`` reads the nested-dissection order of
the sparse LU.

The nodes mirror exactly in x1, and the neck block's diagonals do too, so
symmetric problems stay symmetric at the discrete level inside the neck
block only: every annulus quad takes the same diagonal, which leaves
midside dofs of the outer region with no mirror partner (ROADMAP item 8).
"""

from __future__ import annotations

import enum
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import NeckProfile, ProfileKind

FLOAT_FMT = "%.17g"

# element layers across the neck gap at budget_scale 1, the growth ratio of
# the outer rings' radial spacings, and the most cells a grading may need
_N_LAYERS = 4
_RADIAL_RATIO = 1.4
_MAX_CELLS = 200_000


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
    relative to r_neck; ``n_radial`` is the fewest outer rings.
    ``budget_scale`` refines everything uniformly (budget x4 corresponds to
    budget_scale = 2), the neck's element layers included.  The layer
    count, the radial growth ratio and the cell cap are the module
    constants above.  Generation is deterministic.
    """

    dx_min_frac: float = 0.2
    dx_max_frac: float = 0.05
    arc_frac: float = 0.06
    n_radial: int = 10
    budget_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.dx_min_frac <= 1.0):
            raise MeshingError("dx_min_frac must be in (0, 1]")
        for name in ("dx_max_frac", "arc_frac"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise MeshingError(f"{name} must be finite and > 0, got {value!r}")
        if self.n_radial < 1:
            raise MeshingError(f"n_radial must be >= 1, got {self.n_radial!r}")
        if not (math.isfinite(self.budget_scale) and self.budget_scale >= 1.0):
            raise MeshingError(f"budget_scale must be finite and >= 1, got {self.budget_scale!r}")


def _radial_spacings(ray_length: float, first_gap: float, gap_cap: float) -> list:
    """Ring spacings along a ray: geometric growth by ``_RADIAL_RATIO`` from
    ``first_gap``, capped at ``gap_cap``, until they span ``ray_length``.

    Deriving the ring count from the target spacings keeps cell shapes
    invariant under budget scaling."""
    incs = []
    total, d = 0.0, first_gap
    while total < ray_length:
        step = min(d, gap_cap)
        incs.append(step)
        total += step
        d *= _RADIAL_RATIO
    return incs


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
    construction (arrays are set read-only), and valid: built, loaded or
    hand-made, every mesh has passed :func:`validate_mesh` on construction.

    ``lattice`` (n, 4) is each node's place on the two structured blocks
    of :func:`build_mesh`: (column, layer) on the neck block and (ring
    position, level) on the annulus, -1 off a block; the mouth nodes are
    on both.  Only :func:`build_mesh` sets it, and it is not saved: ``fem``
    reads it for the nested-dissection order of a point's sparse LU, and a
    mesh without it (hand-built or loaded) is factored in SuperLU's
    minimum-degree order instead.
    """

    nodes: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    edge_tags: np.ndarray
    meta: dict = field(default_factory=dict)
    lattice: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.nodes, self.cells, self.edges, self.edge_tags, self.lattice):
            if a is not None:
                a.setflags(write=False)
        validate_mesh(self)

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
    scaling.  Steps have no floor, so the finest column follows eps; a step
    that does not move the position in floating point raises.
    """
    direction = 1.0 if stop > start else -1.0
    pts = [start]
    while True:
        step = min(frac * _local_scale(profile, pts[-1]), dx_max)
        nxt = pts[-1] + direction * step
        if nxt == pts[-1]:
            raise MeshingError(f"neck grading stalls at x1 = {pts[-1]!r}: a step of "
                               f"{step:.3g} does not move it (eps = {profile.epsilon:.3g})")
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


def _arc_interior_nodes(profile: NeckProfile, config: GradingConfig, c: float, rad: float):
    """Interior sample points of the top closure arc (c, rad), right junction to left.

    Built from a half-arc and mirrored so the coordinates are exactly
    symmetric in x1.
    """
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

    Raises :class:`MeshingError` when the neck grading stalls, when the top
    closure arc's apex is not strictly inside the outer circle (checked
    before any node is built), when the grading needs more than
    ``_MAX_CELLS`` cells, when the generated blob boundary fails the
    star-shapedness check, or when the :class:`Mesh` constructor's
    :func:`validate_mesh` finds a degenerate or inverted cell.
    """
    if config is None:
        config = GradingConfig()

    layers = round(_N_LAYERS * config.budget_scale)
    xs = _neck_columns(profile, config)
    nx = xs.size
    c_top, rad = closure_arc(profile)
    # the apex is the blob node farthest from the origin; on or beyond the
    # outer circle its ray turns inward and some annulus cell inverts
    apex = c_top + rad
    if not apex < profile.outer_radius:
        raise MeshingError(
            f"closure arc apex at x2 = {apex:.4g} is not inside the outer circle of "
            f"radius {profile.outer_radius:.4g} (kappa0 = {profile.kappa0:.3g}, "
            f"r_neck = {profile.r_neck:.3g}, eps = {profile.epsilon:.3g})"
        )
    arc_top = _arc_interior_nodes(profile, config, c_top, rad)
    n_arc = arc_top.shape[0]
    n_ring = 2 * (layers + 1) + 2 * n_arc
    arc_h = config.arc_frac * profile.r_neck / config.budget_scale
    # far-field cap keeps the outermost radial gaps comparable to the
    # circumferential widths there
    gap_cap = arc_h * profile.outer_radius / profile.r_neck
    incs = _radial_spacings(profile.outer_radius, arc_h, gap_cap)
    # at least n_radial rings, the last spacing repeated; counted before the
    # rings are built so an oversized count fails the cell cap first
    n_radial = max(len(incs), config.n_radial)
    est_cells = 2 * (nx - 1) * layers + 2 * n_ring * n_radial
    if est_cells > _MAX_CELLS:
        raise MeshingError(
            f"grading needs about {est_cells} cells (> budget {_MAX_CELLS}); "
            f"neck columns={nx}, ring nodes={n_ring}"
        )
    s = np.cumsum(incs + incs[-1:] * (n_radial - len(incs)))
    s_levels = s / s[-1]

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
        # it turns back at the arc junction once eps + h1(r_neck) >= r_neck h1'(r_neck)
        bad = ring_xy[np.argmin(dtheta)]
        law = "kappa0 (m - 1) / 2" if profile.m is not None else "kappa0 (1 - r0^2) / 2"
        xc = profile.r_neck
        bound = float(xc * profile.dh1(xc) - profile.h1(xc))
        raise MeshingError(
            f"inner boundary is not star-shaped about the origin near "
            f"({bad[0]:.3g}, {bad[1]:.3g}): the wall meets the closure arc too high; "
            f"this needs eps < {law} = {bound:.3g}, got eps = {profile.epsilon:.3g} "
            f"with kappa0 = {profile.kappa0:.3g}"
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
    # (column, layer) on the neck block, (ring position, level) on the rings
    lattice = np.full((all_nodes.shape[0], 4), -1, dtype=np.int32)
    lattice[nid, 0] = np.arange(nx)[:, None]
    lattice[nid, 1] = np.arange(layers + 1)
    lattice[ring_ids, 2] = np.arange(n0)
    lattice[ring_ids, 3] = np.arange(n_radial + 1)[:, None]

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
    meta = {
        "arc_center_y": c_top,
        "arc_radius": rad,
        "n_layers": layers,
        "n_neck_cells": int(neck_cells.shape[0]),
        "profile_kind": profile.kind.value,
        "epsilon": profile.epsilon,
        "kappa0": profile.kappa0,
        "m": 0.0 if profile.m is None else profile.m,
        "r0": profile.r0,
        "dx_min": float(dx.min()),
        "dx_max": float(dx.max()),
    }
    return Mesh(all_nodes, all_cells, edges, tags, meta, lattice)


def validate_mesh(mesh: Mesh):
    """Structural invariants, checked by every :class:`Mesh` on
    construction: node ids in range (naming the first bad row), orientation
    (naming the worst cell), tag integrity, closed tag curves, and tagged
    edges on the boundary."""
    n = mesh.n_nodes
    for name, ids in (("cell", mesh.cells), ("edge", mesh.edges)):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            i = int(np.flatnonzero(((ids < 0) | (ids >= n)).any(axis=1))[0])
            raise MeshingError(f"{name} {i} has node ids {ids[i].tolist()} outside 0..{n - 1}")
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
    """Read a mesh written by :func:`save_mesh`; the :class:`Mesh`
    constructor validates it.

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

    return Mesh(nodes, cells, edges, tags, meta)
