from dataclasses import replace

import numpy as np
import pytest

import neckstress as ns
from neckstress.meshing import (
    BoundaryTag,
    GradingConfig,
    Mesh,
    MeshingError,
    dumps_mesh,
    triangle_quality,
    validate_mesh,
)

from conftest import COARSE


def _tag_nodes(mesh, tag):
    return np.unique(mesh.edges[mesh.edge_tags == int(tag)])


def test_mesh_invariants_power(power_profile, power_mesh):
    mesh = power_mesh
    assert np.all(mesh.signed_areas() > 0.0)
    # every tagged edge set is a closed curve: all node degrees equal 2
    for tag in (BoundaryTag.INCLUSION_TOP, BoundaryTag.INCLUSION_BOTTOM, BoundaryTag.OUTER):
        sel = mesh.edges[mesh.edge_tags == int(tag)]
        _, counts = np.unique(sel.ravel(), return_counts=True)
        assert np.all(counts == 2)
    rep = mesh.grading_report
    assert rep.min_layers >= 4
    assert rep.n_neck_cells > 0
    assert rep.min_quality > 0.0


def test_boundary_nodes_on_curves(power_profile, power_mesh):
    p, mesh = power_profile, power_mesh
    xc = mesh.meta["x_cut"]
    cy = mesh.meta["arc_center_y"]
    rad = mesh.meta["arc_radius"]
    scale = p.outer_radius

    pts = mesh.nodes[_tag_nodes(mesh, BoundaryTag.OUTER)]
    assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - p.outer_radius).max() <= 1e-12 * scale

    for tag, curve, c in ((BoundaryTag.INCLUSION_TOP, p.top, cy),
                          (BoundaryTag.INCLUSION_BOTTOM, p.bottom, p.epsilon - cy)):
        pts = mesh.nodes[_tag_nodes(mesh, tag)]
        up = tag == BoundaryTag.INCLUSION_TOP
        on_neck = (np.abs(pts[:, 0]) <= xc + 1e-12) & \
                  ((pts[:, 1] <= c) if up else (pts[:, 1] >= c))
        err = np.abs(pts[on_neck, 1] - curve(pts[on_neck, 0])).max()
        assert err <= 1e-12 * scale
        arc = pts[~on_neck]
        err = np.abs(np.hypot(arc[:, 0], arc[:, 1] - c) - rad).max()
        assert err <= 1e-12 * scale


def test_layers_span_gap_everywhere(power_profile, power_mesh):
    # at each neck abscissa the node column has exactly n_layers + 1 entries
    p, mesh = power_profile, power_mesh
    layers = mesh.meta["n_layers"]
    neck_nodes = mesh.nodes[: (mesh.meta["n_neck_cells"] // (2 * layers) + 1) * (layers + 1)]
    xs = np.unique(neck_nodes[:, 0])
    for x in xs[:: max(1, xs.size // 7)]:
        col = neck_nodes[neck_nodes[:, 0] == x]
        assert col.shape[0] == layers + 1
        assert col[:, 1].min() == pytest.approx(p.bottom(x), abs=1e-14)
        assert col[:, 1].max() == pytest.approx(p.top(x), abs=1e-14)


def test_flat_plateau_edges_exact(flat_profile, flat_mesh):
    p, mesh = flat_profile, flat_mesh
    top = mesh.nodes[_tag_nodes(mesh, BoundaryTag.INCLUSION_TOP)]
    plateau = top[(np.abs(top[:, 0]) <= p.r0 + 1e-14) & (top[:, 1] < 1.0)]
    assert plateau.size > 0
    assert np.all(plateau[:, 1] == p.epsilon)
    bot = mesh.nodes[_tag_nodes(mesh, BoundaryTag.INCLUSION_BOTTOM)]
    plateau = bot[(np.abs(bot[:, 0]) <= p.r0 + 1e-14) & (bot[:, 1] > -1.0)]
    assert np.all(plateau[:, 1] == 0.0)


def test_neck_columns_symmetric(power_mesh):
    layers = power_mesh.meta["n_layers"]
    ncols = power_mesh.meta["n_neck_cells"] // (2 * layers) + 1
    xs = power_mesh.nodes[: ncols * (layers + 1), 0].reshape(ncols, layers + 1)[:, 0]
    assert np.array_equal(xs, -xs[::-1])
    assert 0.0 in xs


def test_budget_error():
    p = ns.make_profile("power", epsilon=1e-4, m=2.0)
    with pytest.raises(MeshingError, match="budget"):
        ns.build_mesh(p, GradingConfig(max_cells=500))


@pytest.mark.parametrize("ratio", [0.5, 0.999, float("nan"), float("inf")])
def test_radial_ratio_below_one_or_non_finite_is_rejected(ratio):
    # below 1 the ring spacings sum to less than a ray and meshing never ends
    p = ns.make_profile("power", epsilon=1e-2, m=2.0)
    with pytest.raises(MeshingError, match="radial_ratio"):
        ns.build_mesh(p, GradingConfig(radial_ratio=ratio))


@pytest.mark.parametrize("field, value", [
    ("dx_max_frac", 0.0), ("dx_max_frac", float("nan")), ("dx_max_frac", -0.1),
    ("arc_frac", 0.0), ("arc_frac", float("nan")), ("arc_frac", float("inf")),
    ("budget_scale", float("nan")), ("budget_scale", float("inf")),
])
def test_grading_rejects_zero_or_non_finite_caps(field, value):
    # a zero width cap never ends the column loop; a NaN cap or budget used
    # to mesh silently or fail with an untyped error
    with pytest.raises(MeshingError, match=rf"^{field} must be finite"):
        GradingConfig(**{field: value})


def test_budget_refinement_regression(power_profile):
    # budget x4: dof count grows, min quality does not degrade (the worst
    # cell is the gap-minimum anchor cell, whose aspect is scale-invariant)
    base = ns.build_mesh(power_profile, COARSE)
    fine = ns.build_mesh(power_profile, replace(COARSE, budget_scale=2.0))
    assert fine.n_nodes > base.n_nodes
    assert fine.grading_report.min_quality >= base.grading_report.min_quality - 1e-9


def test_budget_refinement_regression_flat(flat_profile):
    """Flat plateaus quantize the width cap, so min quality converges onto a
    designed floor instead of being exactly monotone: assert the floor (the
    nominal capped-rectangle quality) at every budget, plus DOF growth."""
    p = flat_profile
    base = ns.build_mesh(p, COARSE)
    fine = ns.build_mesh(p, replace(COARSE, budget_scale=2.0))
    assert fine.n_nodes > base.n_nodes
    for mesh in (base, fine):
        h = p.epsilon / mesh.meta["n_layers"]
        w = mesh.grading_report.dx_max
        floor = np.sqrt(3.0) * h * w / (h * h + w * w)
        assert mesh.grading_report.min_quality >= 0.8 * floor


def test_export_import_roundtrip(tmp_path, power_mesh, flat_mesh):
    for mesh, kind in ((power_mesh, "power"), (flat_mesh, "flat")):
        path = tmp_path / f"{kind}.txt"
        ns.save_mesh(mesh, str(path))
        again = ns.load_mesh(str(path))
        assert np.array_equal(mesh.nodes, again.nodes)
        assert np.array_equal(mesh.cells, again.cells)
        assert np.array_equal(mesh.edges, again.edges)
        assert np.array_equal(mesh.edge_tags, again.edge_tags)
        assert again.meta == mesh.meta
        assert again.meta["profile_kind"] == kind
        assert dumps_mesh(again) == dumps_mesh(mesh)


@pytest.mark.parametrize("kind, shape", [("power", {"m": 2.0}), ("power", {"m": 6.0}),
                                         ("flat", {"r0": 0.3})])
def test_loaded_mesh_keeps_the_grading_report(tmp_path, kind, shape):
    mesh = ns.build_mesh(ns.make_profile(kind, epsilon=1e-2, **shape), COARSE)
    path = str(tmp_path / "mesh.txt")
    ns.save_mesh(mesh, path)
    assert ns.load_mesh(path).grading_report == mesh.grading_report
    assert mesh.grading_report.dx_min > 0.0


def test_mesh_file_without_neck_widths_loads_with_zero(tmp_path, power_mesh):
    lines = [ln for ln in dumps_mesh(power_mesh).splitlines() if not ln.startswith("dx_m")]
    lines[lines.index(f"meta {len(power_mesh.meta)}")] = f"meta {len(power_mesh.meta) - 2}"
    path = tmp_path / "old.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rep = ns.load_mesh(str(path)).grading_report
    assert (rep.dx_min, rep.dx_max) == (0.0, 0.0)
    assert replace(rep, dx_min=power_mesh.grading_report.dx_min,
                   dx_max=power_mesh.grading_report.dx_max) == power_mesh.grading_report


def test_mesh_build_deterministic(power_profile):
    a = dumps_mesh(ns.build_mesh(power_profile, COARSE))
    b = dumps_mesh(ns.build_mesh(power_profile, COARSE))
    assert a == b


def test_quality_metric():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    q = triangle_quality(nodes, np.array([[0, 1, 2]]))
    assert q[0] == pytest.approx(1.0)


def test_arrays_readonly(power_mesh):
    with pytest.raises(ValueError):
        power_mesh.nodes[0, 0] = 42.0


# ---------------------------------------------------------------------------
# build oracle: the cell and boundary-chain construction as per-row loops

def _oracle_topology(mesh):
    """Neck cells, annulus cells, boundary edges and tags of ``mesh`` rebuilt
    row by row from its node layout (neck grid, top arc, bottom arc, rings)."""
    layers = mesh.meta["n_layers"]
    nx = mesh.meta["n_neck_cells"] // (2 * layers) + 1
    nid = np.arange(nx * (layers + 1)).reshape(nx, layers + 1)
    n_arc = int(np.count_nonzero(mesh.edge_tags == BoundaryTag.INCLUSION_TOP)) - nx
    arc_top_ids = nx * (layers + 1) + np.arange(n_arc)
    arc_bot_ids = arc_top_ids + n_arc
    ring0 = np.concatenate([nid[nx - 1, :], arc_top_ids, nid[0, ::-1], arc_bot_ids[::-1]])
    n0 = ring0.size
    first = nx * (layers + 1) + 2 * n_arc
    n_r = (mesh.n_nodes - first) // n0
    ring_ids = [ring0] + [first + k * n0 + np.arange(n0) for k in range(n_r)]

    xs = mesh.nodes[nid[:, 0], 0]
    mids = 0.5 * (xs[:-1] + xs[1:])
    cells = []
    for i in range(nx - 1):
        for j in range(layers):
            a, b = nid[i, j], nid[i + 1, j]
            cc, d = nid[i + 1, j + 1], nid[i, j + 1]
            if mids[i] >= 0.0:
                cells += [(a, b, cc), (a, cc, d)]
            else:
                cells += [(a, b, d), (b, cc, d)]
    for k in range(n_r):
        inner, outer = ring_ids[k], ring_ids[k + 1]
        for i in range(n0):
            j = (i + 1) % n0
            a, b, cc, d = inner[i], outer[i], outer[j], inner[j]
            cells += [(a, b, cc), (a, cc, d)]

    edges, tags = [], []

    def chain(ids, tag, close=False):
        n = len(ids)
        for i in range(n if close else n - 1):
            edges.append((ids[i], ids[(i + 1) % n]))
            tags.append(tag)

    chain(nid[:, layers], BoundaryTag.INCLUSION_TOP)
    chain(np.concatenate([[nid[nx - 1, layers]], arc_top_ids, [nid[0, layers]]]),
          BoundaryTag.INCLUSION_TOP)
    chain(nid[:, 0], BoundaryTag.INCLUSION_BOTTOM)
    chain(np.concatenate([[nid[0, 0]], arc_bot_ids[::-1], [nid[nx - 1, 0]]]),
          BoundaryTag.INCLUSION_BOTTOM)
    chain(ring_ids[-1], BoundaryTag.OUTER, close=True)
    return (np.array(cells, dtype=np.int64), np.array(edges, dtype=np.int64),
            np.array(tags, dtype=np.int8))


@pytest.mark.parametrize("kind, shape", [
    ("power", {"epsilon": 2e-2, "m": 2.0}),
    ("power", {"epsilon": 1e-4, "m": 6.0}),
    ("flat", {"epsilon": 1e-2, "r0": 0.3}),
    ("flat", {"epsilon": 1e-2, "r0": 0.0}),
], ids=["power-m2", "power-m6", "flat-r0.3", "flat-r0"])
def test_build_matches_loop_oracle(kind, shape):
    mesh = ns.build_mesh(ns.make_profile(kind, **shape), COARSE)
    cells, edges, tags = _oracle_topology(mesh)
    assert mesh.n_cells == cells.shape[0]
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.edge_tags, tags)
    assert (mesh.cells.dtype, mesh.edges.dtype, mesh.edge_tags.dtype) == \
        (cells.dtype, edges.dtype, tags.dtype)


# ---------------------------------------------------------------------------
# validate_mesh: each structural check fires on a corrupted copy

def _corrupt(mesh, cells=None, edges=None, tags=None):
    return Mesh(mesh.nodes.copy(),
                mesh.cells.copy() if cells is None else cells,
                mesh.edges.copy() if edges is None else edges,
                mesh.edge_tags.copy() if tags is None else tags,
                dict(mesh.meta))


def test_validate_rejects_inverted_cell(power_mesh):
    cells = power_mesh.cells.copy()
    cells[5] = cells[5, [0, 2, 1]]
    c = power_mesh.nodes[cells[5]].mean(axis=0)
    with pytest.raises(MeshingError, match=r"^degenerate or inverted cell near \(") as info:
        validate_mesh(_corrupt(power_mesh, cells=cells))
    assert str(info.value).endswith(f"near ({c[0]:.4g}, {c[1]:.4g})")


def test_validate_rejects_edge_tag_count_mismatch(power_mesh):
    with pytest.raises(MeshingError, match="^boundary edge/tag count mismatch$"):
        validate_mesh(_corrupt(power_mesh, tags=power_mesh.edge_tags[:-1].copy()))


def test_validate_rejects_untagged_edge(power_mesh):
    tags = power_mesh.edge_tags.copy()
    tags[3] = 0
    with pytest.raises(MeshingError, match="^untagged boundary edge$"):
        validate_mesh(_corrupt(power_mesh, tags=tags))


def test_validate_rejects_open_tag_curve(power_mesh):
    k = int(np.flatnonzero(power_mesh.edge_tags == BoundaryTag.OUTER)[0])
    keep = np.arange(power_mesh.edges.shape[0]) != k
    mesh = _corrupt(power_mesh, edges=power_mesh.edges[keep].copy(),
                    tags=power_mesh.edge_tags[keep].copy())
    with pytest.raises(MeshingError, match="^boundary curve for tag 3 is not closed$"):
        validate_mesh(mesh)


def test_validate_names_first_tagged_interior_edge(power_mesh):
    # a closed triangle of interior edges tagged as a third inclusion curve,
    # inserted after the first boundary edge: the tag curves stay closed
    on_boundary = np.isin(power_mesh.cells, power_mesh.edges).any(axis=1)
    c = power_mesh.cells[np.flatnonzero(~on_boundary)[0]]
    loop = np.array([[c[1], c[2]], [c[2], c[0]], [c[0], c[1]]])
    edges = np.vstack([power_mesh.edges[:1], loop, power_mesh.edges[1:]])
    tags = np.concatenate([power_mesh.edge_tags[:1], np.full(3, 4, dtype=np.int8),
                           power_mesh.edge_tags[1:]])
    a, b = sorted((int(c[1]), int(c[2])))
    with pytest.raises(MeshingError, match=rf"^tagged edge \({a},{b}\) is not a boundary edge$"):
        validate_mesh(_corrupt(power_mesh, edges=edges, tags=tags))


# ---------------------------------------------------------------------------
# load_mesh: malformed files raise a MeshingError naming the path and block

def _edit_mesh_file(mesh, path, edit):
    lines = dumps_mesh(mesh).splitlines()
    heads = {ln.split()[0]: i for i, ln in enumerate(lines) if ln[:1].isalpha()}
    path.write_text("\n".join(edit(lines, heads)) + "\n", encoding="utf-8")
    return str(path)


def _set(lines, i, text):
    lines[i] = text
    return lines


@pytest.mark.parametrize("edit, block, cause", [
    (lambda ls, h: ls[:h["cells"] + 5], "cells", "truncated"),
    (lambda ls, h: ls[:h["cells"]], "cells", "file ends before"),
    (lambda ls, h: _set(ls, h["nodes"] + 3, "0.5"), "nodes", "number of columns"),
    (lambda ls, h: _set(ls, h["nodes"] + 3, "0.5 1e-3x"), "nodes", "could not convert"),
    (lambda ls, h: _set(ls, h["edges"] + 2, "1 2"), "edges", "number of columns"),
    (lambda ls, h: _set(ls, h["edges"] + 2, "1 2 300"), "edges", "tag out of range"),
    (lambda ls, h: _set(ls, h["cells"], "cells many"), "cells", "bad row count"),
    (lambda ls, h: _set(ls, h["cells"], "cells"), "cells", "bad row count"),
    (lambda ls, h: _set(ls, h["meta"] + 1, "epsilon: 0.1"), "meta", "bad row"),
    (lambda ls, h: ls[:h["cells"]] + ["cells 0"] + ls[h["edges"]:], "cells", "at least one"),
    (lambda ls, h: _set(ls, h["cells"] + 4, "0 1 999999"), "cells", "node ids"),
], ids=["truncated-block", "missing-block", "short-row", "unparsable-number",
        "short-edge-row", "tag-range", "bad-count", "no-count", "meta-row",
        "no-cells", "node-id-range"])
def test_load_mesh_errors_are_typed(tmp_path, power_mesh, edit, block, cause):
    path = _edit_mesh_file(power_mesh, tmp_path / "bad.txt", edit)
    with pytest.raises(MeshingError) as info:
        ns.load_mesh(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: ")
    assert f"'{block}'" in msg
    assert cause in msg
