from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import neckstress as ns
from neckstress.fem import FemError
from neckstress.meshing import BoundaryTag as BT

from conftest import COARSE, rng


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_rigid_bc_reproduced_exactly(power_mesh, params, alpha):
    # e(psi) = 0 makes the interpolated rigid motion the exact discrete
    # solution; the direct solve reproduces it to 1e-10
    solver = ns.DirichletSolver(power_mesh, params)
    psi = ns.rigid_basis(2)[alpha]
    (f,), rep = solver.solve({"psi": {BT.INCLUSION_TOP: psi, BT.INCLUSION_BOTTOM: psi,
                                      BT.OUTER: psi}})
    exact = ns.interpolate(solver.space, psi)
    assert np.abs(f.values - exact.values).max() < 1e-10
    assert rep.rel_residual <= 1e-11


def test_zero_bc_gives_zero(power_solver):
    (f,), rep = power_solver.solve({"zero": {BT.INCLUSION_TOP: 0.0, BT.INCLUSION_BOTTOM: 0.0,
                                             BT.OUTER: 0.0}})
    assert np.all(f.values == 0.0)
    assert rep.method == "trivial"


def test_bc_must_cover_all_tags(power_solver):
    with pytest.raises(FemError):
        power_solver.solve({"u": {BT.INCLUSION_TOP: 0.0, BT.OUTER: 0.0}})


def test_v1_gradient_sandwich(power_profile, power_cells):
    """max |grad v1^a| tracks 1/(eps + x1^2) along the neck up to constants."""
    p = power_profile
    v11 = power_cells.v[(1, 1)]
    ratios = []
    for x in (0.0, 0.1, 0.2, 0.4, 0.6):
        g = ns.gradient_at(v11, np.array([x, p.epsilon / 2 + p.h2(x) / 2]))
        mag = float(np.sqrt((g * g).sum()))
        ratios.append(mag * (p.epsilon + x * x))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 20.0
    assert ratios.min() > 0.05


def test_gradient_at_rigid_rotation(power_solver):
    field = ns.interpolate(power_solver.space, ns.rigid_basis(2)[2])
    g = ns.gradient_at(field, np.array([3.0, 0.5]))
    assert np.allclose(g, [[0.0, -1.0], [1.0, 0.0]], atol=1e-10)


def test_gradient_at_constant_field(power_solver):
    field = ns.interpolate(power_solver.space, np.array([0.3, -0.7]))
    g = ns.gradient_at(field, np.array([-2.5, 1.2]))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_at_vbar_interpolant():
    # gap-linear profile: the second row of the gradient is (0, 1/eps) at the
    # neck center of a flat profile
    p = ns.make_profile("flat", epsilon=1e-2, r0=0.3)
    mesh = ns.build_mesh(p, COARSE)

    def fn(pts):
        x = np.clip(pts[:, 0], -p.r_neck, p.r_neck)
        y = np.clip(pts[:, 1], p.bottom(x), p.top(x))
        inside = np.abs(pts[:, 0]) <= p.r_neck
        out = np.zeros_like(pts)
        vb = ns.vbar(p, np.column_stack([x, y]))
        out[:, 1] = np.where(inside, vb, 0.0)
        return out

    field = ns.interpolate(ns.P2Space(mesh), fn)
    g = ns.gradient_at(field, np.array([0.0, p.epsilon / 2]))
    assert g[1, 1] == pytest.approx(1.0 / p.epsilon, rel=1e-6)
    assert abs(g[1, 0]) < 1e-6 / p.epsilon


def test_gradient_at_outside_domain(power_mesh, power_cells):
    with pytest.raises(FemError):
        ns.gradient_at(power_cells.v3, np.array([20.0, 0.0]))


def _gradient_at_by_scan(field, pt):
    """Reference for gradient_at: scan every cell, keep those containing the
    point, take the nearest centroid (the first on ties)."""
    mesh = field.space.mesh
    best = None
    for c in range(mesh.n_cells):
        v = mesh.nodes[mesh.cells[c]]
        xi, eta = np.linalg.solve(np.stack([v[1] - v[0], v[2] - v[0]], axis=1), pt - v[0])
        if xi >= -1e-10 and eta >= -1e-10 and xi + eta <= 1.0 + 1e-10:
            d = np.sum((v.mean(axis=0) - pt) ** 2)
            if best is None or d < best[0]:
                best = (d, c, np.array([[xi, eta]]))
    if best is None:
        return None
    return ns.fem._grads_at(field.space, field.values, np.array([best[1]]), best[2])[0, 0]


def test_gradient_at_matches_cell_scan(power_mesh, power_cells):
    field = power_cells.v[(1, 1)]
    pts = np.vstack([rng(3).uniform(-5.0, 5.0, (20, 2)),
                     power_mesh.nodes[np.abs(power_mesh.nodes[:, 0]) < 1e-12][:5]])
    for pt in pts:
        ref = _gradient_at_by_scan(field, pt)
        if ref is None:
            with pytest.raises(FemError):
                ns.gradient_at(field, pt)
        else:
            g = ns.gradient_at(field, pt)
            assert np.allclose(g, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_max_gradient_rigid(power_profile, power_solver):
    field = ns.interpolate(power_solver.space, ns.rigid_basis(2)[2])
    [(val, _)] = ns.max_gradient([field], lambda pts: np.ones(len(pts), dtype=bool))
    assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_max_gradient_empty_region(power_profile, power_cells):
    region = ns.neck_region(power_profile, 1e-9)
    with pytest.raises(FemError):
        ns.max_gradient([power_cells.v3], region)


def test_max_gradient_regions_partition(power_profile, power_cells):
    v11 = power_cells.v[(1, 1)]
    neck = ns.neck_region(power_profile, 0.95)
    [(neck_val, where)] = ns.max_gradient([v11], neck)
    [(shell_val, _)] = ns.max_gradient([v11], lambda pts: ~neck(pts))
    assert neck_val > shell_val          # concentration lives in the neck
    assert abs(where[0]) < 0.1
    # a field measured in a stack reads exactly as measured alone
    (val, at), _ = ns.max_gradient([v11, power_cells.v3], neck)
    assert val == neck_val and np.array_equal(at, where)


def test_energy_integral_rigid_orthogonal(params, power_cells):
    rigid = ns.interpolate(power_cells.solver.space, ns.rigid_basis(2)[2])
    (scale, val), _ = ns.energy_integral(params, [power_cells.v[(1, 1)], rigid])
    assert abs(val) < 1e-8 * scale
    assert scale > 0.0


def test_energy_integral_mesh_mismatch(power_mesh, params, power_profile):
    other = ns.build_mesh(power_profile, replace(COARSE, budget_scale=2.0 ** 0.5))
    fa = ns.interpolate(ns.P2Space(power_mesh), np.array([1.0, 0.0]))
    fb = ns.interpolate(ns.P2Space(other), np.array([1.0, 0.0]))
    with pytest.raises(FemError):
        ns.energy_integral(params, [fa, fb])


def test_traction_moment_of_rigid_field(power_solver):
    field = ns.interpolate(power_solver.space, ns.rigid_basis(2)[0])
    for tag in (BT.INCLUSION_TOP, BT.INCLUSION_BOTTOM, BT.OUTER):
        for m in ns.boundary_traction_moment(power_solver, field, tag, ns.rigid_basis(2)):
            assert abs(m) < 1e-10


def test_traction_moment_unknown_tag(power_cells):
    with pytest.raises(FemError):
        ns.boundary_traction_moment(power_cells.solver, power_cells.v3, 99,
                                    ns.rigid_basis(2)[:1])


def test_traction_moment_rejects_a_field_on_another_mesh(power_solver, flat_mesh):
    field = ns.interpolate(ns.P2Space(flat_mesh), ns.rigid_basis(2)[0])
    with pytest.raises(FemError, match="different meshes"):
        ns.boundary_traction_moment(power_solver, field, BT.OUTER, ns.rigid_basis(2)[:1])


def test_stiffness_product_equals_full_k(power_cells, params):
    """The solver's block product K V equals the assembled K's: bit for bit
    in the boundary rows, to 1e-13 relative overall, for the solved cell
    fields, for random columns and for a single vector."""
    solver = power_cells.solver
    k = solver.space.stiffness(params)
    cell_fields = [power_cells.v[key] for key in sorted(power_cells.v)] + [power_cells.v3]
    blocks = [np.column_stack([f.vec() for f in cell_fields]),
              rng(3).standard_normal((k.shape[0], 4)),
              power_cells.v3.vec()]
    for v in blocks:
        want = k @ v
        got = solver.stiffness_product(v)
        assert got.shape == want.shape
        assert np.array_equal(got[solver.bdofs], want[solver.bdofs])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _full_k_traction_moment(params, field, tag, motion):
    """Oracle: the residual pairing with the whole assembled stiffness."""
    space = field.space
    dofs = space.tag_scalar_dofs(tag)
    r = space.stiffness(params) @ field.vec()
    psi = motion(space.dof_coords[dofs])
    val = float(np.sum(psi[:, 0] * r[2 * dofs]) + np.sum(psi[:, 1] * r[2 * dofs + 1]))
    return val if int(tag) == int(BT.OUTER) else -val


def test_traction_moments_match_the_full_k_pairing(power_cells, power_system, params):
    u = ns.reconstruct(power_cells, power_system)
    for field in (power_cells.v3, power_cells.v[(1, 2)], u):
        want = {(tag, psi.index): _full_k_traction_moment(params, field, tag, psi)
                for tag in (BT.INCLUSION_TOP, BT.INCLUSION_BOTTOM, BT.OUTER)
                for psi in power_cells.basis}
        scale = max(abs(w) for w in want.values())
        assert scale > 0.0
        for (tag, index), w in want.items():
            (got,) = ns.boundary_traction_moment(power_cells.solver, field, tag,
                                                 [power_cells.basis[index - 1]])
            assert abs(got - w) <= 1e-13 * scale


def test_traction_moments_of_several_motions_equal_one_call_each(power_cells):
    solver, field = power_cells.solver, power_cells.v3
    for tag in (BT.INCLUSION_TOP, BT.OUTER):
        many = ns.boundary_traction_moment(solver, field, tag, power_cells.basis)
        assert many == [ns.boundary_traction_moment(solver, field, tag, [psi])[0]
                        for psi in power_cells.basis]


def test_b_vector_volume_vs_traction(power_cells, power_system):
    b_tr = np.array(ns.boundary_traction_moment(power_cells.solver, power_cells.v3,
                                                BT.INCLUSION_TOP, power_cells.basis))
    rel = np.linalg.norm(b_tr - power_system.b1) / np.linalg.norm(power_system.b1)
    assert rel < 1e-6


def _red_split(mesh):
    """Affine refinement: every triangle splits into four at its edge
    midpoints and every tagged edge into two, so the polygon stays fixed and
    the meshes are nested."""
    c, n = mesh.cells, mesh.n_nodes
    pairs = np.sort(np.concatenate([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]]), axis=1)
    uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
    m01, m12, m20 = n + np.asarray(inv).reshape(3, -1)
    a, b, d = c.T
    cells = np.concatenate([np.stack(t, axis=1) for t in (
        (a, m01, m20), (m01, b, m12), (m20, m12, d), (m01, m12, m20))])
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])])
    # uniq is sorted by rows, so its keys are sorted too
    be = np.sort(mesh.edges, axis=1)
    mid = n + np.searchsorted(uniq[:, 0] * n + uniq[:, 1], be[:, 0] * n + be[:, 1])
    edges = np.concatenate([np.column_stack([mesh.edges[:, 0], mid]),
                            np.column_stack([mid, mesh.edges[:, 1]])])
    tags = np.concatenate([mesh.edge_tags, mesh.edge_tags])
    return ns.Mesh(nodes, cells, edges, tags, dict(mesh.meta))


def test_h_convergence_under_refinement(power_profile, params):
    """Cell-problem energy decreases monotonically toward a Richardson limit
    under nested affine refinement: the P2 spaces are nested and the data
    are interpolated exactly, so the Galerkin energy cannot rise."""
    mesh = ns.build_mesh(power_profile, COARSE)
    energies = []
    for _ in range(3):
        ds = ns.DirichletSolver(mesh, params)
        (v11,), _ = ds.solve({"v1^1": {BT.INCLUSION_TOP: ns.rigid_basis(2)[0],
                                       BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: 0.0}})
        energies.append(ns.energy_integral(params, [v11])[0, 0])
        mesh = _red_split(mesh)
    e0, e1, e2 = energies
    # monotone and contracting
    tol = 1e-3 * abs(e0)
    d1, d2 = e1 - e0, e2 - e1
    assert d1 * d2 >= -tol * abs(d1)
    assert abs(d2) < 0.6 * abs(d1)
    # geometric-tail extrapolation: limit = e2 + d2*r/(1-r) with r = d2/d1
    limit = e2 + d2 * d2 / (d1 - d2)
    assert abs(e2 - limit) <= abs(e1 - limit)


def test_energy_minimality_vs_explicit_competitor(power_profile, params,
                                                  power_cells, power_system):
    """The reconstructed solution has no more energy than the admissible
    competitor spliced from the gap-linear fields."""
    p = power_profile
    u = ns.reconstruct(power_cells, power_system)
    space = u.space
    coords = space.dof_coords
    basis = power_cells.basis

    # blend: gap-linear rigid interpolation inside |x1| < 0.8, u outside
    x = np.clip(coords[:, 0], -p.r_neck, p.r_neck)
    y = np.clip(coords[:, 1], p.bottom(x), p.top(x))
    vb = np.zeros(coords.shape[0])
    inside = np.abs(coords[:, 0]) <= p.r_neck
    vb[inside] = np.atleast_1d(ns.vbar(p, np.column_stack([x, y])))[inside]
    rig1 = sum(power_system.c1[a] * basis[a](coords) for a in range(3))
    rig2 = sum(power_system.c2[a] * basis[a](coords) for a in range(3))
    neckfield = vb[:, None] * rig1 + (1.0 - vb[:, None]) * rig2
    t = np.clip((np.abs(coords[:, 0]) - 0.6) / 0.2, 0.0, 1.0)[:, None]
    comp_vals = np.where(inside[:, None], (1.0 - t) * neckfield + t * u.values,
                         u.values)
    competitor = ns.DisplacementField(space, comp_vals, "competitor")
    (e_u, _), (_, e_c) = ns.energy_integral(params, [u, competitor])
    assert e_u <= e_c * (1.0 + 1e-10)


def test_field_export(tmp_path, power_cells):
    path = tmp_path / "field.txt"
    ns.export_field(power_cells.v3, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# neckstress-field-v1"
    n = power_cells.v3.space.n_scalar
    assert len(lines) == n + 3
    parts = lines[3].split()
    assert len(parts) == 5


def test_field_export_matches_per_line_writer(tmp_path, power_cells):
    """The bulk-formatted export is byte-identical to writing one row at a
    time with the file's row format."""
    from neckstress.meshing import FLOAT_FMT
    field = power_cells.v3
    space = field.space
    ref = tmp_path / "ref.txt"
    with open(ref, "w", encoding="utf-8") as f:
        f.write("# neckstress-field-v1\n")
        f.write(f"# dofs {space.n_scalar} (vertices {space.n_vertex}, "
                f"edge midpoints {space.n_edge})\n")
        f.write("# id x y ux uy\n")
        fmt = "%d " + " ".join([FLOAT_FMT] * 4) + "\n"
        for i in range(space.n_scalar):
            x, y = space.dof_coords[i]
            ux, uy = field.values[i]
            f.write(fmt % (i, x, y, ux, uy))
    path = tmp_path / "field.txt"
    ns.export_field(field, str(path))
    assert path.read_bytes() == ref.read_bytes()


def test_solve_report_fields(power_solver):
    (f,), rep = power_solver.solve({"v1^1": {BT.INCLUSION_TOP: ns.rigid_basis(2)[0],
                                             BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: 0.0}})
    assert (rep.method, rep.iterations) == ("direct", 0)
    assert rep.rel_residual <= 1e-10


def _cell_bcs(phi):
    """The seven cell-problem data of one point: v1^a, v2^a, then v3."""
    bcs = {f"v{i}^{psi.index}": {own: psi, other: 0.0, BT.OUTER: 0.0}
           for i, own, other in ((1, BT.INCLUSION_TOP, BT.INCLUSION_BOTTOM),
                                 (2, BT.INCLUSION_BOTTOM, BT.INCLUSION_TOP))
           for psi in ns.rigid_basis(2)}
    bcs["v3"] = {BT.INCLUSION_TOP: 0.0, BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: phi}
    return bcs


def _cg_oracle(solver, fields):
    """Each field's free dofs re-solved by one spla.cg call per load, with
    the preconditioner built from the module constants; (x, iterations)."""
    spla = ns.fem.spla
    ilu = spla.spilu(solver.a_ff, drop_tol=ns.fem._ILU_DROP_TOL,
                     fill_factor=ns.fem._ILU_FILL_FACTOR)
    m = spla.LinearOperator(solver.a_ff.shape, ilu.solve)
    out = []
    for f in fields:
        rhs = solver.neg_a_fb @ f.vec()[solver.bdofs]
        count = [0]

        def _cb(_, count=count):
            count[0] += 1

        x, info = spla.cg(solver.a_ff, rhs, rtol=ns.fem._PCG_RTOL, atol=0.0,
                          maxiter=ns.fem._PCG_MAXITER, M=m, callback=_cb)
        assert info == 0
        out.append((x, count[0]))
    return out


def _pcg_only(monkeypatch):
    """Send every system, however small, to the block PCG branch."""
    monkeypatch.setattr(ns.fem, "_DIRECT_MAX_FREE_DOFS", 0)


def test_block_pcg_equals_one_cg_per_column(power_mesh, params, monkeypatch):
    _pcg_only(monkeypatch)
    solver = ns.DirichletSolver(power_mesh, params)
    fields, rep = solver.solve(_cell_bcs(ns.resolve_phi("shear-twist")))
    oracle = _cg_oracle(solver, fields)
    for f, (x, _) in zip(fields, oracle):
        assert np.array_equal(f.vec()[solver.fdofs], x)
    assert rep.method == "pcg"
    assert rep.iterations == max(n for _, n in oracle)


def test_block_pcg_applies_ilu_once_per_iteration(power_mesh, params, monkeypatch):
    solve_calls = []
    spilu = ns.fem.spla.spilu

    class CountingIlu:
        def __init__(self, ilu):
            self._ilu = ilu

        def solve(self, rhs, *args):
            solve_calls.append(rhs.shape)
            return self._ilu.solve(rhs, *args)

    monkeypatch.setattr(ns.fem.spla, "spilu",
                        lambda *a, **kw: CountingIlu(spilu(*a, **kw)))
    _pcg_only(monkeypatch)
    solver = ns.DirichletSolver(power_mesh, params)
    bcs = _cell_bcs(ns.resolve_phi("affine-x2"))
    _, rep = solver.solve(bcs)
    assert len(solve_calls) == rep.iterations > 0
    assert solve_calls[0] == (solver.fdofs.size, len(bcs))


def test_zero_load_column_is_zero_and_leaves_others_unchanged(power_solver):
    zero = {BT.INCLUSION_TOP: 0.0, BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: 0.0}
    a, b, c = list(_cell_bcs(ns.resolve_phi("affine-x2")).values())[:3]
    base, rep = power_solver.solve({"a": a, "b": b, "c": c})
    got, rep0 = power_solver.solve({"a": a, "zero": zero, "b": b, "c": c})
    assert np.all(got[1].values == 0.0)
    for f, e in zip(got[:1] + got[2:], base):
        assert np.array_equal(f.values, e.values)
    assert (rep0.iterations, rep0.rel_residual, rep0.method) == (
        rep.iterations, rep.rel_residual, rep.method)


def test_pcg_give_up_falls_back_to_direct(power_mesh, params, monkeypatch):
    bcs = {f"v1^{psi.index}": {BT.INCLUSION_TOP: psi, BT.INCLUSION_BOTTOM: 0.0,
                               BT.OUTER: 0.0}
           for psi in ns.rigid_basis(2)}
    expected, _ = ns.DirichletSolver(power_mesh, params).solve(bcs)

    factor, factored = ns.fem._factor, []

    def counting_factor(a_ff, lattice_ordered):
        factored.append(a_ff.shape)
        return factor(a_ff, lattice_ordered)

    _pcg_only(monkeypatch)
    monkeypatch.setattr(ns.fem, "_PCG_MAXITER", 1)
    monkeypatch.setattr(ns.fem, "_factor", counting_factor)
    got, rep = ns.DirichletSolver(power_mesh, params).solve(bcs)
    assert rep.method == "pcg->direct"
    assert len(factored) == 1       # the fallback factors through _factor
    assert rep.iterations == 1
    assert rep.rel_residual <= 1e-10
    for f, e in zip(got, expected):
        scale = np.abs(e.values).max()
        assert np.abs(f.values - e.values).max() <= 1e-8 * scale


def test_a_solve_off_by_1e_6_in_one_column_raises_naming_it(power_mesh, params,
                                                            monkeypatch):
    """The per-column residual check: a factor whose solve scales the
    second column by 1 + 1e-6 leaves that column a relative residual of
    1e-6, and the solve raises naming it; the true factor passes."""
    bcs = _cell_bcs(ns.resolve_phi("shear-twist"))
    _, rep = ns.DirichletSolver(power_mesh, params).solve(bcs)
    assert rep.rel_residual <= 1e-10
    factor = ns.fem._factor

    class OffFactor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            x = self.lu.solve(b)
            x[:, 1] *= 1.0 + 1e-6
            return x

    monkeypatch.setattr(ns.fem, "_factor", lambda *args: OffFactor(factor(*args)))
    with pytest.raises(FemError, match=r"'v1\^2' did not reach tolerance"):
        ns.DirichletSolver(power_mesh, params).solve(bcs)


def test_direct_fields_equal_the_block_pcg_fields(power_mesh, params, monkeypatch):
    bcs = _cell_bcs(ns.resolve_phi("shear-twist"))
    direct, rep = ns.DirichletSolver(power_mesh, params).solve(bcs)
    assert (rep.method, rep.iterations) == ("direct", 0)
    assert rep.rel_residual <= 1e-12
    _pcg_only(monkeypatch)
    pcg, rep = ns.DirichletSolver(power_mesh, params).solve(bcs)
    assert rep.method == "pcg"
    for d, p in zip(direct, pcg):
        assert np.abs(d.values - p.values).max() <= 1e-9 * np.abs(p.values).max()


def test_nearly_incompressible_factor_keeps_its_fill(power_mesh, monkeypatch):
    """K_ff is SPD, so the LU needs no pivoting.  Threshold pivoting at lam
    >> mu leaves the fill-reducing order: on this mesh it made a lam = 1000
    factor about ten times as full as the lam = 1 one (and on a default
    sweep point took minutes instead of under a second)."""
    splu, nnz = ns.fem.spla.splu, []

    def recording_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        nnz.append(lu.nnz)
        return lu

    monkeypatch.setattr(ns.fem.spla, "splu", recording_splu)
    bcs = _cell_bcs(ns.resolve_phi("affine-x2"))
    for lam in (1.0, 1000.0):
        _, rep = ns.DirichletSolver(power_mesh, ns.ElasticParams(lam, 1.0)).solve(bcs)
        assert rep.method == "direct"
    assert len(nnz) == 2
    assert nnz[1] <= 1.1 * nnz[0]


def test_energy_integral_closed_form_linear_field(power_mesh):
    """Constant-strain field: energy = (lam*tr(e)^2 + 2*mu*|e|^2)*area."""
    params = ns.ElasticParams(1.3, 0.8)
    a = np.array([[0.37, -0.21], [0.55, 0.12]])
    field = ns.interpolate(ns.P2Space(power_mesh), lambda pts: pts @ a.T)
    e = 0.5 * (a + a.T)
    density = params.lam * np.trace(e) ** 2 + 2.0 * params.mu * np.sum(e * e)
    area = float(np.sum(power_mesh.signed_areas()))
    [[got]] = ns.energy_integral(params, [field])
    assert got == pytest.approx(density * area, rel=1e-12)


def test_traction_moment_closed_form_constant_stress(power_mesh, power_profile):
    """For u = A x the stress is constant and int_outer (sigma n) . x equals
    tr(sigma) times the area enclosed by the discrete outer polygon."""
    params = ns.ElasticParams(1.3, 0.8)
    a = np.array([[0.37, -0.21], [0.55, 0.12]])
    solver = ns.DirichletSolver(power_mesh, params)
    field = ns.interpolate(solver.space, lambda pts: pts @ a.T)
    e = 0.5 * (a + a.T)
    sigma = params.lam * np.trace(e) * np.eye(2) + 2.0 * params.mu * e

    edges = power_mesh.edges[power_mesh.edge_tags == int(BT.OUTER)]
    follow = {int(p): int(q) for p, q in edges}
    loop = [int(edges[0, 0])]
    while follow[loop[-1]] != loop[0]:
        loop.append(follow[loop[-1]])
    pts = power_mesh.nodes[loop]
    x, y = pts[:, 0], pts[:, 1]
    polygon_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert polygon_area == pytest.approx(np.pi * power_profile.outer_radius ** 2,
                                         rel=5e-3)

    (got,) = ns.boundary_traction_moment(solver, field, BT.OUTER, [lambda pts: pts])
    assert got == pytest.approx(np.trace(sigma) * polygon_area, rel=1e-12)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.7, 0.6)])
def test_stiffness_equals_three_einsum_formula(power_mesh, lam, mu):
    """The assembled K has the pattern of the element matrices built from
    three separate quadrature sums, lam*div*div + mu*(grad u : grad v + grad
    u : grad v^T), and their entries to a few units in the last place of
    each row's largest entry: K sums each quadrature sum in another order."""
    space = ns.fem.P2Space(power_mesh)
    g, w = space.grad_q, space.wdet
    a1 = np.einsum("mq,mqac,mqbd->macbd", w, g, g)
    dot = np.einsum("mq,mqak,mqbk->mab", w, g, g)
    a3 = np.einsum("mq,mqad,mqbc->macbd", w, g, g)
    k = lam * a1 + mu * a3
    k[:, :, 0, :, 0] += mu * dot
    k[:, :, 1, :, 1] += mu * dot
    m = g.shape[0]
    vdofs = np.empty((m, 12), dtype=np.int64)
    vdofs[:, 0::2] = 2 * space.cell_dofs
    vdofs[:, 1::2] = 2 * space.cell_dofs + 1
    n = 2 * space.n_scalar
    oracle = sp.coo_matrix((k.reshape(m, 12, 12).ravel(),
                            (np.repeat(vdofs, 12, axis=1).ravel(),
                             np.tile(vdofs, (1, 12)).ravel())), shape=(n, n)).tocsr()
    oracle.sum_duplicates()
    got = space.stiffness(ns.ElasticParams(lam, mu))
    assert np.array_equal(got.indptr, oracle.indptr)
    assert np.array_equal(got.indices, oracle.indices)
    row_max = np.maximum.reduceat(np.abs(oracle.data), oracle.indptr[:-1])
    scale = np.repeat(row_max, np.diff(oracle.indptr))
    assert np.all(np.abs(got.data - oracle.data) <= 8 * 2.0 ** -52 * scale)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.7, 0.6), (-0.5, 1.0), (1000.0, 1.0)])
def test_stiffness_energy_of_an_affine_field_is_its_closed_form(power_mesh, lam, mu):
    """P2 reproduces u = A x exactly, so u . K u is the constant energy
    density lam (tr E)^2 + 2 mu E : E, E = sym A, times the mesh area.  A is
    not symmetric, so the antisymmetric part must drop out; lam < 0 checks
    that lam multiplies a sum and is never split as sqrt(lam)."""
    a = np.array([[0.37, -0.21], [0.55, 0.12]])
    space = ns.P2Space(power_mesh)
    u = ns.interpolate(space, lambda pts: pts @ a.T).vec()
    e = 0.5 * (a + a.T)
    density = lam * np.trace(e) ** 2 + 2.0 * mu * np.sum(e * e)
    area = float(np.sum(power_mesh.signed_areas()))
    got = float(u @ (space.stiffness(ns.ElasticParams(lam, mu)) @ u))
    assert got == pytest.approx(density * area, rel=1e-12)


def test_gradient_kernels_match_their_einsum_forms(power_mesh):
    """grad_q adds the same two products einsum does, so it is equal; the
    field gradients, on every cell or on sampled cells, sum their six terms
    in another order."""
    space = ns.P2Space(power_mesh)
    ghat = ns.fem._ref_grads(ns.fem._QP)
    assert np.array_equal(space.grad_q, np.einsum("mij,qaj->mqai", space.inv_jt, ghat))
    values = rng(5).standard_normal((3, space.n_scalar, 2))
    want = np.einsum("...mai,mqaj->...mqij", values[..., space.cell_dofs, :], space.grad_q)
    tol = 1e-13 * np.abs(want).max()
    assert np.abs(ns.fem._grads_at(space, values) - want).max() <= tol
    assert np.abs(ns.fem._grads_at(space, values[1]) - want[1]).max() <= tol

    cells = rng(6).choice(space.cell_dofs.shape[0], size=40, replace=False)
    bary = ns.fem._SAMPLE_BARY
    gphys = ns.fem._physical_grads(space.inv_jt[cells], ns.fem._ref_grads(bary))
    want = np.einsum("...mai,mqaj->...mqij", values[..., space.cell_dofs[cells], :], gphys)
    tol = 1e-13 * np.abs(want).max()
    assert np.abs(ns.fem._grads_at(space, values, cells, bary) - want).max() <= tol
    assert np.abs(ns.fem._grads_at(space, values[1], cells, bary) - want[1]).max() <= tol


@pytest.mark.parametrize("mesh_name", ["power_mesh", "flat_mesh"])
def test_edge_numbering_is_the_row_wise_unique_of_the_cell_edges(request, mesh_name):
    """Edges numbered by their integer keys come in the order, and with the
    cell-to-edge map, of a row-wise unique of the sorted endpoint pairs."""
    mesh = request.getfixturevalue(mesh_name)
    cells = mesh.cells
    pairs = np.sort(np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]),
                    axis=1)
    uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    m = cells.shape[0]
    space = ns.P2Space(mesh)
    assert space.n_edge == uniq.shape[0]
    assert np.array_equal(space.cell_edges, np.stack([inv[:m], inv[m:2 * m], inv[2 * m:]], axis=1))
    assert np.array_equal(space.edge_ends, uniq)
    midpoints = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    assert np.array_equal(space.dof_coords[mesh.n_nodes:], midpoints)


# ---------------------------------------------------------------------------
# nested-dissection order from the mesh lattice

def _is_lattice_step(corners: np.ndarray, period: int = 0) -> np.ndarray:
    """Per cell: all three corners are on the block and at most one step
    apart in each lattice coordinate (the first coordinate periodic when
    ``period``)."""
    d = np.abs(corners[:, :, None, :] - corners[:, None, :, :])
    if period:
        d[..., 0] = np.minimum(d[..., 0], period - d[..., 0])
    return np.all(corners >= 0, axis=(1, 2)) & np.all(d <= 1, axis=(1, 2, 3))


_ROOT2 = 2.0 ** 0.5


@pytest.mark.parametrize("kind,shape,eps,grading", [
    ("power", {"m": 2.0}, 1e-4, ns.GradingConfig()),
    ("power", {"m": 2.5}, 1e-4, ns.GradingConfig()),
    ("power", {"m": 6.0}, 1e-4, ns.GradingConfig()),
    ("flat", {"r0": 0.3, "kappa0": 4.0}, 1e-4, ns.GradingConfig()),
    ("flat", {"r0": 0.0}, 1e-4, ns.GradingConfig()),
    ("power", {"m": 2.0}, 2e-2, COARSE),
    ("power", {"m": 2.0}, 1e-4, ns.GradingConfig(budget_scale=1.25)),
    ("power", {"m": 2.0}, 1e-4, ns.GradingConfig(budget_scale=_ROOT2)),
    ("power", {"m": 2.0}, 1e-12, ns.GradingConfig()),
], ids=["m2", "m2.5", "m6", "flat-r0.3", "flat-r0", "coarse", "layers5", "budget-root2",
        "eps1e-12"])
def test_lattice_cells_are_lattice_neighbours_and_the_order_permutes_the_free_dofs(
        kind, shape, eps, grading):
    mesh = ns.build_mesh(ns.make_profile(kind, epsilon=eps, **shape), grading)
    lat = mesh.lattice
    assert lat.shape == (mesh.n_nodes, 4)
    on_neck, on_ring = lat[:, 0] >= 0, lat[:, 2] >= 0
    assert np.all(on_neck | on_ring)
    for cols, on in (([0, 1], on_neck), ([2, 3], on_ring)):
        assert np.unique(lat[on][:, cols], axis=0).shape[0] == np.count_nonzero(on)
    corners = lat[mesh.cells]
    n0 = int(lat[:, 2].max()) + 1
    assert np.all(_is_lattice_step(corners[..., :2])
                  | _is_lattice_step(corners[..., 2:], period=n0))
    space = ns.P2Space(mesh)
    free = np.setdiff1d(np.arange(space.n_scalar), space.dirichlet_scalar)
    order = ns.fem._lattice_order(space, free)
    assert np.array_equal(np.sort(order), np.arange(free.size))


@pytest.mark.parametrize("which", ["power_mesh", "default"])
def test_lattice_order_cuts_the_fill_and_keeps_the_fields(request, which, params,
                                                          monkeypatch):
    mesh = (request.getfixturevalue("power_mesh") if which == "power_mesh"
            else ns.build_mesh(ns.make_profile("power", epsilon=1e-4, m=2.0)))
    bare = ns.Mesh(mesh.nodes, mesh.cells, mesh.edges, mesh.edge_tags, mesh.meta)
    splu, factors = ns.fem.spla.splu, []

    def recording_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factors.append((kwargs["permc_spec"], lu.nnz))
        return lu

    monkeypatch.setattr(ns.fem.spla, "splu", recording_splu)
    bcs = _cell_bcs(ns.resolve_phi("affine-x2"))
    solver = ns.DirichletSolver(mesh, params)
    # the free dofs are renumbered in pairs, and none is lost
    ascending = np.flatnonzero(~np.isin(np.arange(2 * solver.space.n_scalar), solver.bdofs))
    assert np.array_equal(np.sort(solver.fdofs), ascending)
    assert np.array_equal(solver.fdofs[1::2], solver.fdofs[0::2] + 1)
    nd, _ = solver.solve(bcs)
    mmd, _ = ns.DirichletSolver(bare, params).solve(bcs)
    (spec_nd, nnz_nd), (spec_mmd, nnz_mmd) = factors
    assert (spec_nd, spec_mmd) == ("NATURAL", "MMD_AT_PLUS_A")
    assert nnz_nd <= 0.75 * nnz_mmd
    for a, b in zip(nd, mmd):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()


def test_a_mesh_with_no_lattice_solves_in_mmd_order_to_the_same_fields(power_mesh, params,
                                                                        tmp_path):
    """A loaded mesh and a hand-built one carry no lattice; translation data
    give the same fields on the shifted mesh as on the built one."""
    path = str(tmp_path / "mesh.txt")
    ns.save_mesh(power_mesh, path)
    shifted = ns.Mesh(power_mesh.nodes + np.array([0.23, -0.11]), power_mesh.cells.copy(),
                      power_mesh.edges.copy(), power_mesh.edge_tags.copy(),
                      dict(power_mesh.meta))
    basis = ns.rigid_basis(2)
    bcs = {f"v1^{al}": {BT.INCLUSION_TOP: basis[al], BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: 0.0}
           for al in range(2)}
    solver = ns.DirichletSolver(power_mesh, params)
    assert solver.lattice_ordered
    expected, _ = solver.solve(bcs)
    for mesh in (ns.load_mesh(path), shifted):
        assert mesh.lattice is None
        solver = ns.DirichletSolver(mesh, params)
        assert not solver.lattice_ordered
        got, rep = solver.solve(bcs)
        assert rep.method == "direct"
        for f, e in zip(got, expected):
            assert np.abs(f.values - e.values).max() <= 1e-12 * np.abs(e.values).max()
