import numpy as np
import pytest

import neckstress as ns
from neckstress.decomposition import DecompositionError
from neckstress.meshing import BoundaryTag as BT


def cramer_diff(system) -> np.ndarray:
    """C1 - C2 recomputed by Cramer's rule on the 3x3 block a11 with p.

    Cross-validates the direct solve through an independent algebraic route
    (d = 2 only)."""
    if system.n_alpha != 3 or system.p is None:
        raise DecompositionError("cramer_diff needs a solved d=2 system")
    a = system.a11
    p = system.p
    det = np.linalg.det(a)
    out = np.empty(3)
    for k in range(3):
        m = a.copy()
        m[:, k] = p
        out[k] = np.linalg.det(m) / det
    return out


def test_system_shapes(power_system):
    s = power_system
    assert s.n_alpha == 3
    assert s.gram.shape == (6, 6)
    assert s.load.shape == (6,)
    assert s.a11.shape == (3, 3)
    assert s.b1.shape == (3,)


def test_gram_symmetry_and_spd(power_system):
    s = power_system
    assert np.array_equal(s.gram, s.gram.T)
    assert np.linalg.eigvalsh(s.a11).min() > 0.0
    assert np.all(np.diag(s.a11) > 0.0)
    assert s.gram_defect < 1e-8


def test_assemble_system_makes_one_energy_integral_call(params, power_cells, power_system,
                                                       monkeypatch):
    fields = [power_cells.v[(i, al)] for i in (1, 2) for al in (1, 2, 3)] + [power_cells.v3]
    calls = []
    energy = ns.decomposition.energy_integral

    def counting_energy(params_, fields_):
        calls.append([id(f) for f in fields_])
        return energy(params_, fields_)

    monkeypatch.setattr(ns.decomposition, "energy_integral", counting_energy)
    system = ns.assemble_system(power_cells)
    assert calls == [[id(f) for f in fields]]
    for name in ("gram", "load", "gram_defect"):
        assert np.array_equal(getattr(system, name), getattr(power_system, name))


@pytest.mark.parametrize("lam", [1.0, -0.5])
def test_energy_integral_matches_stiffness_gram(power_mesh, power_cells, lam):
    """The quadrature matrix of the seven cell fields is the symmetrized
    V^T (K V) to rounding, also for an admissible negative lam."""
    params_ = ns.ElasticParams(lam, 1.0)
    cells = power_cells if lam == 1.0 else ns.solve_cell_problems(
        power_mesh, params_, ns.resolve_phi("affine-x2"))
    fields = [cells.v[(i, al)] for i in (1, 2) for al in (1, 2, 3)] + [cells.v3]
    v = np.column_stack([f.vec() for f in fields])
    g = v.T @ cells.kv
    g = 0.5 * (g + g.T)
    quad = ns.energy_integral(params_, fields)
    assert np.abs(quad - g).max() <= 1e-12 * np.abs(g).max()


def test_assemble_system_checks_against_the_solvers_moduli(power_mesh):
    """Cells solved at lam = -0.5 pass the cross-check: the quadrature takes
    the moduli of the solver that formed K."""
    cells = ns.solve_cell_problems(power_mesh, ns.ElasticParams(-0.5, 1.0),
                                   ns.resolve_phi("affine-x2"))
    assert ns.assemble_system(cells).gram_defect < 1e-8


def test_residuals(power_system):
    assert power_system.residual <= 1e-10
    assert power_system.residual_p <= 1e-10


def test_cramer_cross_check(power_system):
    alt = cramer_diff(power_system)
    rel = np.abs(alt - power_system.diff).max() / np.abs(power_system.diff).max()
    assert rel < 1e-8


def test_zero_data_gives_zero(power_mesh, params):
    cells = ns.solve_cell_problems(power_mesh, params, ns.resolve_phi("zero"))
    system = ns.solve_coefficients(ns.assemble_system(cells))
    assert np.abs(system.c1).max() < 1e-10
    assert np.abs(system.c2).max() < 1e-10
    u = ns.reconstruct(cells, system)
    assert np.abs(u.values).max() < 1e-10


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_rigid_data_propagates(power_mesh, params, gamma):
    psi = ns.rigid_basis(2)[gamma - 1]
    cells = ns.solve_cell_problems(power_mesh, params, psi)
    system = ns.solve_coefficients(ns.assemble_system(cells))
    indicator = np.zeros(3)
    indicator[gamma - 1] = 1.0
    assert np.abs(system.c1 - indicator).max() < 1e-8
    assert np.abs(system.c2 - indicator).max() < 1e-8
    u = ns.reconstruct(cells, system)
    exact = ns.interpolate(cells.solver.space, psi)
    assert np.abs(u.values - exact.values).max() < 1e-8


def test_pipeline_linearity(power_mesh, params, power_cells, power_system):
    phi2 = lambda pts: 2.0 * ns.resolve_phi("affine-x2")(pts)
    cells2 = ns.solve_cell_problems(power_mesh, params, phi2)
    system2 = ns.solve_coefficients(ns.assemble_system(cells2))
    assert np.allclose(system2.c1, 2.0 * power_system.c1, rtol=1e-9, atol=1e-12)
    assert np.allclose(system2.diff, 2.0 * power_system.diff, rtol=1e-9, atol=1e-12)
    u1 = ns.reconstruct(power_cells, power_system)
    u2 = ns.reconstruct(cells2, system2)
    scale = np.abs(u1.values).max()
    assert np.abs(u2.values - 2.0 * u1.values).max() < 1e-9 * scale


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("s", [2.0, 0.37])
def test_mu_is_the_unit_of_stress(power_mesh, lam, mu, s):
    """The moduli enter only through lam/mu: scaling both by s leaves every
    field and rigid-motion coefficient as it is and scales the Gram entries
    by s, which is why an experiment sets only lam, with mu = 1."""
    phi = ns.resolve_phi("shear-twist")
    runs = []
    for scale in (1.0, s):
        cells = ns.solve_cell_problems(power_mesh, ns.ElasticParams(scale * lam, scale * mu),
                                       phi)
        system = ns.solve_coefficients(ns.assemble_system(cells))
        fields = [cells.v[key].values for key in sorted(cells.v)]
        fields += [cells.v3.values, ns.reconstruct(cells, system).values]
        runs.append((fields, system.c1, system.diff, system.a11 / scale))
    (fields, c1, diff, a11), (fields_s, c1_s, diff_s, a11_s) = runs

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(a).max()

    assert max(rel(f, g) for f, g in zip(fields, fields_s)) <= 1e-12
    assert rel(c1, c1_s) <= 1e-12 and rel(diff, diff_s) <= 1e-12
    assert rel(a11, a11_s) <= 1e-12


def test_reconstruct_requires_solved(power_cells, params):
    unsolved = ns.assemble_system(power_cells)
    with pytest.raises(DecompositionError):
        ns.reconstruct(power_cells, unsolved)


def test_reconstructed_traction_moments_vanish(power_cells, power_system):
    u = ns.reconstruct(power_cells, power_system)
    scale = np.abs(power_system.b1).max()
    for tag in (BT.INCLUSION_TOP, BT.INCLUSION_BOTTOM):
        for m in ns.boundary_traction_moment(power_cells.solver, u, tag, power_cells.basis):
            assert abs(m) < 1e-8 * max(scale, 1.0)


def test_reconstructed_boundary_traces(power_cells, power_system):
    u = ns.reconstruct(power_cells, power_system)
    space = u.space
    for tag, c in ((BT.INCLUSION_TOP, power_system.c1),
                   (BT.INCLUSION_BOTTOM, power_system.c2)):
        dofs = space.tag_scalar_dofs(tag)
        pts = space.dof_coords[dofs]
        rigid = sum(c[a] * power_cells.basis[a](pts) for a in range(3))
        assert np.abs(u.values[dofs] - rigid).max() < 1e-10


def test_sum_field_check(power_profile, power_cells):
    region = ns.neck_region(power_profile, 0.95)
    sums = ns.sum_field_check(power_cells, region)
    [(v11_max, _)] = ns.max_gradient([power_cells.v[(1, 1)]], region)
    for al, (val, _) in sums.items():
        assert val < 0.2 * v11_max   # the sums are far below the single fields


def test_frame_consistency_translation_block(power_profile, params):
    """Translating the whole geometry leaves the translation-translation
    energies unchanged (rotation entries shift with the moment arm)."""
    mesh = ns.build_mesh(power_profile, ns.GradingConfig(
        dx_min_frac=0.5, dx_max_frac=0.12, arc_frac=0.15, n_radial=6))
    shift = np.array([0.23, -0.11])
    shifted = ns.Mesh(mesh.nodes + shift, mesh.cells.copy(), mesh.edges.copy(),
                      mesh.edge_tags.copy(), dict(mesh.meta))

    def trans_block(m):
        params_ = params
        cells = {}
        ds = ns.DirichletSolver(m, params_)
        basis = ns.rigid_basis(2)
        fields, _, _ = ds.solve({f"v1^{al}": {BT.INCLUSION_TOP: basis[al],
                                              BT.INCLUSION_BOTTOM: 0.0, BT.OUTER: 0.0}
                                 for al in range(2)})
        return ns.energy_integral(params_, fields)

    blk0 = trans_block(mesh)
    blk1 = trans_block(shifted)
    assert np.abs(blk0 - blk1).max() < 1e-8 * np.abs(blk0).max()


@pytest.mark.parametrize("route", ["strain", "stiffness"])
def test_gram_cross_check_catches_a_perturbed_strain(params, power_cells, monkeypatch,
                                                      route):
    # the quadrature reads only the fields' gradients and V^T K V reads only
    # K (the solver's blocks of it), so a fault of 1e-6 in either route must
    # raise
    cells = power_cells
    if route == "strain":
        grads = ns.fem._grads_at

        def perturbed(space, values, cells=None, bary=None):
            return grads(space, values, cells, bary) * (1.0 + 1e-6)

        monkeypatch.setattr(ns.fem, "_grads_at", perturbed)
    else:
        stiffness = ns.P2Space.stiffness
        monkeypatch.setattr(ns.P2Space, "stiffness",
                            lambda space, p: stiffness(space, p) * (1.0 + 1e-6))
        # K V comes from the solve, so the faulty K enters through a new one;
        # scaling K leaves the solved fields as they are, to rounding
        cells = ns.solve_cell_problems(power_cells.solver.space.mesh, params,
                                       ns.resolve_phi("affine-x2"))
    with pytest.raises(DecompositionError, match="V\\^T K V"):
        ns.assemble_system(cells)
