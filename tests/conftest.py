import numpy as np
import pytest

import neckstress as ns

# coarse grading for unit tests: keeps meshes small while preserving the
# layered-neck structure the assertions rely on
COARSE = ns.GradingConfig(dx_min_frac=0.5, dx_max_frac=0.12, arc_frac=0.15,
                          n_radial=6)


@pytest.fixture(scope="session")
def params():
    return ns.ElasticParams(1.0, 1.0)


@pytest.fixture(scope="session")
def power_profile():
    return ns.make_profile("power", epsilon=2e-2, m=2.0)


@pytest.fixture(scope="session")
def power_mesh(power_profile):
    return ns.build_mesh(power_profile, COARSE)


@pytest.fixture(scope="session")
def flat_profile():
    return ns.make_profile("flat", epsilon=1e-2, r0=0.3)


@pytest.fixture(scope="session")
def flat_mesh(flat_profile):
    return ns.build_mesh(flat_profile, COARSE)


@pytest.fixture(scope="session")
def power_solver(power_mesh, params):
    return ns.DirichletSolver(power_mesh, params)


@pytest.fixture(scope="session")
def power_cells(power_mesh, params):
    phi = ns.resolve_phi("affine-x2")
    return ns.solve_cell_problems(power_mesh, params, phi)


@pytest.fixture(scope="session")
def power_system(power_cells, params):
    return ns.solve_coefficients(ns.assemble_system(power_cells))


def rng(seed=0):
    return np.random.default_rng(seed)
