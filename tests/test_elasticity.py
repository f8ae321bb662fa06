import numpy as np
import pytest

import neckstress as ns
from neckstress.elasticity import ElasticityError

from conftest import rng


def test_ellipticity_validation():
    with pytest.raises(ElasticityError):
        ns.ElasticParams(1.0, 0.0, 2)
    with pytest.raises(ElasticityError):
        ns.ElasticParams(-2.0, 1.0, 2)   # 2*(-2) + 2 = -2 < 0
    ns.ElasticParams(-0.5, 1.0, 2)       # admissible: d*lam + 2*mu = 1 > 0


def test_delta0_band():
    ns.ElasticParams(1.0, 1.0, 2, delta0=0.25)   # 0.25 <= 1 and 4 <= 4
    with pytest.raises(ElasticityError):
        ns.ElasticParams(1.0, 1.0, 2, delta0=0.5)    # 2*1+2 = 4 > 1/0.5
    with pytest.raises(ElasticityError):
        ns.ElasticParams(1.0, 1.0, 2, delta0=2.0)    # delta0 > mu


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rigid_basis_strains_vanish(dim):
    basis = ns.rigid_basis(dim)
    assert len(basis) == dim * (dim + 1) // 2
    # the motions are linear, so central differences are exact up to rounding
    x = rng(dim).normal(size=dim)
    steps = 0.5 * np.eye(dim)
    for psi in basis:
        g = (psi(x + steps) - psi(x - steps)).T      # g[i, j] = d psi_i / d x_j
        assert np.allclose(g + g.T, 0.0, atol=1e-14)


def test_rigid_basis_ordering_d2():
    basis = ns.rigid_basis(2)
    pts = np.array([[0.7, -0.2]])
    assert np.allclose(basis[0](pts), [[1.0, 0.0]])
    assert np.allclose(basis[1](pts), [[0.0, 1.0]])
    assert np.allclose(basis[2](pts), [[0.2, 0.7]])   # (-x2, x1)


def test_rigid_basis_ordering_d3():
    basis = ns.rigid_basis(3)
    assert len(basis) == 6
    pts = np.array([[1.0, 2.0, 3.0]])
    # alpha = 4 is the first rotation, (-x2, x1, 0)
    assert np.allclose(basis[3](pts), [[-2.0, 1.0, 0.0]])
