import numpy as np
import pytest

import neckstress as ns
from neckstress.elasticity import ElasticityError

from conftest import rng


def test_ellipticity_validation():
    with pytest.raises(ElasticityError):
        ns.ElasticParams(1.0, 0.0)
    with pytest.raises(ElasticityError):
        ns.ElasticParams(-2.0, 1.0)   # 2*(-2) + 2 = -2 < 0
    ns.ElasticParams(-0.5, 1.0)       # admissible: 2*lam + 2*mu = 1 > 0


@pytest.mark.parametrize("field", ["lam", "mu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_moduli_are_rejected(field, value):
    """An infinite lam used to end in a non-finite field error that named
    the field, not the modulus."""
    moduli = {"lam": 1.0, "mu": 1.0, field: value}
    with pytest.raises(ElasticityError, match=rf"^{field} must be finite"):
        ns.ElasticParams(**moduli)


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
