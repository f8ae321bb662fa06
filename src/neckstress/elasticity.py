"""Isotropic elastic moduli and the rigid-displacement basis.

The material law is C[A] = lam*tr(A)*I + 2*mu*A for symmetric A, with
ellipticity requiring mu > 0 and 2*lam + 2*mu > 0 in the plane.  The
finite-element layer (``fem``) evaluates it on strains at quadrature points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ElasticityError(ValueError):
    pass


@dataclass(frozen=True)
class ElasticParams:
    """Isotropic plane (d = 2) moduli, finite and elliptic."""

    lam: float
    mu: float

    def __post_init__(self):
        for name in ("lam", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ElasticityError(f"{name} must be finite, got {value}")
        if not (self.mu > 0.0):
            raise ElasticityError(f"mu must be positive, got {self.mu}")
        top = 2.0 * self.lam + 2.0 * self.mu
        if not (top > 0.0):
            raise ElasticityError(
                f"ellipticity requires 2*lam + 2*mu > 0, got {top}")


@dataclass(frozen=True)
class RigidMotion:
    """One element of the rigid-displacement basis.

    Translations come first (index 1..d), then infinitesimal rotations
    x_j e_k - x_k e_j with (j, k) in lexicographic order, j < k.  ``index``
    is the 1-based position in that fixed ordering.
    """

    index: int
    translation: int | None = None        # component index for e_i, 0-based
    rotation: tuple[int, int] | None = None  # (j, k) 0-based, j < k

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        if self.translation is not None:
            out[:, self.translation] = 1.0
        else:
            j, k = self.rotation
            out[:, k] = pts[:, j]
            out[:, j] = -pts[:, k]
        if np.ndim(points) == 1:
            return out[0]
        return out


def rigid_basis(dim: int) -> list[RigidMotion]:
    """The d(d+1)/2 rigid motions: d translations then rotations (j<k)."""
    if dim < 2:
        raise ElasticityError("rigid basis requires dim >= 2")
    basis = [RigidMotion(index=i + 1, translation=i) for i in range(dim)]
    idx = dim + 1
    for j in range(dim):
        for k in range(j + 1, dim):
            basis.append(RigidMotion(index=idx, rotation=(j, k)))
            idx += 1
    return basis


def n_rigid(dim: int) -> int:
    return dim * (dim + 1) // 2
