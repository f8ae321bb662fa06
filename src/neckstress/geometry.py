"""Two-inclusion neck geometry.

The narrow region between the inclusions is described over a chart
|x1| < 2*r_neck by a top curve x2 = eps + h1(x1) and a bottom curve
x2 = h2(x1).  Two profile families are supported:

* ``Power``: relative convexity of order m, (h1 - h2)(x1) = kappa0*|x1|**m.
* ``Flat``: h1 = h2 = 0 on the flat set |x1| <= r0, continued outside by a
  strictly convex quadratic in the distance to the flat set,
  (h1 - h2)(x1) = kappa0*dist(x1, flat set)**2.

Both kinds are split symmetrically, h1 = -h2, so the mid-gap line is
x2 = eps/2.  ``Flat`` with r0 = 0 coincides exactly with ``Power`` m = 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid profile parameters or out-of-chart evaluation."""


class ChartError(GeometryError):
    """Evaluation outside the neck chart |x1| <= 2*r_neck."""


class ProfileKind(enum.Enum):
    FLAT = "flat"
    POWER = "power"


@dataclass(frozen=True)
class NeckProfile:
    """Validated neck geometry. Immutable; safe to share across threads.

    The neck chart radius ``r_neck`` and the outer boundary's radius
    ``outer_radius`` are fixed."""

    kind: ProfileKind
    epsilon: float
    kappa0: float
    m: float | None
    r0: float

    r_neck = 1.0
    outer_radius = 5.0

    def __post_init__(self):
        for name in ("epsilon", "kappa0", "m", "r0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise GeometryError(f"{name} must be finite, got {value}")
        if not (self.epsilon > 0.0):
            raise GeometryError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.kappa0 > 0.0):
            raise GeometryError(f"kappa0 must be positive, got {self.kappa0}")
        if self.kind is ProfileKind.POWER:
            if self.m is None or self.m < 2.0:
                raise GeometryError(f"order m must satisfy m >= 2, got {self.m}")
            if self.r0 != 0.0:
                raise GeometryError("r0 is a Flat-kind parameter; Power requires r0 = 0")
        else:
            if self.m is not None:
                raise GeometryError("m is a Power-kind parameter; Flat takes no order m")
            if self.r0 < 0.0:
                raise GeometryError(f"r0 must be >= 0, got {self.r0}")
            if self.r0 >= self.r_neck:
                raise GeometryError(
                    f"flat radius r0 = {self.r0} must be < r_neck = {self.r_neck}"
                )

    # -- chart ---------------------------------------------------------------

    @property
    def chart_radius(self) -> float:
        return 2.0 * self.r_neck

    def _check_chart(self, x1):
        if np.any(np.abs(x1) > self.chart_radius * (1.0 + 1e-12)):
            raise ChartError(
                f"|x1| exceeds the neck chart radius {self.chart_radius}"
            )

    # -- boundary curves -----------------------------------------------------

    def _half_sep(self, x1):
        """(h1 - h2)/2 as a function of x1, without chart checking."""
        a = np.abs(np.asarray(x1, dtype=float))
        if self.kind is ProfileKind.POWER:
            if self.m == 2.0:   # bitwise-identical to the Flat r0 = 0 case
                return 0.5 * self.kappa0 * a * a
            return 0.5 * self.kappa0 * a ** self.m
        d = np.maximum(a - self.r0, 0.0)
        return 0.5 * self.kappa0 * d * d

    def h1(self, x1):
        return self._half_sep(x1)

    def h2(self, x1):
        return -self._half_sep(x1)

    def dh1(self, x1):
        """d h1 / d x1 (odd in x1; zero on the flat set and at its edge)."""
        x = np.asarray(x1, dtype=float)
        a = np.abs(x)
        if self.kind is ProfileKind.POWER:
            if self.m == 2.0:
                mag = self.kappa0 * a
            else:
                mag = 0.5 * self.kappa0 * self.m * a ** (self.m - 1.0)
        else:
            mag = self.kappa0 * np.maximum(a - self.r0, 0.0)
        return mag * np.sign(x)

    def top(self, x1):
        """Top inclusion boundary x2 = eps + h1(x1)."""
        return self.epsilon + self.h1(x1)

    def bottom(self, x1):
        return self.h2(x1)


def make_profile(
    kind,
    epsilon: float = 1e-2,
    kappa0: float = 1.0,
    m: float | None = None,
    r0: float = 0.0,
) -> NeckProfile:
    """Build and validate a :class:`NeckProfile`.

    ``kind`` may be a :class:`ProfileKind` or the strings "flat"/"power".
    Rejects epsilon <= 0, m < 2, r0 >= r_neck, non-convex
    parameter combinations (kappa0 <= 0) and the other kind's shape value:
    Power with r0 != 0, Flat with any m (Power's m = None reads as 2).
    """
    if isinstance(kind, str):
        try:
            kind = ProfileKind(kind.lower())
        except ValueError:
            raise GeometryError(f"unknown profile kind {kind!r}") from None
    if kind is ProfileKind.POWER and m is None:
        m = 2.0
    return NeckProfile(
        kind=kind,
        epsilon=float(epsilon),
        kappa0=float(kappa0),
        m=None if m is None else float(m),
        r0=float(r0),
    )


def neck_region(profile: NeckProfile, r: float):
    """Predicate of an (n, 2) point array: true in the neck strip |x1| < r
    between the inclusion boundaries, with tolerance 1e-9 r_neck."""
    tol = 1e-9 * profile.r_neck

    def inside(pts):
        x, y = pts[:, 0], pts[:, 1]
        xc = np.clip(x, -r, r)
        return ((np.abs(x) < r) & (y >= profile.bottom(xc) - tol)
                & (y <= profile.top(xc) + tol))

    return inside


def gap(profile: NeckProfile, x1):
    """Gap width eps + h1(x1) - h2(x1) between the inclusion boundaries.

    Raises :class:`ChartError` for |x1| beyond the chart radius 2*r_neck.
    """
    profile._check_chart(x1)
    return profile.epsilon + 2.0 * profile._half_sep(x1)
