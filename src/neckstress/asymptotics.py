"""Analytic companions to the finite element runs: the explicit gap-linear
auxiliary fields, the scaling laws for the Gram entries, quadrature oracles
for the nearly singular integrals behind those laws, and the predicted
blow-up/boundedness rates.

Scaling-law conventions.  Two families govern every Gram entry:

    rho1(k, m; eps) = 1            if m < k
                      |log eps|    if m = k
                      eps^((k-m)/m)    if m > k

    rho2(k, m; eps) = 1            if m < k
                      |log eps|    if m = k
                      eps^((k-m)/(2m)) if m > k

rho1(k, m) is the eps-scaling of int_0^R r^(k-1) / (eps + kappa0 r^m) dr and
rho2(k, m) that of int_0^R r^(k/2-1) / sqrt(eps + kappa0 r^m) dr, so the
quadrature oracle below can verify both families by slope fitting.  The
oracle integrates with scipy's QUADPACK, imported on its first call, so
importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import n_rigid
from .geometry import ChartError, NeckProfile


class AsymptoticsError(ValueError):
    pass


class QuadratureError(RuntimeError):
    """QUADPACK's error estimate on an oracle panel exceeds the tolerance."""


# ---------------------------------------------------------------------------
# gap-linear auxiliary fields

def vbar(profile: NeckProfile, x) -> float | np.ndarray:
    """Scalar profile (x2 - h2(x1)) / gap(x1): 1 on the top inclusion
    boundary, 0 on the bottom one, linear across the gap."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2 = pts[:, 0], pts[:, 1]
    profile._check_chart(x1)
    bot = profile.bottom(x1)
    top = profile.top(x1)
    tol = 1e-9 * (profile.epsilon + profile.r_neck)
    if np.any(x2 < bot - tol) or np.any(x2 > top + tol):
        raise ChartError("point is outside the gap")
    out = (x2 - bot) / (top - bot)
    if np.ndim(x) == 1:
        return float(out[0])
    return out


def vtilde(profile: NeckProfile, psi, x) -> np.ndarray:
    """Explicit competitor field psi(x1, top(x1)) * vbar(x) on the chart.

    ``psi`` is a :class:`RigidMotion` or any other callable of points; it is
    evaluated on the top boundary trace, so vtilde equals psi on the top
    inclusion boundary and vanishes on the bottom one.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    vb = np.atleast_1d(vbar(profile, pts))
    trace_pts = np.column_stack([pts[:, 0], profile.top(pts[:, 0])])
    out = psi(trace_pts) * vb[:, None]
    if np.ndim(x) == 1:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# scaling laws

@dataclass(frozen=True)
class ScalingLaw:
    """Predicted eps-dependence eps**exponent * |log eps|**log_factor;
    ``regime`` names the case of a rate table that gave it."""

    exponent: float
    log_factor: int = 0
    regime: str = ""


def rho_law(kind: int, k: float, m: float) -> ScalingLaw:
    """The rho1/rho2 law: O(1) for m < k, the exact |log eps| branch at
    m = k with no smoothing between branches, a pure power for m > k."""
    if kind not in (1, 2):
        raise AsymptoticsError(f"rho kind must be 1 or 2, got {kind}")
    if not (math.isfinite(k) and k >= 1):
        raise AsymptoticsError(f"rho requires a finite k >= 1, got {k}")
    if not (math.isfinite(m) and m >= 2):
        raise AsymptoticsError(f"rho requires a finite m >= 2, got {m}")
    if m < k:
        return ScalingLaw(0.0)
    if m == k:
        return ScalingLaw(0.0, 1)
    denom = m if kind == 1 else 2.0 * m
    return ScalingLaw((k - m) / denom)


def rho(kind: int, k: float, m: float, epsilon: float) -> float:
    """The value of :func:`rho_law` at one gap width."""
    law = rho_law(kind, k, m)
    if not (0.0 < epsilon < 0.5):
        raise AsymptoticsError(f"rho requires eps in (0, 1/2), got {epsilon}")
    return epsilon ** law.exponent * abs(math.log(epsilon)) ** law.log_factor


def integral_law(k: float, m: float, p: float) -> ScalingLaw:
    """Predicted eps-scaling of int_0^R r^k/(eps + kappa0 r^m)^p dr.

    The integral is O(1) when p*m < k+1, gains |log eps| exactly at
    p*m = k+1, and scales like eps^((k+1-p*m)/m) beyond.  p = 1 reproduces
    rho1(k+1, m); p = 1/2 reproduces rho2(2(k+1), m).
    """
    for name, value in (("k", k), ("m", m), ("p", p)):
        if not math.isfinite(value):
            raise AsymptoticsError(f"{name} must be finite, got {value}")
    crit = p * m
    if crit < k + 1.0 - 1e-12:
        return ScalingLaw(0.0)
    if abs(crit - (k + 1.0)) <= 1e-12:
        return ScalingLaw(0.0, 1)
    return ScalingLaw((k + 1.0 - crit) / m)


# ---------------------------------------------------------------------------
# quadrature oracle

ORACLE_POWERS = (0.5, 1.0, 2.0, 3.0)

# relative accuracy QUADPACK is asked for on each panel, and the largest
# relative error estimate a panel may return
_ORACLE_REL_TOL = 1e-8


def singular_integral_oracle(k: float, m: float, p: float, epsilon: float,
                             r_max: float = 1.0, kappa0: float = 1.0) -> float:
    """int_0^r_max r^k / (eps + kappa0 r^m)^p dr: QUADPACK (``scipy.integrate.quad``)
    on panels doubling from the near-singular scale (eps/kappa0)^(1/m), summed by
    ``math.fsum``.  A panel whose error estimate exceeds ``_ORACLE_REL_TOL`` of
    its value raises :class:`QuadratureError`."""
    if not (math.isfinite(k) and k >= 0):
        raise AsymptoticsError(f"k must be finite and >= 0, got {k}")
    if not (math.isfinite(m) and m >= 2):
        raise AsymptoticsError(f"m must be finite and >= 2, got {m}")
    if p not in ORACLE_POWERS:
        raise AsymptoticsError(f"power p must be one of {ORACLE_POWERS}, got {p}")
    for name, value in (("epsilon", epsilon), ("kappa0", kappa0), ("r_max", r_max)):
        if not (math.isfinite(value) and value > 0):
            raise AsymptoticsError(f"{name} must be finite and > 0, got {value}")
    from scipy.integrate import quad

    def f(r):
        return r ** k / (epsilon + kappa0 * r ** m) ** p

    r_star = (epsilon / kappa0) ** (1.0 / m)
    breaks = [0.0]
    r = min(r_star, r_max)
    while r < r_max:
        breaks.append(r)
        r *= 2.0
    breaks.append(r_max)

    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        value, error = quad(f, a, b, epsabs=0.0, epsrel=_ORACLE_REL_TOL)
        if error > _ORACLE_REL_TOL * abs(value):
            raise QuadratureError(f"quadrature did not converge on [{a:.3e}, {b:.3e}]: "
                                  f"error estimate {error:.3e} for {value:.3e}")
        pieces.append(value)
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# flat-contact Gram entry envelopes

def flat_entry_oracle(d: int, sigma: float, epsilon: float,
                      entry: tuple[int, int]) -> float:
    """Upper-bound envelope for the a11 entry (alpha, beta) of a flat-contact
    geometry with flat-set measure ``sigma``, up to the universal constant.

    Translation indices are 1..d, rotations d+1..d(d+1)/2.  The d = 2 table
    and the ball-shaped d >= 3 table are supported; anything else raises.
    """
    if d < 2:
        raise AsymptoticsError("d >= 2 required")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise AsymptoticsError(f"flat-set measure must be finite and >= 0, got {sigma}")
    if not (0.0 < epsilon < 0.5):
        raise AsymptoticsError(f"epsilon must be in (0, 1/2), got {epsilon}")
    n = n_rigid(d)
    al, be = sorted(entry)
    if not (1 <= al <= n and 1 <= be <= n):
        raise AsymptoticsError(f"entry {entry} out of range for d={d}")
    log = abs(math.log(epsilon))
    rs = math.sqrt(epsilon)

    if d == 2:
        if al == be:
            if al <= 2:
                return sigma / epsilon + 1.0 / rs
            return sigma ** 3 / epsilon + 1.0
        if (al, be) == (1, 2):
            return sigma / rs + log
        # mixed translation-rotation
        return sigma ** 2 / rs + 1.0

    q = (d + 1.0) / (d - 1.0)
    if al == be:
        if al <= d:
            if d == 3:
                return sigma / epsilon + log
            return sigma / epsilon + 1.0
        return sigma ** q / epsilon + 1.0
    if be <= d:
        return sigma / rs + sigma ** ((d - 2.0) / (d - 1.0)) * log + 1.0
    if al <= d:
        return sigma ** (d / (d - 1.0)) / rs + sigma * log + 1.0
    return sigma ** q / rs + sigma ** (d / (d - 1.0)) * log + 1.0


# ---------------------------------------------------------------------------
# rate predictions

def predicted_rate(d: int, geometry) -> ScalingLaw:
    """Rate table of the maximal displacement gradient as a function of
    dimension and geometry, ("power", m) or ("flat", sigma) with a finite
    flat-set measure sigma > 0, as ``ExperimentConfig.geometry_for_rates`` gives it.
    Flat contact is bounded."""
    kind, value = geometry
    if d < 2:
        raise AsymptoticsError("d >= 2 required")
    if kind == "flat":
        if not (math.isfinite(value) and value > 0.0):
            raise AsymptoticsError(f"flat-set measure must be > 0 and finite, got {value}")
        return ScalingLaw(0.0, 0, "flat-bounded")
    m = value
    if not (math.isfinite(m) and m >= 2):
        raise AsymptoticsError(f"m must be finite and >= 2, got {m}")
    if m < d - 1:
        return ScalingLaw(-1.0, 0, "m<d-1")
    if m == d - 1:
        return ScalingLaw(-1.0, -1, "m=d-1")
    if m < d + 1:
        # the sup over x' of the pointwise envelope grows like its larger term
        return ScalingLaw(-max(1.0 - 1.0 / m, (d - 1.0) / m), 0, "d-1<m<d+1")
    if m == d + 1:
        return ScalingLaw(-(1.0 - 1.0 / m), -1, "m=d+1")
    return ScalingLaw(-d / m, 0, "m>d+1")


def entry_case(d: int, al: int, be: int) -> tuple[int, float, int, int]:
    """The one statement of the Gram-entry families: the row (k, p,
    rho_kind, rho_k) of the entry (al, be) in dimension d, which scales like
    int_0^R r^k / (eps + kappa0 r^m)^p dr.  Indices above d are rotations,
    each raising k by one; diagonals give rho1(k + 1, m), off-diagonals
    rho2(2(k + 1), m), as :func:`integral_law` pairs them."""
    if d < 2:
        raise AsymptoticsError("d >= 2 required")
    if min(al, be) < 1:
        raise AsymptoticsError(f"entry ({al}, {be}) needs indices >= 1")
    k = d - 2 + (al > d) + (be > d)
    if al == be:
        return (k, 1.0, 1, k + 1)
    return (k, 0.5, 2, 2 * (k + 1))


def gram_integral_cases(d: int) -> list[tuple[int, float, int, int]]:
    """The five :func:`entry_case` rows: translation and rotation diagonals,
    then off-diagonals with 0, 1 and 2 rotation indices (listed in d = 2
    too, which has one rotation, so the oracle checks every row)."""
    return [entry_case(d, al, be)
            for al, be in ((1, 1), (d + 1, d + 1), (1, 2), (1, d + 1), (d + 1, d + 2))]
