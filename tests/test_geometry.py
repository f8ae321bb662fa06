import dataclasses
import math

import numpy as np
import pytest

import neckstress as ns
from neckstress.geometry import ChartError, GeometryError


def test_power_gap_examples():
    p = ns.make_profile("power", epsilon=0.01, kappa0=1.0, m=2.0)
    assert ns.gap(p, 0.0) == pytest.approx(0.01)
    assert ns.gap(p, 0.1) == pytest.approx(0.02)


def test_flat_gap_plateau():
    p = ns.make_profile("flat", epsilon=0.01, r0=0.3)
    assert ns.gap(p, 0.2) == pytest.approx(0.01)
    assert ns.gap(p, 0.0) == pytest.approx(0.01)
    assert ns.gap(p, 0.3) == pytest.approx(0.01)


def test_gap_chart_exceeded():
    p = ns.make_profile("power", epsilon=0.01, m=2.0)
    with pytest.raises(ChartError):
        ns.gap(p, 2.5)


def test_chart_and_outer_radii_are_fixed():
    p = ns.make_profile("flat", epsilon=1e-2, r0=0.3)
    assert (p.r_neck, p.outer_radius, p.chart_radius) == (1.0, 5.0, 2.0)
    assert "r_neck" not in dataclasses.asdict(p) and "outer_radius" not in dataclasses.asdict(p)


@pytest.mark.parametrize("kwargs", [
    dict(epsilon=0.0),
    dict(epsilon=-1e-3),
    dict(m=1.5),
    dict(kappa0=0.0),
    dict(kappa0=-1.0),
])
def test_make_profile_rejects_bad_power_params(kwargs):
    base = dict(epsilon=1e-2, kappa0=1.0, m=2.0)
    base.update(kwargs)
    with pytest.raises(GeometryError):
        ns.make_profile("power", **base)


def test_make_profile_rejects_bad_flat_params():
    with pytest.raises(GeometryError):
        ns.make_profile("flat", epsilon=1e-2, r0=1.0)
    with pytest.raises(GeometryError):
        ns.make_profile("flat", epsilon=1e-2, r0=-0.1)
    with pytest.raises(GeometryError):
        ns.make_profile("banana", epsilon=1e-2)


@pytest.mark.parametrize("kind, field, value", [
    ("power", "m", math.nan),
    ("power", "m", math.inf),
    ("power", "kappa0", math.inf),
    ("flat", "r0", math.nan),
    ("power", "epsilon", math.inf),
])
def test_make_profile_rejects_non_finite_fields(kind, field, value):
    # each of these used to hang the mesher, fail in it with an untyped
    # error, or mesh silently
    with pytest.raises(GeometryError, match=rf"^{field} must be finite"):
        ns.make_profile(kind, **{field: value})


def test_flat_r0_zero_degenerates_to_power_m2():
    pf = ns.make_profile("flat", epsilon=0.01, r0=0.0, kappa0=1.3)
    pp = ns.make_profile("power", epsilon=0.01, m=2.0, kappa0=1.3)
    xs = np.linspace(-1.9, 1.9, 101)
    assert np.array_equal(ns.gap(pf, xs), ns.gap(pp, xs))


def test_gap_lower_bound_and_equality_set():
    pf = ns.make_profile("flat", epsilon=0.01, r0=0.3)
    xs = np.linspace(-2.0, 2.0, 401)
    g = ns.gap(pf, xs)
    assert np.all(g >= pf.epsilon - 1e-15)
    eq = np.abs(g - pf.epsilon) < 1e-15
    assert np.array_equal(eq, np.abs(xs) <= 0.3 + 1e-12)

    pp = ns.make_profile("power", epsilon=0.01, m=3.0)
    g = ns.gap(pp, xs)
    assert np.all(g >= pp.epsilon)
    assert np.count_nonzero(np.abs(g - pp.epsilon) < 1e-15) == 1


def test_flat_extension_hessian_bound():
    # second difference of (h1 - h2) outside the flat set stays >= kappa0
    kappa0 = 1.7
    p = ns.make_profile("flat", epsilon=0.01, r0=0.3, kappa0=kappa0)
    sep = lambda x: p.h1(x) - p.h2(x)
    h = 1e-4
    for x in np.linspace(0.3 + 2 * h, 1.9, 50):
        hess = (sep(x + h) - 2.0 * sep(x) + sep(x - h)) / h**2
        assert hess >= kappa0 - 1e-5


def test_flat_gradient_vanishes_at_flat_edge():
    p = ns.make_profile("flat", epsilon=0.01, r0=0.3)
    assert p.dh1(0.3) == 0.0
    assert p.dh1(-0.3) == 0.0
    assert p.dh1(0.2) == 0.0
    assert p.dh1(0.5) == pytest.approx(0.2)


def test_power_separation_strict():
    p = ns.make_profile("power", epsilon=5e-3, m=6.0)
    xs = np.linspace(-2.0, 2.0, 101)
    assert np.all(p.epsilon + p.h1(xs) > p.h2(xs))
