import math

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

import neckstress as ns
from neckstress.asymptotics import (AsymptoticsError, QuadratureError, ScalingLaw, integral_law,
                                    rho_law)



# ---------------------------------------------------------------------------
# gap-linear fields

def test_vbar_values():
    p = ns.make_profile("flat", epsilon=0.01, r0=0.3)
    mid = np.array([0.1, 0.005])
    assert ns.vbar(p, mid) == pytest.approx(0.5)
    top = np.array([0.2, p.top(0.2)])
    assert ns.vbar(p, top) == pytest.approx(1.0)
    bottom = np.array([0.5, p.bottom(0.5)])
    assert ns.vbar(p, bottom) == pytest.approx(0.0)


def test_vbar_out_of_gap():
    p = ns.make_profile("power", epsilon=0.01, m=2.0)
    with pytest.raises(ns.ChartError):
        ns.vbar(p, np.array([0.0, 0.5]))


def test_vtilde_boundary_values():
    p = ns.make_profile("power", epsilon=0.01, m=2.0)
    basis = ns.rigid_basis(2)
    for x1 in (-0.8, -0.2, 0.0, 0.35, 0.9):
        top = np.array([x1, p.top(x1)])
        bot = np.array([x1, p.bottom(x1)])
        assert np.allclose(ns.vtilde(p, basis[0], top), [1.0, 0.0])
        assert np.allclose(ns.vtilde(p, basis[2], top), basis[2](top))
        assert np.allclose(ns.vtilde(p, basis[2], bot), 0.0)


def test_vtilde_derivative_bound():
    """|d_x1 vtilde| <= C*(d(x1)/(eps + d^2))*|psi| + C*|grad psi| pointwise,
    with one fitted constant over the sample set."""
    p = ns.make_profile("flat", epsilon=0.01, r0=0.3)
    psi = ns.rigid_basis(2)[2]
    h = 1e-6
    samples = []
    for x1 in np.linspace(-0.9, 0.9, 25):
        x = np.array([x1, 0.4 * p.epsilon + 0.3 * p.h2(x1)])
        fd = (ns.vtilde(p, psi, x + [h, 0]) - ns.vtilde(p, psi, x - [h, 0])) / (2 * h)
        dloc = max(abs(x1) - p.r0, 0.0)
        envelope = dloc / (p.epsilon + dloc**2) * np.abs(psi(np.array([x1, p.top(x1)]))).max() + 1.0
        samples.append(np.abs(fd).max() / envelope)
    fitted_c = max(samples)
    assert fitted_c < 50.0
    # and the bound with that constant holds everywhere by construction
    assert all(s <= fitted_c for s in samples)


def test_fiber_energy_minimality():
    """int |d_xd vbar|^2 over a gap fiber equals 1/gap and is minimal among
    competitors with the same endpoint values."""
    p = ns.make_profile("power", epsilon=0.01, m=2.0)
    x1 = 0.15
    a, b = p.bottom(x1), p.top(x1)
    delta = b - a
    ts = np.linspace(0.0, 1.0, 2001)
    xd = a + ts * delta

    def fiber_energy(vals):
        dv = np.diff(vals) / np.diff(xd)
        return float(np.sum(dv**2 * np.diff(xd)))

    vb = ns.vbar(p, np.column_stack([np.full_like(xd, x1), xd]))
    e_lin = fiber_energy(vb)
    assert e_lin == pytest.approx(1.0 / delta, rel=1e-6)
    for competitor in (ts**2, ts**3, np.sin(0.5 * np.pi * ts), ts + 0.2 * np.sin(2 * np.pi * ts)):
        assert fiber_energy(competitor) >= e_lin * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# rho scaling laws

def test_rho_examples():
    assert ns.rho(1, 1, 2.0, 1e-4) == pytest.approx(100.0)
    assert ns.rho(1, 3, 2.0, 1e-3) == 1.0
    assert ns.rho(1, 2, 2.0, math.exp(-10.0)) == pytest.approx(10.0)
    assert ns.rho(2, 2, 4.0, 1e-4) == pytest.approx(1e-4 ** ((2 - 4) / 8))


def test_rho_validation():
    with pytest.raises(AsymptoticsError):
        ns.rho(3, 1, 2.0, 1e-3)
    with pytest.raises(AsymptoticsError):
        ns.rho(1, 1, 2.0, 0.7)
    with pytest.raises(AsymptoticsError):
        ns.rho(1, 1, 1.5, 1e-3)
    with pytest.raises(AsymptoticsError):
        ns.rho(1, 0, 2.0, 1e-3)


def test_rho_log_branch_is_exact():
    eps = 1e-3
    assert ns.rho(1, 3, 3.0, eps) == abs(math.log(eps))
    assert ns.rho(2, 4, 4.0, eps) == abs(math.log(eps))
    assert rho_law(1, 3, 3.0) == ScalingLaw(0.0, 1)


def test_integral_law_matches_rho_families():
    for k in range(0, 5):
        for m in (2.0, 3.0, 4.0, 6.0):
            a = integral_law(k, m, 1.0)
            b = rho_law(1, k + 1, m)
            assert a == b
            a = integral_law(k, m, 0.5)
            b = rho_law(2, 2 * (k + 1), m)
            assert a.exponent == pytest.approx(b.exponent)
            assert a.log_factor == b.log_factor


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rho_law_and_oracle_reject_a_non_finite_order_or_power(value):
    # NaN passed the m < 2 check and the oracle ended in QuadratureError;
    # inf gave a NaN exponent
    with pytest.raises(AsymptoticsError, match=f"^rho requires a finite m >= 2, got {value}$"):
        rho_law(1, 2, value)
    with pytest.raises(AsymptoticsError, match=f"^rho requires a finite k >= 1, got {value}$"):
        rho_law(1, value, 2.0)
    with pytest.raises(AsymptoticsError, match=f"^m must be finite and >= 2, got {value}$"):
        ns.singular_integral_oracle(0, value, 1.0, 1e-3)
    with pytest.raises(AsymptoticsError, match=f"^k must be finite and >= 0, got {value}$"):
        ns.singular_integral_oracle(value, 2.0, 1.0, 1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call,message", [
    (lambda v: integral_law(0, v, 1.0), "m must be finite"),
    (lambda v: integral_law(v, 2.0, 1.0), "k must be finite"),
    (lambda v: integral_law(0, 2.0, v), "p must be finite"),
    (lambda v: ns.predicted_rate(2, ("power", v)), "m must be finite and >= 2"),
    (lambda v: ns.flat_entry_oracle(2, v, 1e-3, (1, 1)),
     "flat-set measure must be finite and >= 0"),
    (lambda v: ns.predicted_rate(2, ("flat", v)), "flat-set measure must be > 0 and finite"),
], ids=["integral_law-m", "integral_law-k", "integral_law-p", "predicted_rate",
        "flat_entry_oracle", "predicted_rate-flat"])
def test_laws_reject_a_non_finite_shape_value(call, message, value):
    # NaN passed every comparison and came back as a NaN exponent or
    # envelope; predicted_rate read m = inf as exponent -0.0 and a flat-set
    # measure of inf as bounded flat contact
    with pytest.raises(AsymptoticsError, match=f"^{message}, got {value}$"):
        call(value)


# ---------------------------------------------------------------------------
# quadrature oracle

def test_oracle_matches_arctan_closed_form():
    for eps in (1e-2, 1e-4, 1e-6):
        for r_max in (0.5, 1.0, 3.0):
            got = ns.singular_integral_oracle(0, 2.0, 1.0, eps, r_max)
            want = math.atan(r_max / math.sqrt(eps)) / math.sqrt(eps)
            assert got == pytest.approx(want, rel=1e-10)


def test_oracle_matches_log_closed_form():
    # int r/(eps + r^2) dr = log(1 + R^2/eps)/2
    for eps in (1e-3, 1e-5):
        got = ns.singular_integral_oracle(1, 2.0, 1.0, eps, 1.0)
        want = 0.5 * math.log1p(1.0 / eps)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("k,m,p", [
    (0, 2.0, 1.0), (1, 3.0, 2.0), (2, 4.0, 3.0), (0, 2.0, 0.5),
    (1, 6.0, 0.5), (3, 6.0, 1.0), (2, 3.0, 2.0),
])
def test_oracle_against_scipy_quad(k, m, p):
    eps = 1e-5
    got = ns.singular_integral_oracle(k, m, p, eps, 1.0, kappa0=1.3)
    want, err = quad(lambda r: r**k / (eps + 1.3 * r**m) ** p, 0.0, 1.0,
                     points=[(eps / 1.3) ** (1 / m)], limit=200)
    assert got == pytest.approx(want, rel=1e-7)


def test_oracle_no_singularity_regime():
    # eps = R^m: the denominator is frozen within a factor 2 of eps
    k, m = 2, 4.0
    r_max = 0.7
    eps = r_max**m
    got = ns.singular_integral_oracle(k, m, 1.0, eps, r_max)
    frozen = r_max ** (k + 1) / (k + 1) / eps
    assert frozen / 2.0 <= got <= frozen


def test_oracle_validation():
    with pytest.raises(AsymptoticsError):
        ns.singular_integral_oracle(-1, 2.0, 1.0, 1e-3)
    with pytest.raises(AsymptoticsError):
        ns.singular_integral_oracle(0, 1.0, 1.0, 1e-3)
    with pytest.raises(AsymptoticsError):
        ns.singular_integral_oracle(0, 2.0, 1.7, 1e-3)
    with pytest.raises(AsymptoticsError):
        ns.singular_integral_oracle(0, 2.0, 1.0, -1e-3)
    # epsilon = inf returned 0.0, kappa0 = 0 divided by zero, kappa0 = -1
    # raised TypeError from a complex power, and NaN or r_max = inf ended in
    # QuadratureError naming a panel, not the input
    for name, value in [("epsilon", math.inf), ("epsilon", math.nan), ("epsilon", 0.0),
                        ("kappa0", 0.0), ("kappa0", -1.0), ("kappa0", math.nan),
                        ("kappa0", math.inf), ("r_max", math.inf), ("r_max", math.nan),
                        ("r_max", -1.0)]:
        args = {"epsilon": 1e-3, "kappa0": 1.0, "r_max": 1.0, name: value}
        with pytest.raises(AsymptoticsError, match=f"^{name} must be finite and > 0, got {value}$"):
            ns.singular_integral_oracle(0, 2.0, 1.0, **args)


def test_oracle_raises_on_a_panel_whose_error_estimate_is_too_large(monkeypatch):
    def loose_quad(f, a, b, **kwargs):
        value, _ = quad(f, a, b, **kwargs)
        return value, 2e-8 * value

    monkeypatch.setattr(scipy.integrate, "quad", loose_quad)
    r_star = 1e-4 ** 0.5
    with pytest.raises(QuadratureError,
                       match=rf"^quadrature did not converge on \[0\.000e\+00, {r_star:.3e}\]"):
        ns.singular_integral_oracle(0, 2.0, 1.0, 1e-4)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [2.0, 4.0])
def test_oracle_exponent_tracks_rho(d, m):
    eps_grid = np.logspace(-2, -6, 7)
    k, p0, kind, kk = ns.gram_integral_cases(d)[0]
    vals = [(e, ns.singular_integral_oracle(k, m, p0, e)) for e in eps_grid]
    law = rho_law(kind, kk, m)
    fit = ns.fit_rate(vals, law)
    assert abs(fit.law_slope - law.exponent) <= 0.05


# ---------------------------------------------------------------------------
# flat entry oracle

def test_flat_entry_oracle_d2_shapes():
    sigma, eps = 0.6, 1e-4
    assert ns.flat_entry_oracle(2, sigma, eps, (1, 1)) == pytest.approx(
        sigma / eps + eps**-0.5)
    assert ns.flat_entry_oracle(2, sigma, eps, (3, 3)) == pytest.approx(
        sigma**3 / eps + 1.0)
    assert ns.flat_entry_oracle(2, sigma, eps, (1, 2)) == pytest.approx(
        sigma / math.sqrt(eps) + abs(math.log(eps)))
    assert ns.flat_entry_oracle(2, sigma, eps, (1, 3)) == pytest.approx(
        sigma**2 / math.sqrt(eps) + 1.0)


def test_flat_entry_oracle_higher_d():
    sigma, eps = 0.4, 1e-4
    assert ns.flat_entry_oracle(3, sigma, eps, (1, 1)) == pytest.approx(
        sigma / eps + abs(math.log(eps)))
    assert ns.flat_entry_oracle(4, sigma, eps, (2, 2)) == pytest.approx(
        sigma / eps + 1.0)
    q = (3 + 1) / (3 - 1)
    assert ns.flat_entry_oracle(3, sigma, eps, (5, 5)) == pytest.approx(
        sigma**q / eps + 1.0)


def test_flat_entry_oracle_validation():
    with pytest.raises(AsymptoticsError):
        ns.flat_entry_oracle(2, 0.6, 1e-3, (4, 4))
    with pytest.raises(AsymptoticsError):
        ns.flat_entry_oracle(1, 0.6, 1e-3, (1, 1))
    with pytest.raises(AsymptoticsError):
        ns.flat_entry_oracle(2, -0.1, 1e-3, (1, 1))


# ---------------------------------------------------------------------------
# rate predictions

def test_predicted_rate_examples():
    assert ns.predicted_rate(2, ("power", 2.0)).exponent == pytest.approx(-0.5)
    r = ns.predicted_rate(3, ("power", 2.0))
    assert r.exponent == pytest.approx(-1.0) and r.log_factor == -1
    assert ns.predicted_rate(2, ("flat", 0.6)).exponent == 0.0
    assert ns.predicted_rate(4, ("power", 2.0)).exponent == pytest.approx(-1.0)
    assert ns.predicted_rate(2, ("power", 6.0)).exponent == pytest.approx(-1.0 / 3.0)


def test_predicted_rate_flat_contact():
    # flat contact of positive measure is bounded; with r0 = 0 the config
    # hands the rate table order-2 point contact instead
    flat = ns.ExperimentConfig(kind="flat", r0=0.3)
    assert flat.geometry_for_rates() == ("flat", pytest.approx(0.6))
    assert ns.predicted_rate(2, flat.geometry_for_rates()) == ScalingLaw(
        0.0, 0, "flat-bounded")
    point = ns.ExperimentConfig(kind="flat", r0=0.0)
    assert point.geometry_for_rates() == ("power", 2.0)
    assert ns.predicted_rate(2, point.geometry_for_rates()).exponent == pytest.approx(-0.5)
    with pytest.raises(AsymptoticsError, match="flat-set measure must be > 0"):
        ns.predicted_rate(2, ("flat", 0.0))


def test_predicted_rate_regime_partition():
    for d in (2, 3, 4, 5):
        for m in np.linspace(2.0, d + 3.0, 101):
            r = ns.predicted_rate(d, ("power", float(m)))
            if m < d - 1:
                assert r.regime == "m<d-1"
            elif m == d - 1:
                assert r.regime == "m=d-1"
            elif m < d + 1:
                assert r.regime == "d-1<m<d+1"
            elif m == d + 1:
                assert r.regime == "m=d+1"
            else:
                assert r.regime == "m>d+1"
            assert r.exponent <= 0.0


def test_predicted_rate_continuity_within_cases():
    # exponent is continuous inside each regime; log cases sit exactly on
    # the boundary orders m = d-1 and m = d+1
    d = 4
    for m0, regime in ((2.5, "m<d-1"), (3.5, "d-1<m<d+1"), (6.0, "m>d+1")):
        e0 = ns.predicted_rate(d, ("power", m0)).exponent
        e1 = ns.predicted_rate(d, ("power", m0 + 1e-9)).exponent
        assert abs(e0 - e1) < 1e-6
    assert ns.predicted_rate(d, ("power", float(d - 1))).log_factor == -1
    assert ns.predicted_rate(d, ("power", float(d + 1))).log_factor == -1
    # across each log order the exponent meets the neighbouring branch
    for d in (2, 3, 4, 5):
        for m_log in (float(d - 1), float(d + 1)):
            for m_side in (m_log - 1e-9, m_log + 1e-9):
                if m_side >= 2.0:
                    e_log = ns.predicted_rate(d, ("power", m_log)).exponent
                    e_side = ns.predicted_rate(d, ("power", m_side)).exponent
                    assert abs(e_side - e_log) < 1e-6, (d, m_side)


def test_gram_integral_cases_cover_both_families():
    cases = ns.gram_integral_cases(3)
    assert (1, 1.0, 1, 2) in cases
    assert (3, 1.0, 1, 4) in cases
    assert (1, 0.5, 2, 4) in cases
    assert (2, 0.5, 2, 6) in cases
    assert (3, 0.5, 2, 8) in cases


# the (rho_kind, rho_k) family of every a11 entry, row al and column be,
# written out for d = 2, 3, 4
_ENTRY_FAMILIES = {
    2: ["1/1 2/2 2/4",
        "2/2 1/1 2/4",
        "2/4 2/4 1/3"],
    3: ["1/2 2/4 2/4 2/6 2/6 2/6",
        "2/4 1/2 2/4 2/6 2/6 2/6",
        "2/4 2/4 1/2 2/6 2/6 2/6",
        "2/6 2/6 2/6 1/4 2/8 2/8",
        "2/6 2/6 2/6 2/8 1/4 2/8",
        "2/6 2/6 2/6 2/8 2/8 1/4"],
    4: ["1/3 2/6 2/6 2/6 2/8 2/8 2/8 2/8 2/8 2/8",
        "2/6 1/3 2/6 2/6 2/8 2/8 2/8 2/8 2/8 2/8",
        "2/6 2/6 1/3 2/6 2/8 2/8 2/8 2/8 2/8 2/8",
        "2/6 2/6 2/6 1/3 2/8 2/8 2/8 2/8 2/8 2/8",
        "2/8 2/8 2/8 2/8 1/5 2/10 2/10 2/10 2/10 2/10",
        "2/8 2/8 2/8 2/8 2/10 1/5 2/10 2/10 2/10 2/10",
        "2/8 2/8 2/8 2/8 2/10 2/10 1/5 2/10 2/10 2/10",
        "2/8 2/8 2/8 2/8 2/10 2/10 2/10 1/5 2/10 2/10",
        "2/8 2/8 2/8 2/8 2/10 2/10 2/10 2/10 1/5 2/10",
        "2/8 2/8 2/8 2/8 2/10 2/10 2/10 2/10 2/10 1/5"],
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_entry_case_gives_every_entry_its_family(d):
    table = [[tuple(int(v) for v in cell.split("/")) for cell in row.split()]
             for row in _ENTRY_FAMILIES[d]]
    assert len(table) == ns.n_rigid(d)
    cases = ns.gram_integral_cases(d)
    for al, row in enumerate(table, start=1):
        for be, family in enumerate(row, start=1):
            case = ns.entry_case(d, al, be)
            assert case[2:] == family, (al, be)
            assert case in cases


def test_entry_case_validation():
    with pytest.raises(AsymptoticsError):
        ns.entry_case(1, 1, 1)
    with pytest.raises(AsymptoticsError):
        ns.entry_case(2, 0, 1)


def test_flat_entry_oracle_degenerates_to_rho_laws():
    # zero flat-set measure reduces the flat entry table to the order-2
    # point-contact scalings of the rho families
    for eps in (1e-3, 1e-5):
        cases = [
            ((2, (1, 1)), (1, 1)),
            ((2, (3, 3)), (1, 3)),
            ((3, (1, 1)), (1, 2)),
            ((4, (2, 2)), (1, 3)),
            ((3, (4, 4)), (1, 4)),
        ]
        for (d, entry), (kind, k) in cases:
            assert ns.flat_entry_oracle(d, 0.0, eps, entry) == pytest.approx(
                ns.rho(kind, k, 2.0, eps), rel=1e-12)
