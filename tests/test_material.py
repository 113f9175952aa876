import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from kipa.errors import InvalidParameter, SuperconductivityBreakdown
from kipa.material import (
    KineticInductorModel,
    PumpOperatingPoint,
    fit_ki_curve,
    frequency_shift,
    kinetic_inductance,
    parse_shift_csv,
    pump_coefficients,
    pump_current_for_xi3,
    stepped_filter_qe,
    xi3_upper_bound,
)

TWO_PI = 2 * math.pi

QUARTIC = KineticInductorModel("quartic", l_k0=0.8e-9, l_geo=0.2e-9,
                               i_star2=3.25e-3, i_star4=1.7e-3, i_c=1.15e-3)
CLEM = KineticInductorModel("clem", l_k0=0.8e-9, l_geo=0.2e-9,
                            i_star2=3.25e-3, i_star_star=1.65e-3, i_c=1.15e-3)


def test_zero_bias_returns_base_inductance():
    for model in (QUARTIC, CLEM,
                  KineticInductorModel("parabolic", 1e-9, 0.1e-9, i_star2=3e-3)):
        assert kinetic_inductance(model, 0.0) == pytest.approx(model.l_k0 + model.l_geo)


def test_quartic_inductance_fitted_scales():
    # L_k0 * (1 + (1/3.25)^2 + (1/1.7)^4) + l_geo at 1.0 mA
    lk = kinetic_inductance(QUARTIC, 1.0e-3)
    factor = 1.0 + (1.0 / 3.25) ** 2 + (1.0 / 1.7) ** 4
    assert lk == pytest.approx(0.8e-9 * factor + 0.2e-9, rel=1e-12)
    assert factor == pytest.approx(1.0 + 0.0947 + 0.1197, abs=2e-4)


def test_clem_inductance_finite_and_breakdown():
    val = kinetic_inductance(CLEM, 1.15e-3)
    assert np.isfinite(val) and val > CLEM.l_k0 + CLEM.l_geo
    with pytest.raises(SuperconductivityBreakdown):
        kinetic_inductance(CLEM, 1.65e-3)


def test_clem_parabolic_small_current_leading_order():
    # clem expands as 1 + x^n/n + ...; with n = 2 it matches a parabola with
    # i_star2 = i_star_star * sqrt(n/2) = i_star_star
    model_n2 = KineticInductorModel("clem", l_k0=1e-9, l_geo=0.0,
                                    i_star_star=2e-3, n_exp=2.0)
    parab = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0,
                                 i_star2=2e-3 * math.sqrt(2.0))
    for i in (1e-5, 5e-5, 1e-4, 2e-4):  # i <= 0.1 i**
        lc = kinetic_inductance(model_n2, i)
        lp = kinetic_inductance(parab, i)
        x = (i / 2e-3) ** 2
        # difference is the quartic correction, O(x^2) relative
        assert abs(lc - lp) / 1e-9 < 2.0 * x**2


def test_pump_coefficients_zero_bias():
    op = PumpOperatingPoint(i_dc=0.0, i_p_mag=0.2e-3)
    c = pump_coefficients(QUARTIC, op, TWO_PI * 8.4e9)
    assert c.xi3 == 0 and c.alpha == 0 and c.delta_l == 0


def test_xi3_closed_form_value():
    # (3/2) * 0.6*0.2/(3.25^2+0.6^2) * 8.4 GHz = 138.4 MHz
    op = PumpOperatingPoint(i_dc=0.6e-3, i_p_mag=0.2e-3)
    c = pump_coefficients(QUARTIC, op, TWO_PI * 8.4e9)
    expected = 1.5 * (0.6 * 0.2 / (3.25**2 + 0.6**2)) * 8.4e9
    assert abs(c.xi3) / TWO_PI == pytest.approx(expected, rel=1e-12)
    assert abs(c.xi3) / TWO_PI == pytest.approx(138.4e6, rel=1e-3)


def test_alpha_xi3_identity_exact():
    rng = np.random.default_rng(2)
    for _ in range(100):
        op = PumpOperatingPoint(i_dc=rng.uniform(0.05e-3, 0.9e-3),
                                i_p_mag=rng.uniform(0.0, 0.2e-3))
        w0 = TWO_PI * rng.uniform(4e9, 12e9)
        c = pump_coefficients(QUARTIC, op, w0)
        assert c.alpha == pytest.approx(abs(c.xi3) ** 2 / (4 * w0**2), rel=1e-12, abs=0.0)
        assert c.alpha == pytest.approx(abs(c.delta_l) ** 2 / (4 * c.l_i**2), rel=1e-12, abs=0.0)


def test_xi3_linear_in_pump_current():
    w0 = TWO_PI * 8.4e9
    op1 = PumpOperatingPoint(0.5e-3, 0.1e-3)
    op2 = PumpOperatingPoint(0.5e-3, 0.2e-3)
    c1 = pump_coefficients(QUARTIC, op1, w0)
    c2 = pump_coefficients(QUARTIC, op2, w0)
    assert abs(c2.xi3) / abs(c1.xi3) == pytest.approx(2.0, rel=1e-12)
    assert c2.alpha / c1.alpha == pytest.approx(4.0, rel=1e-12)


def test_kerr_zero_crossing():
    model = KineticInductorModel("quartic", l_k0=0.8e-9, l_geo=0.2e-9,
                                 i_star2=3.25e-3, i_star4=1.7e-3)  # no i_c cap
    i_zero = model.i_star2 / math.sqrt(8.0)
    op = PumpOperatingPoint(i_zero, 1e-6)
    c = pump_coefficients(model, op, TWO_PI * 8.4e9)
    assert c.kerr == pytest.approx(0.0, abs=1e-12)
    # below the crossing the Kerr coefficient is negative
    below = pump_coefficients(model, PumpOperatingPoint(0.5 * i_zero, 1e-6),
                              TWO_PI * 8.4e9)
    assert below.kerr < 0


def test_kerr_order_of_magnitude():
    # device-scale parameters land within a decade of the anticipated 13 Hz
    w0 = TWO_PI * 8.5e9
    l_i = kinetic_inductance(QUARTIC, 0.6e-3)
    op = PumpOperatingPoint(0.6e-3, 1e-6)
    c = pump_coefficients(QUARTIC, op, w0)
    assert c.l_i == pytest.approx(l_i)
    assert 1.3 <= abs(c.kerr) / TWO_PI <= 130.0


def test_pump_shift_scales_with_pump_power():
    w0 = TWO_PI * 8.4e9
    c1 = pump_coefficients(QUARTIC, PumpOperatingPoint(0.5e-3, 0.1e-3), w0)
    c2 = pump_coefficients(QUARTIC, PumpOperatingPoint(0.5e-3, 0.2e-3), w0)
    assert c2.pump_shift / c1.pump_shift == pytest.approx(4.0, rel=1e-12)


def test_breakdown_guard():
    op = PumpOperatingPoint(i_dc=1.0e-3, i_p_mag=0.2e-3)
    with pytest.raises(SuperconductivityBreakdown):
        pump_coefficients(QUARTIC, op, TWO_PI * 8.4e9)


def test_pump_current_for_xi3_inverts():
    w0 = TWO_PI * 8.4e9
    ip = pump_current_for_xi3(QUARTIC, 0.6e-3, w0, TWO_PI * 138.4e6)
    op = PumpOperatingPoint(0.6e-3, ip)
    c = pump_coefficients(QUARTIC, op, w0)
    assert abs(c.xi3) == pytest.approx(TWO_PI * 138.4e6, rel=1e-12)


def test_xi3_ceiling_dimensionless_maximum():
    res = xi3_upper_bound(1.15e-3, TWO_PI * 8e9)
    # dense-grid oracle
    x = np.linspace(1e-6, 1 - 1e-6, 400001)
    vals = 1.5 * (1 - x) * x / (5.7 + (1 - x) ** 2)
    assert res["dimensionless_max"] == pytest.approx(vals.max(), rel=1e-9)
    assert res["dimensionless_max"] == pytest.approx(0.0629, abs=1e-3)
    assert res["optimal_ip_fraction"] == pytest.approx(0.52, abs=0.02)


def test_xi3_ceiling_scale_invariance():
    a = xi3_upper_bound(1e-3, TWO_PI * 8e9)
    b = xi3_upper_bound(2e-3, TWO_PI * 8e9)
    assert a["dimensionless_max"] == pytest.approx(b["dimensionless_max"], rel=1e-9)
    assert a["max_xi3"] == pytest.approx(b["max_xi3"], rel=1e-9)


def test_xi3_ceiling_ghz_scale():
    # quoted ceiling ~0.6 GHz holds within 20% across the 8-9.6 GHz band
    for f0 in (8e9, 9.6e9):
        res = xi3_upper_bound(1.15e-3, TWO_PI * f0)
        assert abs(res["max_xi3"] / TWO_PI - 0.6e9) / 0.6e9 < 0.20


def test_stepped_filter_qe_five_sections():
    assert stepped_filter_qe(5, 90.0, 35.0, 50.0, 60.0) == pytest.approx(8269, abs=10)


def test_stepped_filter_qe_no_stepping():
    assert stepped_filter_qe(3, 40.0, 40.0, 50.0, 60.0) == pytest.approx(
        math.pi * 50.0 / 240.0, rel=1e-12)


def test_stepped_filter_qe_single_section():
    expected = (90.0 / 35.0) ** 2 * math.pi * 50.0 / 240.0
    assert stepped_filter_qe(1, 90.0, 35.0, 50.0, 60.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.33, abs=0.01)


def _synthetic_shift(model, currents):
    return [(i, frequency_shift(model, i)) for i in currents]


def test_fit_quartic_round_trip():
    currents = np.linspace(0.05e-3, 1.1e-3, 25)
    data = _synthetic_shift(QUARTIC, currents)
    fitted, rms = fit_ki_curve(data, "quartic", l_k0=0.8e-9, l_geo=0.2e-9)
    assert fitted.i_star2 == pytest.approx(3.25e-3, rel=1e-3)
    assert fitted.i_star4 == pytest.approx(1.7e-3, rel=1e-3)
    assert rms < 1e-12


def test_fit_clem_round_trip():
    currents = np.linspace(0.05e-3, 1.1e-3, 25)
    data = _synthetic_shift(CLEM, currents)
    fitted, rms = fit_ki_curve(data, "clem", l_k0=0.8e-9, l_geo=0.2e-9)
    assert fitted.i_star_star == pytest.approx(1.65e-3, rel=1e-3)
    assert rms < 1e-12


def _scipy_clem_scale(data, v0, part=0.8):
    """1/v of the clem fit as scipy's MINPACK solves it from ``v0``."""
    pts = np.array(data)
    i, y = np.abs(pts[:, 0]), pts[:, 1]
    n = 2.21

    def resid(p):
        return -0.5 * part * ((1.0 - (i * p[0]) ** n) ** (-1.0 / n) - 1.0) - y

    def jac(p):
        x = (i * p[0]) ** n
        return (-0.5 * part * (1.0 - x) ** (-1.0 / n - 1.0) * i**n * p[0] ** (n - 1.0))[:, None]

    res = least_squares(resid, [v0], jac=jac, method="lm", xtol=1e-10, ftol=1e-10,
                        gtol=1e-10, max_nfev=200)
    assert res.success
    return 1.0 / res.x[0]


@pytest.mark.parametrize("seed", range(5))
def test_fit_clem_agrees_with_scipy_lm(seed):
    rng = np.random.default_rng(seed)
    i_star_star = rng.uniform(1.4e-3, 2.0e-3)
    model = KineticInductorModel("clem", l_k0=0.8e-9, l_geo=0.2e-9, i_star_star=i_star_star)
    currents = np.linspace(0.05e-3, rng.uniform(0.9e-3, 1.1e-3), rng.integers(16, 33))
    data = [(i, y + rng.normal(0.0, 1e-5)) for i, y in _synthetic_shift(model, currents)]
    fitted, _ = fit_ki_curve(data, "clem", l_k0=0.8e-9, l_geo=0.2e-9)
    assert fitted.i_star_star == pytest.approx(_scipy_clem_scale(data, 1.0 / i_star_star),
                                               rel=1e-8)


def test_fit_clem_rising_shift_is_flat_without_warnings():
    # the law only lowers the frequency: the best fit of a rising shift is
    # no shift at all, and trial points at v <= 0 are rejected quietly
    data = [(k * 2.5e-4, 0.01 * k) for k in range(1, 5)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitted, rms = fit_ki_curve(data, "clem", l_k0=0.8e-9, l_geo=0.2e-9)
    assert [str(w.message) for w in caught] == []
    assert math.isinf(fitted.i_star_star)
    assert rms == pytest.approx(math.sqrt(np.mean([(0.01 * k) ** 2 for k in range(1, 5)])),
                                rel=1e-12)


def test_fit_parabolic_flat_data_gives_infinite_scale():
    data = [(i, 0.0) for i in np.linspace(0.0, 1e-3, 8)]
    fitted, rms = fit_ki_curve(data, "parabolic", l_k0=1e-9)
    assert math.isinf(fitted.i_star2)
    assert rms == pytest.approx(0.0, abs=1e-15)


def _unbounded_ki_fit(data, kind, part=0.8e-9 / (0.8e-9 + 0.2e-9)):
    """(i_star2, i_star4, rms) of the parabolic or quartic fit without the
    sign bound on its coefficients, as the fit was written before the bound."""
    pts = np.asarray(data, dtype=float)
    i, y = pts[:, 0], pts[:, 1]
    design = np.stack([-0.5 * part * i**k for k in ((2, 4) if kind == "quartic" else (2,))],
                      axis=1)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    assert np.all(coef > 0)  # falling shifts: the bound is inactive
    rms = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    i_star4 = abs(coef[1]) ** -0.25 if kind == "quartic" else None
    return 1.0 / math.sqrt(abs(coef[0])), i_star4, rms


@pytest.mark.parametrize("seed", range(40))
def test_fit_falling_shift_unchanged_by_sign_bound(seed):
    # noisy NbTiN shift curves like the benchmark's fit-ki inputs, and noiseless ones
    rng = np.random.default_rng(seed)
    kind = ("parabolic", "quartic")[seed % 2]
    model = QUARTIC if kind == "quartic" else KineticInductorModel(
        "parabolic", l_k0=0.8e-9, l_geo=0.2e-9, i_star2=3.25e-3)
    currents = np.linspace(0.05e-3, rng.uniform(0.9e-3, 1.1e-3), rng.integers(16, 33))
    noise = 1e-5 if seed < 30 else 0.0
    data = [(i, y + rng.normal(0.0, noise)) for i, y in _synthetic_shift(model, currents)]
    fitted, rms = fit_ki_curve(data, kind, l_k0=0.8e-9, l_geo=0.2e-9)
    assert (fitted.i_star2, fitted.i_star4, rms) == _unbounded_ki_fit(data, kind)


@pytest.mark.parametrize("kind", ["parabolic", "quartic"])
def test_fit_rising_shift_reports_infinite_scales(kind):
    # the laws only lower the frequency: the best fit of a rising shift is no shift
    data = [(k * 2.5e-4, 0.01 * k) for k in range(1, 5)]
    fitted, rms = fit_ki_curve(data, kind)
    assert math.isinf(fitted.i_star2)
    assert fitted.i_star4 is None if kind == "parabolic" else math.isinf(fitted.i_star4)
    assert rms == math.sqrt(np.mean([(0.01 * k) ** 2 for k in range(1, 5)]))


@pytest.mark.parametrize("seed", range(20))
def test_fit_quartic_matches_nonnegative_least_squares(seed):
    # coefficients of either sign: over these seeds the bounded optimum lies inside
    # the quadrant, on either axis and at zero
    from scipy.optimize import nnls

    rng = np.random.default_rng(seed)
    i = np.linspace(0.05e-3, 1e-3, 20)
    u2, w4 = rng.uniform(-1, 1) * 1e5, rng.uniform(-1, 1) * 1e11
    y = -0.4 * (u2 * i**2 + w4 * i**4) + rng.normal(0.0, 1e-4, i.size)
    design = np.stack([-0.4 * i**2, -0.4 * i**4], axis=1)
    coef, res_norm = nnls(design, y)
    fitted, rms = fit_ki_curve(list(zip(i, y)), "quartic", l_k0=0.8e-9, l_geo=0.2e-9)
    assert fitted.i_star2 == pytest.approx(coef[0] ** -0.5 if coef[0] else math.inf, rel=1e-9)
    assert fitted.i_star4 == pytest.approx(coef[1] ** -0.25 if coef[1] else math.inf, rel=1e-9)
    assert rms == pytest.approx(res_norm / math.sqrt(i.size), rel=1e-9)


def test_fit_requires_enough_points():
    with pytest.raises(InvalidParameter):
        fit_ki_curve([(0.0, 0.0), (1e-4, -1e-5)], "parabolic")


def test_parse_shift_csv():
    text = "i_dc_A,dfrac\n0.0001,-1.2e-05\n0.0002,-4.8e-05\n"
    assert parse_shift_csv(text).tolist() == [[1e-4, -1.2e-5], [2e-4, -4.8e-5]]
    with pytest.raises(InvalidParameter):
        parse_shift_csv("bad,header\n1,2\n")


def test_model_validation():
    with pytest.raises(InvalidParameter):
        KineticInductorModel("quartic", 1e-9, i_star2=3e-3)  # missing i_star4
    with pytest.raises(InvalidParameter):
        KineticInductorModel("clem", 1e-9, i_star2=3e-3)  # missing i_star_star
    with pytest.raises(InvalidParameter):
        KineticInductorModel("parabolic", 1e-9, i_star2=1e-3, i_c=2e-3)  # i_c >= i_star2
    with pytest.raises(InvalidParameter):
        PumpOperatingPoint(-1e-3, 0.0)
    for l_k0 in (0.0, math.nan):  # no inductance at all
        with pytest.raises(InvalidParameter, match="l_k0 \\+ l_geo must be > 0"):
            KineticInductorModel("parabolic", l_k0)
    assert kinetic_inductance(KineticInductorModel("parabolic", 0.0, l_geo=0.2e-9), 1e-3) == 0.2e-9
