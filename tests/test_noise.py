import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as k_B
from scipy.optimize import least_squares

from kipa.errors import FitFailure, InvalidParameter
from kipa.noise import (
    NoiseChainModel,
    QubitCalibration,
    added_noise,
    cascade_forward,
    drive_strength,
    excess_noise,
    fit_qubit_saturation,
    power_to_quanta,
    pump_off_reference,
    qubit_s21,
    snr_gain,
    system_noise_temperature,
    thermal_occupation,
)

TWO_PI = 2 * math.pi
W84 = TWO_PI * 8.4e9


def test_cascade_transparent_amplifier():
    chain = NoiseChainModel(a_in=1e-8, a_23=1.0, n_t23=1.0, g_s=1.0,
                            g_sys=1e7, n_sys=10.0)
    out = cascade_forward(chain, 0.0)
    assert out["n4"] == pytest.approx(1e7 * (0.5 + 10.0), rel=1e-12)


def test_cascade_full_loss_leaves_thermal_only():
    chain = NoiseChainModel(a_in=1e-8, a_23=1e-12, n_t23=3.0, g_s=100.0,
                            g_sys=1e7, n_sys=10.0)
    out = cascade_forward(chain, 0.7)
    assert out["n3"] == pytest.approx(3.0, rel=1e-9)


def test_cascade_hand_evaluated_values():
    # g_s = 50 dB, a_23 = -3 dB, g_sys = 70 dB, hand-evaluated stage by stage
    g_s, a_23, g_sys = 10.0**5, 10.0**-0.3, 10.0**7
    chain = NoiseChainModel(a_in=1e-8, a_23=a_23, n_t23=1.0, g_s=g_s,
                            g_sys=g_sys, n_sys=10.0)
    out = cascade_forward(chain, 0.7)
    n2 = g_s * (0.5 + 0.7)
    n3 = a_23 * n2 + (1 - a_23) * 1.0
    n4 = g_sys * (n3 + 10.0)
    assert out["n2"] == pytest.approx(n2, rel=1e-12)
    assert out["n3"] == pytest.approx(n3, rel=1e-12)
    assert out["n4"] == pytest.approx(n4, rel=1e-12)
    assert n4 == pytest.approx(6.0143e11, rel=1e-3)


def test_added_noise_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(300):
        chain = NoiseChainModel(
            a_in=10 ** rng.uniform(-10, -6),
            a_23=10 ** rng.uniform(-1, 0),
            n_t23=rng.uniform(0, 20),
            g_s=10 ** rng.uniform(0.5, 6),
            g_sys=10 ** rng.uniform(4, 9),
            n_sys=rng.uniform(0, 40),
        )
        n_a = rng.uniform(0.0, 5.0)
        n4 = cascade_forward(chain, n_a)["n4"]
        n4_off = pump_off_reference(chain)
        rec = added_noise(n4, n4_off, chain.g_s, chain.g_sys_eff, chain.n1)
        assert rec == pytest.approx(n_a, rel=1e-9, abs=1e-12)


def test_added_noise_degenerate_limit():
    # equal on/off powers with diverging gain flag an unphysical -0.5
    val = added_noise(1e9, 1e9, 1e12, 1e6)
    assert val == pytest.approx(-0.5, rel=1e-9)
    with pytest.raises(InvalidParameter):
        added_noise(1.0, 1.0, 0.5, 1e6)


def test_excess_noise_double_limit():
    val = excess_noise(q_e=8.0, q_i=3000.0, g_s=1e9, temperature=0.0, omega=W84)
    assert val == pytest.approx(8.0 / (2 * 3000.0), rel=1e-4)


def test_excess_noise_finite_gain():
    val = excess_noise(q_e=8.0, q_i=3000.0, g_s=9.0, temperature=0.0, omega=W84)
    assert val == pytest.approx(8.0 / 3000.0, rel=1e-12)  # (4^2/8) = 2x the limit


def test_thermal_occupation_negligible_at_base():
    n_th = thermal_occupation(W84, 0.025)
    x = hbar * W84 / (k_B * 0.025)
    assert n_th == pytest.approx(1.0 / (math.exp(x) - 1.0), rel=1e-12)
    assert n_th < 2e-7  # negligible against 0.5 quanta
    assert thermal_occupation(W84, 0.0) == 0.0


def test_excess_noise_monotonicity():
    qis = [500.0, 1500.0, 5000.0, 20000.0]
    vals = [excess_noise(8.0, qi, 50.0, 0.05, W84) for qi in qis]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    temps = [0.01, 0.05, 0.2, 0.5]
    vals = [excess_noise(8.0, 3000.0, 50.0, t, W84) for t in temps]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_snr_gain_noiseless():
    assert snr_gain(1.0e-12, 1.0e-12, 100.0) == pytest.approx(100.0)


def test_snr_gain_three_db_floor_shift():
    g = snr_gain(10 ** 0.3 * 1e-12, 1e-12, 100.0)
    assert 10 * math.log10(g) == pytest.approx(17.0, abs=1e-9)


def test_system_noise_temperature_scaling():
    t1 = system_noise_temperature(1e6, W84, 10 ** 7.6)
    t2 = system_noise_temperature(1e6, W84, 2 * 10 ** 7.6)
    assert t1 / t2 == pytest.approx(2.0, rel=1e-12)
    expected = 1e6 * hbar * W84 / (k_B * 10 ** 7.6)
    assert t1 == pytest.approx(expected, rel=1e-12)


def test_power_to_quanta():
    p = 0.5 * hbar * W84 * 10.0
    assert power_to_quanta(p, W84, 10.0) == pytest.approx(0.5, rel=1e-12)


def test_qubit_s21_full_extinction():
    cal = QubitCalibration(W84, gamma_1e=TWO_PI * 3e6)
    s = qubit_s21(cal, 0.0, 1e-3)
    assert abs(s) < 1e-6


def test_qubit_s21_saturation():
    cal = QubitCalibration(W84, gamma_1e=TWO_PI * 3e6, gamma_phi=TWO_PI * 1e3)
    s = qubit_s21(cal, 0.0, TWO_PI * 1e12)
    assert s == pytest.approx(1.0, abs=1e-6)


def test_qubit_s21_passivity_randomized():
    rng = np.random.default_rng(21)
    for _ in range(500):
        cal = QubitCalibration(W84,
                               gamma_1e=10 ** rng.uniform(4, 8),
                               gamma_1i=10 ** rng.uniform(2, 7),
                               gamma_phi=10 ** rng.uniform(2, 7))
        s = qubit_s21(cal, rng.uniform(-1e8, 1e8), 10 ** rng.uniform(2, 8))
        assert abs(s) <= 1.0 + 1e-12


def test_qubit_s21_fitted_dip_depth():
    # fitted rates reproduce a deep dip at the calibration power
    cal = QubitCalibration(W84, gamma_1e=TWO_PI * 3.35e6, gamma_phi=TWO_PI * 1.06e3)
    s = qubit_s21(cal, 0.0, TWO_PI * 98.6e3)
    assert abs(s) < 0.01


def test_drive_strength_basics():
    assert drive_strength(TWO_PI * 3.35e6, 0.0, W84) == 0.0
    d1 = drive_strength(TWO_PI * 3.35e6, 1e-18, W84)
    d4 = drive_strength(TWO_PI * 3.35e6, 4e-18, W84)
    assert d4 / d1 == pytest.approx(2.0, rel=1e-12)


def test_drive_strength_consistency_with_reported_attenuation():
    # -80 dBm source through -82 dB of line gives roughly the fitted drive
    p_d = 10 ** ((-80 - 30) / 10) * 10 ** (-82 / 10)
    omega = drive_strength(TWO_PI * 3.35e6, p_d, W84)
    assert abs(omega / TWO_PI - 98.6e3) / 98.6e3 < 0.15


def _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, omega_q, p_vna_dbm, det_span):
    rows = []
    cal = QubitCalibration(omega_q, gamma_1e=gamma_1, gamma_phi=gamma_phi)
    for p_dbm in p_vna_dbm:
        p_vna = 10 ** ((p_dbm - 30) / 10)
        om = drive_strength(gamma_1, a_in * p_vna, omega_q)
        for d in det_span:
            rows.append((d, p_vna, qubit_s21(cal, d, om)))
    return rows


def test_fit_qubit_saturation_round_trip():
    gamma_1 = TWO_PI * 3.35e6
    gamma_phi = TWO_PI * 1.06e3
    a_in = 10 ** (-82 / 10)
    det = TWO_PI * np.linspace(-12e6, 12e6, 41)
    powers = np.arange(-95.0, -56.0, 3.0)
    rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84, powers, det)
    res = fit_qubit_saturation(*_columns(rows), omega_q=W84)
    assert res["gamma_1"] == pytest.approx(gamma_1, rel=1e-2)
    assert res["gamma_phi"] == pytest.approx(gamma_phi, rel=1e-2)
    assert res["a_in"] == pytest.approx(a_in, rel=1e-2)
    assert res["rms_residual"] < 1e-8


def test_fit_qubit_zero_contrast_fails():
    det = TWO_PI * np.linspace(-10e6, 10e6, 21)
    rows = [(d, p, 1.0 + 0j) for p in (1e-12, 1e-11) for d in det]
    with pytest.raises(FitFailure):
        fit_qubit_saturation(*_columns(rows), omega_q=W84)


def test_fit_qubit_requires_grid():
    with pytest.raises(InvalidParameter):
        fit_qubit_saturation(*_columns([(0.0, 1e-12, 0.5 + 0j)] * 8), omega_q=W84)
    with pytest.raises(InvalidParameter):
        fit_qubit_saturation(np.zeros(12), np.full(11, 1e-12), np.ones(12), omega_q=W84)


def test_chain_validation():
    with pytest.raises(InvalidParameter):
        NoiseChainModel(a_in=1e-8, a_23=1.5, n_t23=1.0, g_s=10.0, g_sys=1e7, n_sys=5.0)
    with pytest.raises(InvalidParameter):
        NoiseChainModel(a_in=1e-8, a_23=0.5, n_t23=1.0, g_s=10.0, g_sys=1e7,
                        n_sys=5.0, n1=0.2)


def _wide_sweep(seed):
    """±12 MHz, 5 powers, 0.3 % noise; γ1/2π 1.5-2.5 MHz and γφ/γ1 0.25-0.4."""
    rng = np.random.default_rng(seed)
    gamma_1 = TWO_PI * rng.uniform(1.5e6, 2.5e6)
    gamma_phi = gamma_1 * rng.uniform(0.25, 0.4)
    a_in = 10 ** (rng.uniform(-85.0, -78.0) / 10)
    det = TWO_PI * np.linspace(-12e6, 12e6, 41)
    rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84,
                                 np.array([-95.0, -87.0, -79.0, -71.0, -63.0]), det)
    rows = [(d, p, s + complex(*rng.normal(0.0, 3e-3, 2))) for d, p, s in rows]
    return rows, gamma_1, gamma_phi, a_in


def _columns(rows):
    return (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]))


def test_saturation_residual_matches_qubit_s21_and_differences():
    from kipa.noise import _saturation_residual

    rows, *_ = _wide_sweep(1)
    det, pw, s21 = _columns(rows)
    m = 2 * det.size
    evaluate = _saturation_residual(det, pw / 1e-11, s21)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = np.log([TWO_PI * 2e6, TWO_PI * 6e5, TWO_PI * 4e5]) + rng.uniform(-1, 1, 3)
        f, jt = np.empty(m), np.empty((3, m))
        evaluate(x, f, jt)
        g1, gphi, om_ref = np.exp(x)
        s = qubit_s21(QubitCalibration(W84, gamma_1e=g1, gamma_phi=gphi), det,
                      om_ref * np.sqrt(pw / 1e-11))
        assert f == pytest.approx(np.concatenate([(s - s21).real, (s - s21).imag]),
                                  rel=1e-12, abs=1e-15)
        for j in range(3):
            h = np.eye(3)[j] * 1e-6
            fp, fm, scratch = np.empty(m), np.empty(m), np.empty((3, m))
            evaluate(x + h, fp, scratch)
            evaluate(x - h, fm, scratch)
            assert jt[j] == pytest.approx((fp - fm) / 2e-6, rel=1e-6, abs=1e-8)


def _scipy_saturation_fit(rows, x0, p_ref=1e-11):
    """The saturation fit as scipy's MINPACK solves it, on a complex-arithmetic model."""
    det, pw, s21 = _columns(rows)
    scale = np.sqrt(pw / p_ref)

    def model_and_grads(x):
        g1, gphi, om_ref = np.exp(x)
        g2 = gphi + g1 / 2.0
        om = om_ref * scale
        d = det / g2
        den = 1.0 + d**2 + om**2 / (g1 * g2)
        pref = g1 / (2.0 * g2)
        num = 1.0 + 1j * d
        dden_dg2 = -2.0 * d**2 / g2 - om**2 / (g1 * g2**2)
        ds_dg2 = -(-g1 / (2.0 * g2**2) * num / den + pref * (-1j * d / g2) / den
                   - pref * num * dden_dg2 / den**2)
        ds_dg1 = -(num / (2.0 * g2 * den) + pref * num * om**2 / (g1**2 * g2 * den**2)) \
            + 0.5 * ds_dg2
        ds_dom = pref * num * 2.0 * om * scale / (g1 * g2 * den**2)
        return 1.0 - pref * num / den, (ds_dg1 * g1, ds_dg2 * gphi, ds_dom * om_ref)

    def resid(x):
        r = model_and_grads(x)[0] - s21
        return np.concatenate([r.real, r.imag])

    def jac(x):
        return np.stack([np.concatenate([g.real, g.imag]) for g in model_and_grads(x)[1]],
                        axis=1)

    res = least_squares(resid, x0, jac=jac, method="lm", xtol=1e-10, ftol=1e-10,
                        gtol=1e-10, max_nfev=800)
    assert res.success
    g1, gphi, om_ref = np.exp(res.x)
    return g1, gphi, hbar * W84 * om_ref**2 / (2.0 * g1) / p_ref


@pytest.mark.parametrize("seed", range(6))
def test_fit_qubit_agrees_with_scipy_lm(seed):
    # sweeps 3-5 dip half-widths either side, where scipy's fit from the
    # generating parameters finds the same minimum
    rng = np.random.default_rng(100 + seed)
    gamma_1 = TWO_PI * rng.uniform(2e6, 5e6)
    gamma_phi = gamma_1 * rng.uniform(0.25, 0.4)
    a_in = 10 ** (rng.uniform(-85.0, -78.0) / 10)
    half = rng.uniform(3.0, 5.0) * (gamma_phi + gamma_1 / 2)
    rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84, np.arange(-95.0, -56.0, 4.0),
                                 np.linspace(-half, half, 31))
    rows = [(d, p, s + complex(*rng.normal(0.0, 1e-4, 2))) for d, p, s in rows]
    omega_ref = drive_strength(gamma_1, a_in * 1e-11, W84)
    ref = _scipy_saturation_fit(rows, np.log([gamma_1, gamma_phi, omega_ref]))
    res = fit_qubit_saturation(*_columns(rows), omega_q=W84)
    assert res["gamma_1"] == pytest.approx(ref[0], rel=1e-8)
    assert res["gamma_phi"] == pytest.approx(ref[1], rel=1e-8)
    assert res["a_in"] == pytest.approx(ref[2], rel=1e-8)


def test_fit_qubit_wide_window():
    # ±12 MHz is 5-13 dip half-widths either side here; a search started
    # from a quarter of the window lost γφ on about half of these sweeps,
    # one started from the half-depth width of the lowest-power dip does not
    for seed in range(20):
        rows, gamma_1, gamma_phi, a_in = _wide_sweep(seed)
        assert TWO_PI * 12e6 > 5 * (gamma_phi + gamma_1 / 2)
        res = fit_qubit_saturation(*_columns(rows), omega_q=W84)
        assert res["gamma_1"] == pytest.approx(gamma_1, rel=0.01)
        assert res["gamma_phi"] == pytest.approx(gamma_phi, rel=0.05)
        assert 10 * math.log10(res["a_in"] / a_in) == pytest.approx(0.0, abs=0.5)


@settings(max_examples=200, deadline=None)
@given(g1_mhz=st.floats(1.0, 5.0), phi_over_g1=st.floats(0.01, 3.0),
       half_widths=st.floats(1.0, 10.0), n_powers=st.integers(2, 11),
       n_det=st.integers(5, 41), u_max=st.floats(0.1, 30.0), span_db=st.floats(3.0, 40.0))
def test_linearized_start_is_the_generating_point_on_noise_free_grids(
        g1_mhz, phi_over_g1, half_widths, n_powers, n_det, u_max, span_db):
    from kipa.noise import _saturation_start

    gamma_1 = TWO_PI * 1e6 * g1_mhz
    gamma_phi = phi_over_g1 * gamma_1
    gamma_2 = gamma_phi + gamma_1 / 2
    # u = Ω²/(γ1·γ2) reaches u_max at the top power, -60 dBm
    a_in = u_max * hbar * W84 * gamma_2 / (2 * 1e-9)
    half = half_widths * gamma_2
    rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84,
                                 np.linspace(-60.0 - span_db, -60.0, n_powers),
                                 np.linspace(-half, half, n_det))
    det, pw, s21 = _columns(rows)
    g1, gphi, om_ref = np.exp(_saturation_start(det, pw, pw / 1e-11, s21))
    # the two linear solves are good to a few ulps of 1/γ2 and c = γ1/2γ2;
    # γφ = γ2·(1 - c) cancels, which multiplies c's error by γ2/γφ
    tol = 1e-12
    assert g1 == pytest.approx(gamma_1, rel=tol)
    assert gphi == pytest.approx(gamma_phi, rel=tol * gamma_2 / gamma_phi)
    assert om_ref == pytest.approx(drive_strength(gamma_1, a_in * 1e-11, W84), rel=tol)


def test_degenerate_linearization_falls_back_to_the_half_depth_start():
    # γφ = γ1/1000 under 0.3 % noise: the linear solve reads c = γ1/2γ2 above 1,
    # a negative γφ, so the fit starts from the lowest-power dip's width
    from kipa.noise import _saturation_start

    gamma_1 = TWO_PI * 3e6
    gamma_phi = 1e-3 * gamma_1
    gamma_2 = gamma_phi + gamma_1 / 2
    a_in = 10 ** (-82 / 10)
    rng = np.random.default_rng(26)
    rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84, np.linspace(-95.0, -60.0, 5),
                                 np.linspace(-4 * gamma_2, 4 * gamma_2, 21))
    rows = [(d, p, s + complex(*rng.normal(0.0, 3e-3, 2))) for d, p, s in rows]
    det, pw, s21 = _columns(rows)
    g1, gphi, _ = np.exp(_saturation_start(det, pw, pw / 1e-11, s21))
    assert gphi == pytest.approx(1e-3 * g1, rel=1e-12)
    res = fit_qubit_saturation(det, pw, s21, omega_q=W84)
    assert res["gamma_1"] == pytest.approx(gamma_1, rel=0.005)
    assert res["gamma_phi"] + res["gamma_1"] / 2 == pytest.approx(gamma_2, rel=0.005)
    assert res["gamma_phi"] < 0.01 * gamma_1
    assert 10 * math.log10(res["a_in"] / a_in) == pytest.approx(0.0, abs=0.1)
