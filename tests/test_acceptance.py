"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The search criterion sweeps the full desk-scale grids and
dominates the runtime (a few seconds).
"""
import math
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from kipa.circuits import IDEAL_ENV
from kipa.material import (
    PumpOperatingPoint,
    alpha_for_xi3,
    fit_ki_curve,
    frequency_shift,
    pump_coefficients,
    stepped_filter_qe,
    xi3_upper_bound,
)
from kipa.netcore import TransmissionLineSegment, input_impedance
from kipa.noise import (
    NoiseChainModel,
    QubitCalibration,
    added_noise,
    cascade_forward,
    drive_strength,
    fit_qubit_saturation,
    pump_off_reference,
    qubit_s21,
    system_noise_temperature,
)
from kipa.presets import (
    NBTIN_NANOWIRE,
    PAPER_DEVICE_BIAS,
    PAPER_DEVICE_PUMP,
    paper_device,
    paper_env,
    worked_synthesis,
)
from kipa.pump import ModulatedInductor, SignalIdlerPair, effective_admittance
from kipa.search import (
    SEARCH_RAMP,
    aggregate_by_znr,
    default_ranges,
    required_capacitance,
    search_designs,
)
from kipa.simulator import bandwidth_report, gain_spectrum, rnr_power_law, sweep
from kipa.synthesis import synthesize_transformer

TWO_PI = 2 * math.pi


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_1_synthesis_worked_example():
    t0 = time.perf_counter()
    w = worked_synthesis()
    res = synthesize_transformer(w["prototype"], w["z_nr"], w["z_ki"], w["z0"])
    elapsed = time.perf_counter() - t0
    assert res.z_ref == pytest.approx(82.7, abs=0.1)
    assert res.z_quarter == pytest.approx(67.6, abs=0.1)
    assert res.z_half == pytest.approx(33.9, abs=0.2)
    assert res.z_parallel == pytest.approx(22.09, abs=0.05)
    assert elapsed < 1.0
    _report(1, f"z_ref={res.z_ref:.2f}, z_quarter={res.z_quarter:.2f}, "
               f"z_half={res.z_half:.2f}, z_parallel={res.z_parallel:.2f} ohm "
               f"({elapsed*1e3:.1f} ms)")


def test_criterion_2_stepped_filter_qe():
    qe = stepped_filter_qe(5, 90.0, 35.0, 50.0, 60.0)
    assert qe == pytest.approx(8269, abs=10)
    _report(2, f"Q_e = {qe:.1f}")


def test_criterion_3_xi3_ceiling():
    res = xi3_upper_bound(1.15e-3, TWO_PI * 8e9)
    assert res["dimensionless_max"] == pytest.approx(0.0629, abs=1e-3)
    assert res["optimal_ip_fraction"] == pytest.approx(0.52, abs=0.02)
    ceilings = {}
    for f0 in (8e9, 9.6e9):
        ceilings[f0] = xi3_upper_bound(1.15e-3, TWO_PI * f0)["max_xi3"] / TWO_PI
        assert abs(ceilings[f0] - 0.6e9) / 0.6e9 < 0.20
    _report(3, f"max ratio {res['dimensionless_max']:.4f} at |I_p|/I_c = "
               f"{res['optimal_ip_fraction']:.3f}; ceiling "
               f"{ceilings[8e9]/1e9:.2f}-{ceilings[9.6e9]/1e9:.2f} GHz over 8-9.6 GHz")


def test_criterion_4_two_peak_bandwidth_and_overpump_collapse():
    t0 = time.perf_counter()
    design = paper_device()
    ws = TWO_PI * np.arange(7.35e9, 9.55e9, 1e6)
    res, = sweep(design, IDEAL_ENV, [(ws, PAPER_DEVICE_PUMP)], [PAPER_DEVICE_BIAS], SEARCH_RAMP)
    rep, xi3_opt = res.report, res.drive
    assert rep is not None, "no qualifying two-peak profile found along the ramp"
    bw_mhz = rep.bandwidth / TWO_PI / 1e6
    assert 340.0 <= bw_mhz <= 460.0  # 400 MHz +/- 15%
    assert rep.peak_count >= 2
    # over-pumped: the band collapses to a single central peak
    over_pumped = alpha_for_xi3(1.08 * xi3_opt, design.resonance_at_bias(PAPER_DEVICE_BIAS))
    prof = gain_spectrum(design, over_pumped, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, IDEAL_ENV, ws)
    over = bandwidth_report(prof.freqs, prof.gain_db)
    assert over.peak_count == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"17-dB bandwidth {bw_mhz:.0f} MHz with {rep.peak_count} peaks at "
               f"|xi3|/2pi = {xi3_opt/TWO_PI/1e9:.2f} GHz; over-pumped profile has "
               f"{over.peak_count} peak ({elapsed:.1f} s)")


def test_criterion_5_negative_resistance_power_law():
    design = paper_device()
    grid = TWO_PI * np.geomspace(0.5e9, 1.6e9, 25)
    res = rnr_power_law(design, grid, omega_p=TWO_PI * 17.7e9, i_dc=PAPER_DEVICE_BIAS)
    assert res["exponent"] == pytest.approx(-2.1, abs=0.15)

    # analytic toy: fixed resistive idler at small alpha follows alpha^-1 exactly
    pair = SignalIdlerPair(TWO_PI * 8e9, TWO_PI * 8e9)
    alphas = np.geomspace(1e-8, 1e-6, 9)
    rs = []
    for a in alphas:
        y = effective_admittance(ModulatedInductor.from_alpha(1e-9, a), pair, 0.02)
        rs.append(-1.0 / y.real)
    toy_slope = np.polyfit(np.log(alphas), np.log(rs), 1)[0] * 2.0  # alpha = xi3^2 scale
    assert toy_slope == pytest.approx(-2.0, abs=1e-6)
    _report(5, f"network exponent {res['exponent']:.3f}; toy exponent {toy_slope:.4f}")


def test_criterion_6_nonideal_environment():
    design = paper_device()
    env = paper_env()
    ws = TWO_PI * np.arange(7.4e9, 9.4e9, 1e6)

    # (a) pump-off amplitude ripple
    off = gain_spectrum(design, 0.0, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, env, ws)
    amp = off.gain_db.max() - off.gain_db.min()
    assert 2.5 <= amp <= 5.5  # ~4 dB +/- 1.5 dB
    minima, _ = find_peaks(-off.gain_db, prominence=0.8)
    spacings = np.diff(ws[minima]) / TWO_PI
    assert len(spacings) >= 2
    period = float(np.mean(spacings))
    assert 360e6 <= period <= 540e6  # 450 MHz +/- 20%

    # (b) four local maxima above threshold at high pump
    four = None
    w0 = design.resonance_at_bias(PAPER_DEVICE_BIAS)
    for xi3_ghz in np.arange(2.9, 3.35, 0.05):
        prof = gain_spectrum(design, alpha_for_xi3(TWO_PI * xi3_ghz * 1e9, w0), PAPER_DEVICE_PUMP,
                             PAPER_DEVICE_BIAS, env, ws)
        rep = bandwidth_report(prof.freqs, prof.gain_db)
        if rep.peak_count == 4 and prof.gain_db.max() >= 20.0:
            four = (xi3_ghz, rep, prof.gain_db.max())
            break
    assert four is not None, "no four-peak high-pump profile found"
    _report(6, f"pump-off ripple {amp:.2f} dB with period {period/1e6:.0f} MHz; "
               f"four peaks >= 17 dB at |xi3|/2pi = {four[0]:.2f} GHz "
               f"(max gain {four[2]:.1f} dB)")


def test_criterion_7_design_search():
    t0 = time.perf_counter()
    recs3 = list(search_designs(default_ranges("three-stage")))
    recsc = list(search_designs(default_ranges("conventional")))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0

    assert recs3, "three-stage search produced no qualifying records"
    eta_max = max(r.eta for r in recs3)
    assert 0.21 * 0.8 <= eta_max <= 0.21 * 1.2

    assert recsc, "conventional search produced no qualifying records"
    znr_window = sorted(set(r.z_nr for r in recsc))
    assert min(znr_window) >= 2.0 and max(znr_window) <= 12.0
    # contrast: the three-stage circuit qualifies at tenfold higher impedance
    assert min(r.z_nr for r in recs3) >= 50.0

    # pump-efficiency sanity bound and its downward trend with z_nr
    for rec in recs3 + recsc:
        assert 0.0 < rec.eta < 1.0
    bin_max = {}
    for rec in recs3:
        bin_max[rec.z_nr] = max(bin_max.get(rec.z_nr, 0.0), rec.eta)
    znrs = sorted(bin_max)
    maxima = [bin_max[z] for z in znrs]
    assert maxima[0] == max(maxima)          # efficiency peaks at the smallest z_nr
    assert np.polyfit(znrs, maxima, 1)[0] < 0  # and trends downward across bins

    aggs3 = aggregate_by_znr(recs3)
    aggsc = aggregate_by_znr(recsc)
    c3 = required_capacitance(aggs3, 0.06, default_ranges("three-stage").omega0)
    cc = required_capacitance(aggsc, 0.06, default_ranges("conventional").omega0)
    assert math.isfinite(c3) and math.isfinite(cc)
    ratio = cc / c3
    assert ratio > 8.0
    _report(7, f"max eta {eta_max:.3f}; conventional z_nr window "
               f"[{min(znr_window):.0f}, {max(znr_window):.0f}] ohm; capacitance "
               f"ratio {ratio:.1f} ({elapsed:.0f} s)")


def test_criterion_8_property_suites():
    w0 = TWO_PI * 8e9
    rng = np.random.default_rng(123)

    # line identities to 1e-12
    for _ in range(200):
        z_c = rng.uniform(10, 250)
        line = TransmissionLineSegment(z_c, 0.25, w0)
        w = w0 * rng.uniform(0.3, 2.4)
        assert input_impedance(line, complex(z_c), w) == pytest.approx(z_c, rel=1e-12)
        z_load = complex(rng.uniform(1, 300), rng.uniform(-200, 200))
        assert input_impedance(line, z_load, w0) * z_load == pytest.approx(z_c**2, rel=1e-12)
        half = TransmissionLineSegment(z_c, 0.5, w0)
        assert input_impedance(half, z_load, w0) == pytest.approx(z_load, rel=1e-12)

    # pump-off unitarity to 1e-9
    prof = gain_spectrum(paper_device(), 0.0, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, None,
                         TWO_PI * np.arange(7.4e9, 9.4e9, 5e6))
    assert np.max(np.abs(np.abs(prof.s11) - 1.0)) < 1e-9

    # passive idler sign theorem over 1e4 randomized cases
    for _ in range(10_000):
        alpha = rng.uniform(1e-6, 0.6)
        ind = ModulatedInductor.from_alpha(rng.uniform(0.1e-9, 5e-9), alpha,
                                           rng.uniform(0, TWO_PI))
        pair = SignalIdlerPair(w0 * rng.uniform(0.5, 1.5), w0 * rng.uniform(0.5, 1.5))
        y_idler = complex(rng.uniform(0, 0.2), rng.uniform(-0.2, 0.2))
        assert effective_admittance(ind, pair, y_idler).real <= 1e-25

    # noise forward/inverse round trip to 1e-9
    for _ in range(1000):
        chain = NoiseChainModel(a_in=1e-8, a_23=10 ** rng.uniform(-1, 0),
                                n_t23=rng.uniform(0, 10), g_s=10 ** rng.uniform(0.5, 6),
                                g_sys=10 ** rng.uniform(4, 9), n_sys=rng.uniform(0, 30))
        n_a = rng.uniform(0, 4)
        n4 = cascade_forward(chain, n_a)["n4"]
        rec = added_noise(n4, pump_off_reference(chain), chain.g_s, chain.g_sys_eff)
        assert rec == pytest.approx(n_a, rel=1e-9, abs=1e-12)

    # synthesis quadratic residual
    w = worked_synthesis()
    res = synthesize_transformer(w["prototype"], w["z_nr"], w["z_ki"], w["z0"])
    assert abs(res.residual) < 1e-9 * res.z_ref**2

    # fit round trips: inductance scales to 0.1%, qubit rates to 1%
    currents = np.linspace(0.05e-3, 1.1e-3, 20)
    data = [(i, frequency_shift(NBTIN_NANOWIRE, i)) for i in currents]
    fitted, _ = fit_ki_curve(data, "quartic", l_k0=0.8e-9, l_geo=0.2e-9)
    assert fitted.i_star2 == pytest.approx(3.25e-3, rel=1e-3)
    assert fitted.i_star4 == pytest.approx(1.7e-3, rel=1e-3)

    gamma_1, gamma_phi = TWO_PI * 3.35e6, TWO_PI * 1.06e3
    a_in = 10 ** (-8.2)
    cal = QubitCalibration(TWO_PI * 8.4e9, gamma_1e=gamma_1, gamma_phi=gamma_phi)
    rows = []
    for p_dbm in np.arange(-95.0, -56.0, 4.0):
        p_vna = 10 ** ((p_dbm - 30) / 10)
        om = drive_strength(gamma_1, a_in * p_vna, TWO_PI * 8.4e9)
        for d in TWO_PI * np.linspace(-12e6, 12e6, 31):
            rows.append((d, p_vna, qubit_s21(cal, d, om)))
    fit = fit_qubit_saturation(*map(np.array, zip(*rows)), omega_q=TWO_PI * 8.4e9)
    assert fit["gamma_1"] == pytest.approx(gamma_1, rel=0.01)
    assert fit["a_in"] == pytest.approx(a_in, rel=0.01)

    # alpha identity, exact
    for _ in range(300):
        op = PumpOperatingPoint(i_dc=rng.uniform(0.05e-3, 0.9e-3),
                                i_p_mag=rng.uniform(0, 0.2e-3))
        w_r = TWO_PI * rng.uniform(4e9, 12e9)
        c = pump_coefficients(NBTIN_NANOWIRE, op, w_r)
        assert c.alpha == pytest.approx(abs(c.xi3) ** 2 / (4 * w_r**2), rel=1e-12, abs=0.0)
    _report(8, "line identities, unitarity, sign theorem (1e4 cases), noise "
               "round trip, synthesis residual, fit round trips, alpha identity")


def test_criterion_9_noise_calibration_substitute():
    # no recorded spectra ship with the toolkit, so the forward/inverse
    # round-trip suite substitutes; the temperature arithmetic is checked
    # on synthetic chain values in the measured range
    from scipy.constants import hbar, k as k_B
    rng = np.random.default_rng(7)
    for _ in range(500):
        chain = NoiseChainModel(a_in=1e-8, a_23=10 ** rng.uniform(-0.6, -0.1),
                                n_t23=rng.uniform(0, 5), g_s=10 ** rng.uniform(1.5, 3),
                                g_sys=10 ** rng.uniform(6, 8), n_sys=rng.uniform(5, 30))
        n_a = rng.uniform(0.5, 1.3)
        n4 = cascade_forward(chain, n_a)["n4"]
        n4_off = pump_off_reference(chain)
        assert added_noise(n4, n4_off, chain.g_s, chain.g_sys_eff) == pytest.approx(
            n_a, rel=1e-9)
        w = TWO_PI * rng.uniform(8.0e9, 8.8e9)
        t_sys = system_noise_temperature(n4_off, w, chain.g_sys_eff)
        assert t_sys == pytest.approx(n4_off * hbar * w / (k_B * chain.g_sys_eff),
                                      rel=1e-12)
    _report(9, "no recorded spectra supplied; round-trip substitute suite passed "
               "(added noise recovered to 1e-9 over the 0.5-1.3 quanta band)")
