import contextlib
import dataclasses
import io
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kipa.circuits import IDEAL_ENV, DesignSpec, idler_admittance
from kipa.errors import InsufficientData, InvalidParameter, PoleAtOperatingPoint
from kipa.material import (KineticInductorModel, PumpOperatingPoint, alpha_for_xi3,
                           modulation_alpha, pump_coefficients)
from kipa.presets import (
    PAPER_DEVICE_BIAS,
    PAPER_DEVICE_PUMP,
    paper_device,
    paper_env,
)
from kipa.pump import ModulatedInductor, SignalIdlerPair, effective_admittance
from kipa import simulator
from kipa.simulator import (
    PumpRampPolicy,
    ReflectionEngine,
    _edge,
    _peaks,
    _widest_spans,
    bandwidth_report,
    gain_spectrum,
    pump_bias_map,
    rnr_power_law,
)

TWO_PI = 2 * math.pi


def _grid(lo_hz, hi_hz, step_hz):
    return TWO_PI * np.arange(lo_hz, hi_hz, step_hz)


def test_pump_off_unitarity():
    design = paper_device()
    freqs = _grid(7.2e9, 9.6e9, 5e6)
    prof = gain_spectrum(design, 0.0, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, None, freqs)
    assert np.max(np.abs(np.abs(prof.s11) - 1.0)) < 1e-9
    assert np.max(np.abs(prof.gain_db)) < 1e-8


def test_pump_off_unitarity_current_drive():
    design = paper_device()
    freqs = _grid(8.0e9, 8.8e9, 20e6)
    # a pump current reaches the network as its α, as `simulate --set ip=` converts it
    alpha = modulation_alpha(design.ki_model, PAPER_DEVICE_BIAS, 0.0)
    prof = gain_spectrum(design, alpha, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, None, freqs)
    assert np.max(np.abs(np.abs(prof.s11) - 1.0)) < 1e-9


def test_signal_idler_symmetry():
    design = paper_device()
    wp = PAPER_DEVICE_PUMP
    delta = TWO_PI * np.linspace(1e6, 1.1e9, 301)
    alpha = alpha_for_xi3(TWO_PI * 2.0e9, design.resonance_at_bias(PAPER_DEVICE_BIAS))
    up = gain_spectrum(design, alpha, wp, PAPER_DEVICE_BIAS, None, wp / 2 + delta)
    down = gain_spectrum(design, alpha, wp, PAPER_DEVICE_BIAS, None, (wp / 2 - delta)[::-1])
    np.testing.assert_allclose(up.gain_db, down.gain_db[::-1], atol=1e-6)


def test_current_drive_matches_xi3_drive():
    # a current operating point and its equivalent xi3 drive agree
    from kipa.material import pump_current_for_xi3
    design = paper_device()
    w0 = design.resonance_at_bias(PAPER_DEVICE_BIAS)
    xi3 = TWO_PI * 0.3e9
    ip = pump_current_for_xi3(design.ki_model, PAPER_DEVICE_BIAS, w0, xi3)
    op = PumpOperatingPoint(PAPER_DEVICE_BIAS, ip)
    freqs = _grid(8.2e9, 8.7e9, 5e6)
    engine = ReflectionEngine(design, IDEAL_ENV, [(freqs, PAPER_DEVICE_PUMP)], [PAPER_DEVICE_BIAS])
    a = engine.gain_db(pump_coefficients(design.ki_model, op, w0).alpha)
    b = gain_spectrum(design, alpha_for_xi3(xi3, w0), PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, None,
                      freqs)
    np.testing.assert_allclose(a, b.gain_db, atol=1e-9)


def test_grid_validation():
    design = paper_device()
    with pytest.raises(InvalidParameter):
        gain_spectrum(design, 0.0, PAPER_DEVICE_PUMP, 0.0, None,
                      _grid(16.0e9, 18.0e9, 100e6))  # idler frequency goes negative
    with pytest.raises(InvalidParameter):
        ReflectionEngine(design, IDEAL_ENV, [(np.array([]), PAPER_DEVICE_PUMP)])


@pytest.mark.parametrize("ws, wp, message", [
    ([TWO_PI * 8e9, np.nan, TWO_PI * 8.2e9], PAPER_DEVICE_PUMP, "strictly increasing"),
    ([TWO_PI * 8e9, TWO_PI * 8.1e9, np.nan], PAPER_DEVICE_PUMP, "strictly increasing"),
    ([TWO_PI * 8e9, TWO_PI * 8.1e9], np.nan, "omega_i must stay > 0"),
])
def test_nan_grid_is_rejected(ws, wp, message):
    # a NaN passed every grid check and gave NaN network arrays, which no
    # floating-point flag reports
    with pytest.raises(InvalidParameter, match=message):
        ReflectionEngine(paper_device(), IDEAL_ENV, [(np.array(ws), wp)])


def _rect_profile(width_hz=0.4e9, level_db=20.0, notch_db=1.0):
    """A rectangular plateau with a notch in its middle third: two flat-topped peaks."""
    f = TWO_PI * np.arange(8.0e9, 9.0e9, 1e6)
    g = np.zeros_like(f)
    center = TWO_PI * 8.5e9
    g[np.abs(f - center) <= TWO_PI * width_hz / 2] = level_db
    g[np.abs(f - center) <= TWO_PI * width_hz / 6] -= notch_db
    return f, g


def test_bandwidth_report_rectangular_plateau():
    rep = bandwidth_report(*_rect_profile())
    assert rep.bandwidth / TWO_PI == pytest.approx(0.4e9, abs=3e6)
    assert rep.ripple_db == 1.0
    assert rep.peak_count == 2
    assert rep.qualified


def test_bandwidth_report_single_lorentzian_rejected_on_two_peak_rule():
    f = TWO_PI * np.arange(8.0e9, 9.0e9, 1e6)
    center, hw = TWO_PI * 8.5e9, TWO_PI * 0.1e9
    g = 22.0 / (1.0 + ((f - center) / hw) ** 2)
    rep = bandwidth_report(f, g)
    assert not rep.qualified
    assert rep.rejection_reason == "fewer than two peaks"
    assert rep.peak_count == 1


def test_bandwidth_report_interpolates_crossings():
    f = TWO_PI * np.array([8.0e9, 8.1e9, 8.2e9, 8.3e9])
    g = np.array([15.0, 19.0, 19.0, 13.0])
    rep = bandwidth_report(f, g)
    lo = 8.0e9 + 0.1e9 * (17 - 15) / (19 - 15)
    hi = 8.2e9 + 0.1e9 * (19 - 17) / (19 - 13)
    assert rep.bandwidth / TWO_PI == pytest.approx(hi - lo, rel=1e-9)


def test_bandwidth_report_ripple_rejection():
    f = TWO_PI * np.arange(8.0e9, 8.5e9, 1e6)
    g = 18.0 + 6.0 * np.cos((f - f[0]) / (f[-1] - f[0]) * 6 * np.pi)
    g = np.clip(g, 17.5, None)  # stay above threshold, two inner peaks, ripple 6.5 dB
    rep = bandwidth_report(f, g)
    assert rep.peak_count == 2
    assert not rep.qualified
    assert rep.rejection_reason == "ripple above limit"


def _spans_above_loop(freqs, gain, threshold):
    """Point-by-point span scan, the reference for ``_widest_spans``."""
    finite = np.isfinite(gain)
    above = finite & (gain >= threshold)
    spans = []
    n = len(freqs)
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo = freqs[i]
        if i > 0 and finite[i - 1] and gain[i - 1] < threshold:
            lo = np.interp(threshold, [gain[i - 1], gain[i]], [freqs[i - 1], freqs[i]])
        hi = freqs[j]
        if j + 1 < n and finite[j + 1] and gain[j + 1] < threshold:
            hi = np.interp(threshold, [gain[j + 1], gain[j]], [freqs[j + 1], freqs[j]])
        spans.append((lo, hi, i, j))
        i = j + 1
    return spans


def _widest_span_loop(freqs, gain, threshold):
    """(lo, hi, ripple) of the first widest span of ``_spans_above_loop``, or None."""
    spans = _spans_above_loop(freqs, gain, threshold)
    if not spans:
        return None
    lo, hi, i, j = max(spans, key=lambda s: s[1] - s[0])
    return float(lo), float(hi), float(gain[i:j + 1].max() - gain[i:j + 1].min())


span_row = st.lists(st.sampled_from([0.0, 10.0, 16.9, 17.0, 17.1, 25.0, np.inf, -np.inf])
                    | st.floats(0, 30), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(span_row.map(lambda r: r + r[::-1]) | span_row, min_size=1, max_size=6))
def test_spans_above_matches_point_scan(rows):
    # repeated levels make plateaus and one-point spans, mirrored rows spans
    # of equal width, and rows end to end spans that touch a row end
    gain = np.concatenate([np.array(row, dtype=float) for row in rows])
    freqs = TWO_PI * (8e9 + 1e6 * np.arange(gain.size))
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    lo, hi, ripple, found = _widest_spans(freqs, gain, 17.0, starts)
    for k, (i, j) in enumerate(zip(starts, np.append(starts[1:], gain.size))):
        want = _widest_span_loop(freqs[i:j], gain[i:j], 17.0)
        assert found[k] == (want is not None)
        got = (float(lo[k]), float(hi[k]), float(ripple[k]))
        assert [v.hex() for v in got] == [v.hex() for v in (want or (0.0, 0.0, 0.0))]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(span_row.map(lambda r: r + r[::-1]) | span_row, min_size=1, max_size=6),
       threshold=st.sampled_from([10.0, 17.0]), ripple_max=st.sampled_from([0.5, 5.0]))
def test_report_given_its_row_of_a_span_round_equals_the_report_alone(rows, threshold,
                                                                      ripple_max):
    # as a ramp passes it: each row's slice of one _widest_spans call over
    # rows end to end, with poles (+inf), rows without a span and ties
    gain = np.concatenate([np.array(row, dtype=float) for row in rows])
    freqs = TWO_PI * (8e9 + 1e6 * np.arange(gain.size))
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    spans = _widest_spans(freqs, gain, threshold, starts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "GAIN_THRESHOLD_DB", threshold)
        patch.setattr(simulator, "RIPPLE_MAX_DB", ripple_max)
        for k, (i, j) in enumerate(zip(starts, np.append(starts[1:], gain.size))):
            args = freqs[i:j], gain[i:j]
            assert bandwidth_report(*args, span=tuple(x[k:k + 1] for x in spans)) == \
                bandwidth_report(*args)


# levels at the threshold, at 0.5 dB of prominence above it and at 5 dB of
# ripple from it, so that every rule is met exactly by some profiles
criterion_row = st.lists(st.sampled_from([0.0, 16.9, 17.0, 17.5, 19.0, 21.5, 22.0, 22.5, np.inf])
                         | st.floats(0, 30), min_size=1, max_size=40)


@settings(max_examples=500, deadline=None)
@given(row=criterion_row.map(lambda r: r + r[::-1]) | criterion_row)
def test_report_qualifies_exactly_under_the_amplifier_criterion(row):
    # repeated levels make plateaus, and a mirrored row has peaks of equal height
    gain = np.array(row, dtype=float)
    freqs = TWO_PI * (8e9 + 1e6 * np.arange(gain.size))
    span = _widest_span_loop(freqs, gain, simulator.GAIN_THRESHOLD_DB)
    peaks = _peaks(np.where(np.isfinite(gain), gain, -np.inf), simulator.GAIN_THRESHOLD_DB,
                   simulator.PEAK_PROMINENCE_DB)
    rules = [("below threshold", span is not None),
             ("fewer than two peaks", peaks.size >= 2),
             ("ripple above limit", span is not None and span[2] <= simulator.RIPPLE_MAX_DB)]
    failed = [reason for reason, met in rules if not met]
    rep = bandwidth_report(freqs, gain)
    assert rep.qualified == (not failed)
    assert rep.rejection_reason == (failed[0] if failed else None)


finite_db = st.floats(-400.0, 400.0) | st.sampled_from([16.9, 17.0, 17.0 + 1e-12, 17.1])
finite_hz = st.floats(-1e12, 1e12) | st.floats(5e10, 6e10)


@settings(max_examples=300, deadline=None)
@given(g=st.lists(finite_db, min_size=3, max_size=3, unique=True).map(sorted),
       at_top=st.booleans(), f_in=finite_hz, f_out=finite_hz)
def test_span_edge_is_np_interp_bit_for_bit(g, at_top, f_in, f_out):
    g_out, t, g_in = g
    if at_top:   # the threshold sits exactly on the inner sample
        t = g_in
    want = np.interp(t, [g_out, g_in], [f_out, f_in])
    got, = _edge(t, np.array([g_in]), np.array([g_out]), np.array([f_in]), np.array([f_out]))
    assert float(got).hex() == float(want).hex()


def test_oscillation_points_excluded():
    f = TWO_PI * np.arange(8.0e9, 8.2e9, 1e6)
    g = np.full(f.shape, 20.0)
    g[100] = np.inf
    rep = bandwidth_report(f, g)
    assert rep.oscillation_points == 1
    # the span must break at the oscillation point
    assert rep.bandwidth / TWO_PI < 0.12e9


def test_grid_refinement_stability():
    design = paper_device()
    alpha = alpha_for_xi3(TWO_PI * 2.57e9, design.resonance_at_bias(PAPER_DEVICE_BIAS))
    coarse_step = 2e6
    reps = []
    for step in (coarse_step, coarse_step / 2):
        prof = gain_spectrum(design, alpha, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, None,
                             _grid(7.45e9, 9.45e9, step))
        reps.append(bandwidth_report(prof.freqs, prof.gain_db))
    assert abs(reps[0].bandwidth - reps[1].bandwidth) < TWO_PI * coarse_step


def test_pump_bias_map_zero_cap_policy():
    design = paper_device()
    policy = PumpRampPolicy(mode="xi3", xi3_cap=0.0)
    cells = pump_bias_map(design, None,
                          [TWO_PI * 16.9e9], [0.5e-3, 0.57e-3],
                          policy, freq_step=TWO_PI * 5e6)
    assert all(c.bandwidth == 0.0 for c in cells)


def test_pump_bias_map_deterministic_and_ordered():
    design = paper_device()
    policy = PumpRampPolicy(mode="xi3", ratio=10.0 ** (0.5 / 20.0))
    fps = [TWO_PI * 16.8e9, TWO_PI * 16.9e9]
    idcs = [0.52e-3, 0.57e-3]
    runs = [pump_bias_map(design, None, fps, idcs, policy, freq_step=TWO_PI * 4e6)
            for _ in range(2)]
    assert runs[0] == runs[1]
    keys = [(c.omega_p, c.i_dc) for c in runs[0]]
    assert keys == sorted(keys)


def test_pump_bias_map_finds_operating_region():
    design = paper_device()
    policy = PumpRampPolicy(mode="xi3")
    fps = TWO_PI * np.array([16.5e9, 16.9e9, 17.3e9])
    idcs = [0.57e-3]
    cells = pump_bias_map(design, None, fps, idcs, policy)
    bws = {c.omega_p: c.bandwidth for c in cells}
    assert bws[TWO_PI * 16.9e9] > TWO_PI * 0.3e9   # near the design point
    assert any(v == 0.0 for v in bws.values())     # region is confined


def test_current_policy_respects_critical_current():
    design = paper_device()
    policy = PumpRampPolicy(mode="current")
    cells = pump_bias_map(design, None, [TWO_PI * 16.9e9], [0.57e-3], policy,
                          freq_step=TWO_PI * 4e6)
    cell = cells[0]
    assert cell.optimal_drive + 0.57e-3 < design.ki_model.i_c
    # the material budget cannot reach the qualifying pump strength here
    assert cell.bandwidth == 0.0


def test_rnr_power_law_toy_small_alpha_exponent():
    # fixed resistive idler: R_NR proportional to 1/alpha = xi3^-2 exactly
    model = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0)
    w0 = 1.0 / math.sqrt(1e-9 * 330e-15)
    design = DesignSpec(50.0, 50.0, 50.0, 330e-15, model, w0)
    grid = TWO_PI * np.geomspace(1e6, 10e6, 12)
    res = rnr_power_law(design, grid, omega_p=2 * w0)
    assert res["exponent"] == pytest.approx(-2.0, abs=1e-3)


def test_rnr_power_law_scale_invariance():
    design = paper_device()
    wp = TWO_PI * 17.7e9
    g1 = TWO_PI * np.geomspace(0.5e9, 1.6e9, 15)
    r1 = rnr_power_law(design, g1, wp, i_dc=PAPER_DEVICE_BIAS)
    r2 = rnr_power_law(design, g1 * 0.5, wp, i_dc=PAPER_DEVICE_BIAS)
    # same span, different absolute scale: exponent moves only slightly
    assert r1["exponent"] == pytest.approx(r2["exponent"], abs=0.15)


def test_rnr_power_law_insufficient_data():
    design = paper_device()
    grid = TWO_PI * np.geomspace(40e9, 400e9, 8)  # alpha >= 1 everywhere
    with pytest.raises(InsufficientData):
        rnr_power_law(design, grid, TWO_PI * 17.7e9, i_dc=PAPER_DEVICE_BIAS)
    with pytest.raises(InvalidParameter):
        rnr_power_law(design, TWO_PI * np.array([1e9, 2e9]), TWO_PI * 17.7e9)


def _reference_y_eff(design, env, omega_p, i_dc, alpha):
    """pump.effective_admittance at ω_p/2, or None at a pole."""
    ws = omega_p / 2.0
    ind = ModulatedInductor.from_alpha(design.inductance_at_bias(i_dc), alpha)
    y_idler = idler_admittance(design, env, omega_p - ws)
    try:
        return effective_admittance(ind, SignalIdlerPair.from_pump(ws, omega_p), y_idler)
    except PoleAtOperatingPoint:
        return None


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["three-stage", "conventional"]),
       env=st.sampled_from([IDEAL_ENV, paper_env()]),
       fp=st.floats(15e9, 19e9), i_dc=st.sampled_from([0.0, 0.3e-3, PAPER_DEVICE_BIAS]),
       lo=st.floats(1e7, 3e9), decades=st.floats(0.6, 2.0), n=st.integers(4, 30))
def test_rnr_power_law_is_the_reference_admittance(kind, env, fp, i_dc, lo, decades, n):
    # The reference builds each point's inductor through ModulatedInductor,
    # whose α = |δl|²/4l0² comes back within a few ulps of the drawn one, so
    # l0' = l0·(1 - α) moves by up to ~4ε·α/(1 - α) relative; Y_eff is a
    # few operations of l0', and 1e-12/(1 - α) covers that with room for the
    # idler denominator's conditioning (400 random draws read at most 1e-14).
    design = paper_device()
    if kind == "conventional":
        design = dataclasses.replace(design, z_ki_quarter=None)
    omega_p = TWO_PI * fp
    grid = TWO_PI * np.geomspace(lo, lo * 10.0**decades, n)
    alphas = alpha_for_xi3(grid, design.resonance_at_bias(i_dc))

    # the kernel rnr_power_law calls, in the drawn environment
    below = alphas < 1
    engine = ReflectionEngine(design, env, [(np.array([omega_p / 2.0]), omega_p)], [i_dc])
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = engine._y_eff(alphas[below], slice(None))[0]
    for a, y in zip(alphas[below], kernel):
        ref = _reference_y_eff(design, env, omega_p, i_dc, a)
        if ref is not None:
            assert y == pytest.approx(ref, rel=1e-12 / (1.0 - a))

    # rnr_power_law, which works in the ideal environment
    refs = {x: _reference_y_eff(design, IDEAL_ENV, omega_p, i_dc, a)
            for x, a in zip(grid, alphas) if a < 1}
    kept = {x: -1.0 / y.real for x, y in refs.items() if y is not None and y.real < 0}
    if len(kept) < 4:
        with pytest.raises(InsufficientData):
            rnr_power_law(design, grid, omega_p, i_dc=i_dc)
        return
    res = rnr_power_law(design, grid, omega_p, i_dc=i_dc)
    assert res["xi3"].tolist() == list(kept)
    want = np.array(list(kept.values()))
    a_kept = alpha_for_xi3(res["xi3"], design.resonance_at_bias(i_dc))
    assert (np.abs(res["r_nr"] - want) <= 1e-12 / (1.0 - a_kept) * want).all()


def test_bandwidth_alpha_trend_positive():
    # over the qualifying pump range, bandwidth grows with modulation strength
    design = paper_device()
    ws = _grid(7.45e9, 9.45e9, 2e6)
    engine = ReflectionEngine(design, IDEAL_ENV, [(ws, PAPER_DEVICE_PUMP)], [PAPER_DEVICE_BIAS])
    w0 = design.resonance_at_bias(PAPER_DEVICE_BIAS)
    alphas, bws = [], []
    xi3 = TWO_PI * 1.0e9
    while xi3 < TWO_PI * 2.6e9:
        alpha = alpha_for_xi3(xi3, w0)
        gdb = engine.gain_db(alpha)
        if gdb.max() > 40:
            break
        rep = bandwidth_report(ws, gdb)
        if rep.qualified:
            alphas.append(alpha)
            bws.append(rep.bandwidth)
        xi3 *= 1.02
    assert len(alphas) >= 4
    slope = np.polyfit(np.log(alphas), np.log(bws), 1)[0]
    assert slope > 0


def test_environment_four_peak_ripple_interplay():
    # with the fitted environment, pump-off gain shows dB-scale ripple
    design = paper_device()
    prof = gain_spectrum(design, 0.0, PAPER_DEVICE_PUMP, PAPER_DEVICE_BIAS, paper_env(),
                         _grid(7.4e9, 9.4e9, 2e6))
    assert prof.gain_db.max() - prof.gain_db.min() > 2.0
    assert np.abs(prof.gain_db).max() < 10.0


def test_readme_library_example_runs_as_shown():
    # the example needs numpy and kipa alone, and prints the bandwidth of a
    # profile that meets the whole criterion, two peaks included
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    code, = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    imports = re.findall(r"^(?:from|import) (\S+)", code, re.M)
    assert imports and all(name.split(".")[0] in ("numpy", "kipa") for name in imports)
    scope, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    report = scope["report"]
    assert report.qualified and report.peak_count == 2
    assert re.fullmatch(r"415\.91993\d* MHz\n", out.getvalue())
