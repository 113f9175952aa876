"""Exact identities of the pumped network and of the analytically screened ramp.

S11 is a bilinear (Möbius) function of the modulation strength α, so the
ramp can skip, unevaluated, every step whose gain stays below threshold,
and it reports only the steps that could replace its best profile.
These properties check the coefficient form against the step-by-step
network composition, S11 over a block of α against each α alone bit for
bit, each step on its own frequency window, gathered into flat rounds,
against the whole row (and every point outside the window, and its end
point at each end inside the cell, below the screened level), the
screened row ramp, at several round budgets, against evaluating and
reporting every step of each cell, the cells of an engine over several
grids and biases against engines built one grid and one bias at a time,
the ladders of all biases, built along one drive sequence, against each
bias's ladder alone, the map against per-cell builds and the stored
lattice windows, and the peaks of a window cut below threshold -
prominence against the whole row's.
"""
import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.signal import find_peaks

from kipa.circuits import (IDEAL_ENV, _Memo, environment_impedance, idler_admittance,
                           port_line_abcd)
from kipa.cli import main
from kipa.errors import InvalidParameter, SingularNetwork, SuperconductivityBreakdown
from kipa import simulator
from kipa.material import (KineticInductorModel, PumpOperatingPoint, alpha_for_xi3,
                           modulation_alpha, pump_coefficients)
from kipa.presets import NBTIN_NANOWIRE, PAPER_DEVICE_BIAS, paper_device, paper_env
from kipa.pump import ModulatedInductor, SignalIdlerPair, effective_admittance
from kipa.search import (
    SEARCH_RAMP,
    SearchRanges,
    _design_for,
    _row_grids,
    default_ranges,
    search_designs,
)
from kipa.simulator import (
    ALPHA_MAX,
    MAP_STEP_DB,
    PEAK_PROMINENCE_DB,
    START_CURRENT,
    START_XI3,
    MobiusForm,
    PumpDrive,
    PumpRampPolicy,
    RampResult,
    ReflectionEngine,
    _candidate_steps,
    _peaks,
    _quadratic_nonnegative,
    _rising_maxima,
    bandwidth_report,
    drive_ladder,
    gain_spectrum,
    policy_ladder,
    pump_bias_map,
    ramp,
    sweep,
)
from test_reference_outputs import LINE_FPS, LINE_IDCS, WINDOWS, _map_argv, _run

TWO_PI = 2 * math.pi
ENVS = {"ideal": IDEAL_ENV, "rippled": paper_env()}


@st.composite
def search_cells(draw):
    """A (design, z14, z12, z_nr, fp2) cell of the desk search grids."""
    kind = draw(st.sampled_from(["three-stage", "conventional"]))
    ranges = default_ranges(kind)
    z14, z12, z_nr, wp2 = (draw(st.sampled_from(axis)) for axis in ranges.axes())
    return ranges, _design_for(ranges, z14, z12, z_nr), z14, z12, z_nr, wp2


def _composed_s11(design, env, ws, omega_p, i_dc, alpha):
    """S11 built link by link: pump reduction, port lines, reflection."""
    ind = ModulatedInductor.from_alpha(design.inductance_at_bias(i_dc), alpha)
    y_idler = idler_admittance(design, env, omega_p - ws)
    y_eff = np.array([effective_admittance(ind, SignalIdlerPair.from_pump(w, omega_p), y)
                      for w, y in zip(ws, y_idler)])
    y_node = 1j * ws * design.c_shunt + y_eff
    a, b, c, d = port_line_abcd(design, ws)
    z_in = (a + b * y_node) / (c + d * y_node)
    z_env = environment_impedance(env, ws)
    return (z_in - z_env) / (z_in + z_env)


def _exhaustive_ramp(engine, drives, alphas):
    """The ramp evaluating every ladder step in turn, on the engine's one ladder.

    The limits are the module's at call time, as the ramp reads them.
    """
    (alphas,) = alphas
    best, best_drive = None, 0.0
    for drive, alpha in zip(drives, alphas):
        gdb = engine.gain_db(float(alpha))
        if not np.isfinite(gdb).all() or gdb.max() > simulator.GAIN_STOP_DB:
            break
        if gdb.max() >= simulator.GAIN_THRESHOLD_DB:
            rep = bandwidth_report(engine.ws, gdb)
            if rep.qualified and rep.bandwidth > (best.bandwidth if best else 0.0):
                best, best_drive = rep, float(drive)
    return RampResult(best, best_drive)


@settings(max_examples=40, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)),
       alpha=st.floats(0.0, 0.9, exclude_max=True))
def test_s11_matches_composition_and_mobius_form(cell, env, alpha):
    _, design, _, _, _, wp2 = cell
    ws = wp2 + TWO_PI * np.arange(-1.2e9, 1.2e9, 20e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    ref = _composed_s11(design, ENVS[env], ws, 2 * wp2, 0.0, alpha)
    np.testing.assert_allclose(engine.s11(alpha), ref, rtol=1e-9)
    m = engine.mobius
    np.testing.assert_allclose((m.p + m.q * alpha) / (m.r + m.s * alpha), ref, rtol=1e-9)


def _same_bits(got, want):
    """Equal bit for bit and in shape, signed zeros and infinities included; lists are arrays."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _pole_admittance(engine, k, alpha):
    """An idler Y* at grid point k that puts an exact pole (D = 0) at α, or None."""
    # iω_i·l0(1-α) is +0 + t·i, so Y* = y·i gives D = -t·y - 1 = 0 when t·y rounds to -1
    t = (engine.jwi[k] * (engine.l0[k] * (1.0 - alpha))).imag
    for y in (-1.0 / t, np.nextafter(-1.0 / t, 0.0), np.nextafter(-1.0 / t, -np.inf)):
        if t * y == -1.0:
            return complex(0.0, y)
    return None


@settings(max_examples=40, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)),
       alphas=st.lists(st.floats(0.0, 0.9, exclude_max=True), min_size=1, max_size=9),
       pole_at=st.none() | st.integers(0, 599))
def test_s11_over_alpha_array_equals_each_alpha_alone(cell, env, alphas, pole_at):
    _, design, _, _, _, wp2 = cell
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    if pole_at is not None:  # an exact idler pole at the first α
        y = _pole_admittance(engine, pole_at, alphas[0])
        assume(y is not None)
        engine.y_idler_conj = engine.y_idler_conj.copy()
        engine.y_idler_conj[pole_at] = y
    column = np.array(alphas)[:, None]
    block, block_db = engine.s11(column), engine.gain_db(column)
    assert block.shape == (len(alphas), ws.size)
    for row, row_db, alpha in zip(block, block_db, alphas):
        assert _same_bits(row, engine.s11(alpha))
        assert _same_bits(row_db, engine.gain_db(alpha))
    if pole_at is not None:
        assert block[0, pole_at] == np.inf and block_db[0, pole_at] == np.inf


@settings(max_examples=40, deadline=None)
@given(cell=search_cells(), offset=st.floats(-1.3e9, 1.3e9))
def test_pump_off_unitarity_ideal_environment(cell, offset):
    _, design, _, _, _, wp2 = cell
    ws = wp2 + TWO_PI * (offset + np.arange(-0.5e9, 0.5e9, 10e6))
    engine = ReflectionEngine(design, IDEAL_ENV, [(ws, 2 * wp2)])
    np.testing.assert_allclose(np.abs(engine.s11(0.0)), 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(engine.mobius.p / engine.mobius.r), 1.0,
                               rtol=0, atol=1e-9)


coefficient = st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-6)


@settings(max_examples=300, deadline=None)
@given(a2=coefficient.filter(lambda v: v != 0), a1=coefficient, a0=coefficient,
       alpha=st.floats(-1e3, 1e3))
def test_quadratic_intervals_hold_every_nonnegative_point(a2, a1, a0, alpha):
    lo, hi = _quadratic_nonnegative(np.array([a2]), np.array([a1]), np.array([a0]))
    inside = bool(np.any((lo[:, 0] <= alpha) & (alpha <= hi[:, 0])))
    value = (a2 * alpha + a1) * alpha + a0
    scale = abs(a2) * alpha * alpha + abs(a1 * alpha) + abs(a0)
    if value > 1e-9 * scale:
        assert inside
    elif value < -1e-9 * scale:
        assert not inside


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), db=st.floats(3.0, 45.0))
def test_step_screen_keeps_exactly_the_steps_near_threshold(cell, env, db):
    _, design, _, _, _, wp2 = cell
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    _, ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    peaks = np.array([engine.gain_db(float(a)).max() for a in ladder[0]])  # inf at poles
    _, kept, _, _ = _candidate_steps(engine, ladder, db)
    assert set(np.flatnonzero(peaks >= db)) <= set(kept)
    assert np.all(peaks[kept] >= db - 1e-4)


@settings(max_examples=25, deadline=None)
@given(cell=search_cells())
def test_screened_search_ramp_matches_exhaustive(cell):
    ranges, design, z14, z12, z_nr, wp2 = cell
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, IDEAL_ENV, [(ws, 2 * wp2)])
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    full = _exhaustive_ramp(engine, *ladder)
    assert ramp(engine, *ladder) == [full]
    # the search records exactly that best profile
    point = SearchRanges((z14, z14, 1.0), (z12, z12, 1.0), (z_nr, z_nr, 1.0),
                         (wp2, wp2, 1.0), ranges.z_ki, ranges.omega0)
    recs = list(search_designs(point))
    if full.report is None:
        assert recs == []
    else:
        assert [(r.max_bandwidth, r.optimal_xi3) for r in recs] == [
            (full.report.bandwidth, full.drive)]


@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(["current", "xi3"]), env=st.sampled_from(sorted(ENVS)),
       fp_hz=st.floats(16.7e9, 17.1e9), idc=st.floats(0.45e-3, 0.65e-3),
       step_db=st.sampled_from([0.1, 0.25]))
def test_screened_map_ramp_matches_exhaustive(mode, env, fp_hz, idc, step_db):
    # without a critical current the current ramp reaches the gain regime
    design = dataclasses.replace(paper_device(),
                                 ki_model=dataclasses.replace(NBTIN_NANOWIRE, i_c=None))
    wp = TWO_PI * fp_hz
    ws = np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, wp)], [idc])
    ladder = policy_ladder(design, [idc], PumpRampPolicy(mode=mode, ratio=10.0 ** (step_db / 20.0)))
    assert ramp(engine, *ladder) == [_exhaustive_ramp(engine, *ladder)]


@pytest.mark.parametrize("mode", ["current", "xi3"])
def test_policy_ladder_repeats_the_multiplied_drive(mode):
    design = paper_device()
    policy = PumpRampPolicy(mode=mode)
    drives, (alphas,) = policy_ladder(design, [0.57e-3], policy)
    # the loop the ladder replaces, in 0.1-dB power steps
    ratio = 10.0 ** (MAP_STEP_DB / 20.0)
    assert policy.ratio == ratio == 10.0 ** (0.1 / 20.0)
    drive = START_CURRENT if mode == "current" else START_XI3
    expected = []
    while True:
        if mode == "current":
            if 0.57e-3 + drive >= design.ki_model.i_c:
                break
            alpha = (9.0 / 16.0) * (0.57e-3 * drive / (design.ki_model.i_star2**2
                                                        + 0.57e-3**2)) ** 2
        else:
            alpha = alpha_for_xi3(drive, design.resonance_at_bias(0.57e-3))
        if alpha >= ALPHA_MAX:
            break
        expected.append((drive, alpha))
        drive *= ratio
    assert drives.tolist() == [d for d, _ in expected]
    np.testing.assert_allclose(alphas, [a for _, a in expected], rtol=1e-15, atol=0)


def test_alpha_squares_keep_the_bits_of_each_caller():
    # a drive squares as r*r alone as inside a ladder array, so `simulate`
    # at a drive a ramp evaluated uses that step's alpha bit for bit
    design = paper_device()
    i_dc, istar2 = PAPER_DEVICE_BIAS, NBTIN_NANOWIRE.i_star2
    w0 = design.resonance_at_bias(i_dc)
    rng = np.random.default_rng(5)
    xi3 = np.concatenate([rng.uniform(0.0, TWO_PI * 6e9, 20_000),
                          np.geomspace(TWO_PI * 1e3, TWO_PI * 1e11, 2_000)])
    r = xi3 / (2.0 * w0)
    assert _same_bits(alpha_for_xi3(xi3, w0), r * r)
    assert _same_bits([alpha_for_xi3(float(x), w0) for x in xi3], r * r)
    ip = rng.uniform(0.0, 0.55e-3, 5_000)
    r = i_dc * ip / (istar2**2 + i_dc**2)
    alphas = modulation_alpha(NBTIN_NANOWIRE, i_dc, ip)
    assert _same_bits(alphas, (9.0 / 16.0) * (r * r))
    assert _same_bits([modulation_alpha(NBTIN_NANOWIRE, i_dc, float(i)) for i in ip], alphas)
    assert _same_bits([pump_coefficients(NBTIN_NANOWIRE, PumpOperatingPoint(i_dc, float(i)),
                                         w0).alpha for i in ip], alphas)


@pytest.mark.parametrize("start", [0.0, -1.0, math.nan])
def test_ladder_start_must_be_positive(start):
    chunks = []

    def alpha_of(drives):
        # a ladder that never ends fails here instead of running on
        chunks.append(drives.size)
        assert len(chunks) < 4
        return np.zeros((2, drives.size))

    with pytest.raises(InvalidParameter, match="ramp start must be > 0"):
        drive_ladder(start, 1.02, alpha_of)
    assert chunks == []


@pytest.mark.parametrize("mode", ["current", "xi3"])
def test_ladder_that_does_not_end_is_rejected(mode, monkeypatch):
    # 0.1-µdB steps would reach the end of either ladder after ~1e9 steps
    calls = []

    def bounded(alpha_of):
        def wrapped(*args):
            # past the cap's 977 chunks, fail here instead of filling memory
            calls.append(1)
            assert len(calls) < 1_100
            return alpha_of(*args)
        return wrapped

    monkeypatch.setattr(simulator, "alpha_for_xi3", bounded(alpha_for_xi3))
    monkeypatch.setattr(simulator, "modulation_alpha", bounded(modulation_alpha))
    with pytest.raises(InvalidParameter, match="has not ended after 1000000 steps"):
        policy_ladder(paper_device(), [PAPER_DEVICE_BIAS], PumpRampPolicy(mode=mode, ratio=10.0 ** (1e-7 / 20.0)))


def test_ladder_below_the_step_cap_ends():
    # drive n is (1 + 1e-9)^n ≈ 1 + n·1e-9, so alpha reaches 0.9 near step 999,000
    drives, (alphas,) = drive_ladder(1.0, 1.0 + 1e-9, lambda d: (d - 1.0) * (0.9 / 999_000e-9))
    assert abs(drives.size - 999_000) < 1_000
    assert alphas.size == drives.size and alphas[-1] < 0.9


def test_ladder_rows_end_at_their_first_failing_step():
    # drive n is 1 + n·1e-9 to well within a step; each row fails at one step
    # only, row 0 in the first chunk and row 1 in the second, and stays ended
    def alpha_of(drives):
        n = np.rint((drives - 1.0) * 1e9)
        return np.stack([np.where(n == 5, 1.0, 0.0), np.where(n == 1500, 1.0, 0.0)])

    drives, alphas = drive_ladder(1.0, 1.0 + 1e-9, alpha_of)
    assert drives.size == 1500 and alphas.shape == (2, 1500)
    assert (alphas[0, :5] == 0).all() and np.isnan(alphas[0, 5:]).all()
    assert (alphas[1] == 0).all()


@pytest.mark.parametrize("ratio", [1.0, 0.5, math.nan])
def test_policy_rejects_a_ratio_that_cannot_grow(ratio):
    with pytest.raises(InvalidParameter, match="ramp ratio must be > 1"):
        PumpRampPolicy(mode="xi3", ratio=ratio)


def test_search_ladder_is_the_policy_budget():
    # the search ramp starts at 2π·1 MHz in 2-% steps; an xi3_cap ends it early
    point = SearchRanges((70.0, 70.0, 1.0), (30.0, 30.0, 1.0), (80.0, 80.0, 1.0),
                         (TWO_PI * 7.75e9, TWO_PI * 8e9, TWO_PI * 0.25e9), 150.0, TWO_PI * 8e9)
    records = list(search_designs(point))
    assert records
    assert SEARCH_RAMP == PumpRampPolicy(mode="xi3", ratio=1.02)
    design = _design_for(point, 70.0, 30.0, 80.0)
    drives, (alphas,) = policy_ladder(design, [0.0], SEARCH_RAMP)
    w0 = design.resonance_at_bias(0.0)
    want_drives, (want_alphas,) = drive_ladder(TWO_PI * 1e6, 1.02,
                                               lambda drive: alpha_for_xi3(drive, w0))
    assert drives.tolist() == want_drives.tolist() and alphas.tolist() == want_alphas.tolist()
    first = min(records, key=lambda r: r.optimal_xi3)
    budget = dataclasses.replace(SEARCH_RAMP, xi3_cap=first.optimal_xi3)
    assert policy_ladder(design, [0.0], budget)[0].tolist() == [
        d for d in drives.tolist() if d <= first.optimal_xi3]
    capped = list(search_designs(point, xi3_cap=first.optimal_xi3))
    assert first in capped and all(r.optimal_xi3 <= first.optimal_xi3 for r in capped)


levels = st.sampled_from([-3.0, 10.0, 16.5, 17.0, 17.0 + 1e-12, 17.3, 17.5, 18.0, 25.0])


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(levels, st.floats(-40.0, 60.0)), max_size=60),
       mirror=st.booleans(), threshold=st.sampled_from([16.5, 17.0, 20.0]))
def test_rising_maxima_bound_the_peak_count(values, mirror, threshold):
    # repeated levels make plateaus; a mirrored profile has equal-height peaks
    g = np.array(values + values[::-1] if mirror else values, dtype=float)
    idx, _ = find_peaks(g, prominence=PEAK_PROMINENCE_DB)
    assert _rising_maxima(g, threshold) >= sum(1 for k in idx if g[k] >= threshold)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.one_of(levels, st.just(-math.inf), st.floats(-40.0, 60.0)),
                       max_size=60),
       mirror=st.booleans(), repeat_last=st.integers(0, 3),
       height=st.sampled_from([-math.inf, 16.5, 17.0, 20.0]),
       prominence=st.sampled_from([0.0, PEAK_PROMINENCE_DB, 3.0]))
def test_peaks_equal_scipy_find_peaks(values, mirror, repeat_last, height, prominence):
    # repeated levels make plateaus, and repeating the last sample one that
    # reaches the row end; a mirrored row has peaks of exactly equal height
    g = values + values[::-1] if mirror else values
    g = np.array(g + g[-1:] * repeat_last, dtype=float)
    want, _ = find_peaks(g, height=height, prominence=prominence)
    got = _peaks(g, height, prominence)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("prominence", [0.0, PEAK_PROMINENCE_DB])
def test_peaks_equal_scipy_find_peaks_on_every_short_row(prominence):
    for n in range(4):
        for row in itertools.product([-math.inf, 16.0, 17.0, 18.0], repeat=n):
            g = np.array(row, dtype=float)
            want, _ = find_peaks(g, height=17.0, prominence=prominence)
            assert _peaks(g, 17.0, prominence).tolist() == want.tolist(), row


def test_peaks_equal_scipy_find_peaks_on_recorded_report_rows(monkeypatch):
    # every row whose peaks both desk searches and the rippled map lattice
    # report, each a reported step's window of its round, the lattice on
    # the 2-MHz signal grid that `kipa map` uses
    rows = []

    def record(x, height, prominence):
        rows.append((np.array(x), height, prominence))
        return _peaks(x, height, prominence)

    monkeypatch.setattr(simulator, "_peaks", record)
    for kind in ("three-stage", "conventional"):
        list(search_designs(default_ranges(kind)))
    pump_bias_map(paper_device(), paper_env(), TWO_PI * np.arange(16.8e9, 17.0e9 + 1, 20e6),
                  np.arange(510e-6, 631e-6, 20e-6), PumpRampPolicy(mode="xi3"))
    assert len(rows) > 900
    # rows with exact ties among their finite samples
    assert any(np.unique(x[np.isfinite(x)]).size < np.isfinite(x).sum() for x, _, _ in rows)
    for x, height, prominence in rows:
        want, _ = find_peaks(x, height=height, prominence=prominence)
        assert _peaks(x, height, prominence).tolist() == want.tolist()


@st.composite
def windowed_rows(draw):
    """(row, lo, hi, threshold, prominence): a window [lo, hi) of ``row`` as the ramp cuts one.

    Every sample outside the window lies below threshold - prominence,
    and so does the window's end sample at each end that is not a row end.
    The window touches neither row end, one of them or both.
    """
    threshold = draw(st.sampled_from([16.5, 17.0, 20.0]))
    prominence = draw(st.sampled_from([0.0, PEAK_PROMINENCE_DB, 3.0]))
    cut = threshold - prominence
    inside = draw(st.lists(st.one_of(levels, st.floats(-40.0, 60.0)), min_size=1, max_size=40))
    below = st.one_of(st.sampled_from([v for v in (-3.0, 10.0, 16.0, cut - 1e-12) if v < cut]),
                      st.floats(-40.0, cut, exclude_max=True))
    left, right = (draw(st.lists(below, min_size=2 * out, max_size=12 * out))
                   for out in draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])))
    row = np.array(left + inside + right, dtype=float)
    # the window keeps one outside sample beyond each end that is no row end
    lo, hi = len(left) - bool(left), len(left) + len(inside) + bool(right)
    return row, lo, hi, threshold, prominence


@settings(max_examples=400, deadline=None)
@given(case=windowed_rows())
def test_window_peaks_are_the_row_peaks_below_the_cut(case):
    row, lo, hi, threshold, prominence = case
    got = _peaks(row[lo:hi], threshold, prominence) + lo
    assert got.tolist() == _peaks(row, threshold, prominence).tolist()


def _counting_evaluations(patch):
    """Counts of the reports, the one-α (whole-cell) evaluations and the (α, point) pairs
    evaluated that a ramp makes under ``patch``."""
    counts = {"reports": 0, "cells": 0, "pairs": 0}

    def report(*args, **kw):
        counts["reports"] += 1
        return bandwidth_report(*args, **kw)

    evaluate = ReflectionEngine.gain_db

    def gain_db(engine, alpha, at=slice(None)):
        counts["cells"] += np.ndim(alpha) == 0
        counts["pairs"] += np.broadcast(alpha, engine.ws[at]).size
        return evaluate(engine, alpha, at)

    patch.setattr(simulator, "bandwidth_report", report)
    patch.setattr(ReflectionEngine, "gain_db", gain_db)
    return counts


@settings(max_examples=15, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)),
       prominence=st.sampled_from([2.0, 2.5, 3.0]))
def test_ramp_at_wide_prominence_matches_exhaustive(cell, env, prominence):
    # at a few dB of prominence, peaks whose walks leave a 17-dB window are
    # common; the ramp's windows are cut that much lower
    _, design, _, _, _, wp2 = cell
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "PEAK_PROMINENCE_DB", prominence)
        assert ramp(engine, *ladder) == [_exhaustive_ramp(engine, *ladder)]


@pytest.mark.parametrize("kind, z14, z12, z_nr, reports", [("three-stage", 70.0, 30.0, 80.0, 3),
                                                            ("conventional", 30.0, 70.0, 4.0, 1)])
def test_wide_prominence_cells_report_from_windows(kind, z14, z12, z_nr, reports,
                                                   monkeypatch):
    # on the rippled environment at 2.5-dB prominence, one reported step of
    # each of these cells has a peak that a window cut at 17 dB could not
    # decide; reported from windows cut at 14.5 dB, the ramp still finds the
    # exhaustive ramp's qualifying profile, and evaluates no whole cell
    ranges = default_ranges(kind)
    design = _design_for(ranges, z14, z12, z_nr)
    wp2 = ranges.axes()[3][3]   # 8.25 GHz
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, paper_env(), [(ws, 2 * wp2)])
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    monkeypatch.setattr(simulator, "PEAK_PROMINENCE_DB", 2.5)
    want = _exhaustive_ramp(engine, *ladder)
    counts = _counting_evaluations(monkeypatch)
    assert ramp(engine, *ladder) == [want]
    assert (counts["reports"], counts["cells"]) == (reports, 0)
    assert want.report is not None


def test_reports_and_whole_cell_evaluations_are_pinned(tmp_path, monkeypatch):
    # the 11 seven-bias lines of the rippled map lattice, then the
    # conventional desk search: every report reads its step's window of a
    # round, so no step is evaluated over its whole cell, and the (α, point)
    # pairs pin how wide the windows are
    counts = _counting_evaluations(monkeypatch)
    out = str(tmp_path / "out.csv")
    for fp in range(16800, 17001, 20):
        assert main(["map", "--preset", "paper-device", "--set", "env=paper-env",
                     "--set", "policy=xi3", "--set", f"fp_span={fp}MHz:{fp}MHz:20MHz",
                     "--set", "idc_start=510uA", "--set", "idc_stop=630uA",
                     "--set", "idc_step=20uA", "--out", out]) == 0
    assert counts == {"reports": 84, "cells": 0, "pairs": 110869}
    counts.update(reports=0, cells=0, pairs=0)
    assert main(["search", "--set", "kind=conventional", "--out", out]) == 0
    assert counts == {"reports": 214, "cells": 0, "pairs": 969447}


LIMITS = dict(threshold_db=st.sampled_from([15.0, 17.0, 20.0]),
              ripple_max_db=st.sampled_from([1.0, 3.0, 5.0]))


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), symmetric=st.booleans(),
       **LIMITS)
def test_screened_ramp_matches_exhaustive_over_limits(cell, env, symmetric,
                                                      threshold_db, ripple_max_db):
    _, design, _, _, _, wp2 = cell
    if symmetric:  # mirror-image grid about ω_p/2: equal-height peaks on the ideal environment
        ws = wp2 + TWO_PI * 4e6 * np.arange(-300, 301)
    else:
        ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "GAIN_THRESHOLD_DB", threshold_db)
        patch.setattr(simulator, "RIPPLE_MAX_DB", ripple_max_db)
        assert ramp(engine, *ladder) == [_exhaustive_ramp(engine, *ladder)]


@pytest.mark.parametrize("kind, z14, z12, z_nr", [("three-stage", 70.0, 30.0, 80.0),
                                                   ("conventional", 30.0, 70.0, 4.0)])
def test_search_row_matches_exhaustive_per_cell_ramps(kind, z14, z12, z_nr):
    base = default_ranges(kind)
    # fp2 = 10 MHz leaves fewer than 16 grid points, so the row drops that cell
    ranges = SearchRanges((z14, z14, 1.0), (z12, z12, 1.0), (z_nr, z_nr, 1.0),
                          (TWO_PI * 0.01e9, TWO_PI * 7.75e9, TWO_PI * 3.87e9),
                          base.z_ki, base.omega0)
    design = _design_for(ranges, z14, z12, z_nr)
    expected = []
    for wp2 in ranges.axes()[3]:
        ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
        ws = ws[(ws > 0) & (2 * wp2 - ws > 0)]
        if ws.size < 16:
            continue
        engine = ReflectionEngine(design, IDEAL_ENV, [(ws, 2 * wp2)])
        ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
        full = _exhaustive_ramp(engine, *ladder)
        if full.report is not None:
            expected.append((wp2, full.report.bandwidth, full.drive))
    assert expected  # the row holds qualifying cells
    assert [(r.omega_p_half, r.max_bandwidth, r.optimal_xi3)
            for r in search_designs(ranges)] == expected


@settings(max_examples=8, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), clip_hz=st.floats(0.1e9, 1.1e9))
def test_row_ramps_equal_exhaustive_per_cell_on_unequal_grids(cell, env, clip_hz):
    ranges, design, _, _, _, _ = cell
    grids = []
    for wp2 in ranges.axes()[3][1:4]:
        ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
        if not grids:  # a clipped cell beside full ones
            ws = ws[ws < wp2 + TWO_PI * clip_hz]
        grids.append((ws, 2 * wp2))
    row = ReflectionEngine(design, ENVS[env], grids)
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    alone = [ReflectionEngine(design, ENVS[env], [grid]) for grid in grids]
    for got, want in zip((steps for _, steps, _, _ in
                          _per_cell(row, _candidate_steps(row, ladder[1], 17.0))),
                         (_candidate_steps(engine, ladder[1], 17.0)[1] for engine in alone)):
        assert np.array_equal(got, want)
    assert ramp(row, *ladder) == [_exhaustive_ramp(engine, *ladder) for engine in alone]


@pytest.mark.parametrize("kind, z14, z12, z_nr", [("three-stage", 70.0, 30.0, 80.0),
                                                   ("conventional", 30.0, 70.0, 4.0)])
def test_block_boundaries_leave_the_ramp_unchanged(kind, z14, z12, z_nr, monkeypatch):
    design = _design_for(default_ranges(kind), z14, z12, z_nr)
    wp2 = TWO_PI * 7.75e9
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, IDEAL_ENV, [(ws, 2 * wp2)])
    drives, ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    full = _exhaustive_ramp(engine, drives, ladder)
    assert full.report is not None
    # candidate steps up to and including the one that stops the ramp
    _, steps, _, _ = _candidate_steps(engine, ladder, 17.0)
    evaluated = np.flatnonzero(engine.gain_db(ladder[0, steps][:, None]).max(axis=1) > 40.0)[0] + 1
    assert evaluated >= 3
    # round budgets of one whole row of the cell, and of one less than, as
    # many as and one more than the evaluated steps' whole rows
    for per_block in (1, evaluated - 1, evaluated, evaluated + 1):
        monkeypatch.setattr(simulator, "RAMP_BLOCK_POINTS", per_block * ws.size)
        assert ramp(engine, drives, ladder) == [full], per_block


ENGINE_ARRAYS = ("ws", "jws", "jwi", "y_c", "y_idler_conj", "z_env", "l0")


def _assert_cell_equals(engine, cell, ref, same):
    """Cell ``cell`` of ``engine`` equals the one-grid, one-bias engine ``ref`` under ``same``."""
    cells = engine.cells[cell]
    for field in ENGINE_ARRAYS:
        assert same(getattr(engine, field)[cells], getattr(ref, field)), field
    for got, want in zip(engine.abcd, ref.abcd):
        assert same(got[cells], want)
    for field, got, want in zip(ref.mobius._fields, engine.mobius, ref.mobius):
        assert same(got[cells], want), field


def _row_designs():
    for kind in ("three-stage", "conventional"):
        ranges = default_ranges(kind)
        yield kind, _design_for(ranges, 60.0, 80.0, ranges.z_nr_range[0]), 0.0
    yield "paper-device", paper_device(), PAPER_DEVICE_BIAS


@pytest.mark.parametrize("env", sorted(ENVS))
@pytest.mark.parametrize("name, design, i_dc", list(_row_designs()))
def test_row_engines_equal_per_cell_engines(name, design, i_dc, env):
    # the first pump value leaves fewer than 16 grid points: the row drops it
    fp2s = [TWO_PI * 5e6] + default_ranges("three-stage").axes()[3]   # 7.5-8.5 GHz
    cells = _row_grids(fp2s)
    assert [wp2 for wp2, _, _ in cells] == fp2s[1:]
    engine = ReflectionEngine(design, ENVS[env], [(ws, wp) for _, ws, wp in cells], [i_dc])
    assert len(engine.cells) == len(cells) and engine.ladder.tolist() == [0] * len(cells)
    for c, (_, ws, wp) in enumerate(cells):
        ref = ReflectionEngine(design, ENVS[env], [(ws, wp)], [i_dc])
        _assert_cell_equals(engine, c, ref, np.array_equal)


BIASES = [0.0, 0.45e-3, PAPER_DEVICE_BIAS, 0.6e-3]


def _counting_idler_builds(patch):
    """The argument tuples of every ``idler_admittance`` call an engine makes under ``patch``.

    The memo of the bias-free arrays starts empty, so a build on the same
    design, environment and grids as an earlier test's is counted too.
    """
    patch.setattr(simulator, "_NETWORK", _Memo(1))
    builds = []
    patch.setattr(simulator, "idler_admittance",
                  lambda *args: builds.append(args) or idler_admittance(*args))
    return builds


@pytest.mark.parametrize("env", sorted(ENVS))
def test_bias_shared_engines_equal_standalone_engines(env, monkeypatch):
    design = paper_device()
    wp = TWO_PI * 16.9e9
    ws = np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    builds = _counting_idler_builds(monkeypatch)
    engine = ReflectionEngine(design, ENVS[env], [(ws, wp)], BIASES)
    assert len(builds) == 1   # one idler chain for every bias
    monkeypatch.undo()
    assert len(engine.cells) == len(BIASES) and engine.ladder.tolist() == [0, 1, 2, 3]
    first = engine.cells[0]
    for k, (i_dc, at) in enumerate(zip(BIASES, engine.cells)):
        ref = ReflectionEngine(design, ENVS[env], [(ws, wp)], [i_dc])
        _assert_cell_equals(engine, k, ref, _same_bits)
        # the bias-free arrays are the first bias's, tiled; the Möbius form,
        # checked above, is each bias's own
        assert _same_bits(engine.y_idler_conj[at], engine.y_idler_conj[first])


def test_one_shot_engines_build_no_mobius_form():
    design = paper_device()
    wp = TWO_PI * 16.9e9
    ws = np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    for biases in ([PAPER_DEVICE_BIAS], BIASES):
        engine = ReflectionEngine(design, paper_env(), [(ws, wp)], biases)
        engine.s11(0.01)
        # an engine that only evaluates S11 builds no Möbius form
        assert "mobius" not in vars(engine)
        engine.mobius
        assert "mobius" in vars(engine)


# films of the bias-engine test: the paper device's, one whose 3.2-mA budget
# ends each bias's current ladder at its own step, and one whose I*₂²
# overflows, so that α ≡ 0 and its current ladders are empty
FILMS = {"paper": NBTIN_NANOWIRE, "budget": dataclasses.replace(NBTIN_NANOWIRE, i_c=3.2e-3),
         "unmodulated": KineticInductorModel("parabolic", l_k0=1e-9, i_star2=1e300)}
UNEQUAL_BIASES = [0.57e-3, 0.0, 0.5e-3, 1.6e-3, 0.6e-3, 0.54e-3, 0.63e-3]


def _one_bias_ladder(design, i_dc, policy):
    """(drives, alphas) of ``policy``'s ramp at ``i_dc`` alone, from scalar operands."""
    model = design.ki_model
    if policy.mode == "xi3":
        w0, cap = design.resonance_at_bias(i_dc), policy.xi3_cap
        return drive_ladder(START_XI3, policy.ratio, lambda drive: alpha_for_xi3(drive, w0),
                            None if cap is None else (lambda drive: drive <= cap))
    if i_dc <= 0 or model.i_star2 * model.i_star2 == math.inf:
        return np.empty(0), np.empty((1, 0))
    return drive_ladder(START_CURRENT, policy.ratio,
                        lambda drive: modulation_alpha(model, i_dc, drive),
                        None if model.i_c is None else (lambda drive: i_dc + drive < model.i_c))


@settings(max_examples=20, deadline=None)
@given(biases=st.lists(st.one_of(st.sampled_from(BIASES), st.floats(0.0, 0.7e-3)),
                       min_size=1, max_size=5),
       env=st.sampled_from(sorted(ENVS)), mode=st.sampled_from(["current", "xi3"]),
       film=st.sampled_from(sorted(FILMS)), capped=st.booleans())
@example(biases=UNEQUAL_BIASES, env="rippled", mode="current", film="budget", capped=False)
@example(biases=UNEQUAL_BIASES, env="ideal", mode="xi3", film="budget", capped=True)
@example(biases=UNEQUAL_BIASES, env="ideal", mode="current", film="unmodulated", capped=False)
def test_bias_engine_cells_equal_fresh_engines(biases, env, mode, film, capped):
    # bias lists hold 0 A, duplicates and unsorted values; an engine of two
    # grids, so that every bias holds several cells.  The xi3 cap lies where
    # α ends the 0.57-mA ladder, so it ends the ladders of lower biases
    design = dataclasses.replace(paper_device(), ki_model=FILMS[film])
    grids = [(np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 8e6), wp)
             for wp in TWO_PI * np.array([16.8e9, 16.9e9])]
    with pytest.MonkeyPatch.context() as patch:
        builds = _counting_idler_builds(patch)
        engine = ReflectionEngine(design, ENVS[env], grids, biases)
        engine.s11(0.01)
        # an engine that only evaluates S11 builds no Möbius form
        assert "mobius" not in vars(engine)
        engine.mobius
    assert len(builds) == 1   # one idler chain for every bias
    cap = 2.0 * design.resonance_at_bias(PAPER_DEVICE_BIAS) * math.sqrt(ALPHA_MAX)
    policy = PumpRampPolicy(mode=mode, xi3_cap=cap if capped else None)
    with pytest.MonkeyPatch.context() as patch:
        ladders = []
        patch.setattr(simulator, "drive_ladder",
                      lambda *args: ladders.append(args) or drive_ladder(*args))
        drives, alphas = policy_ladder(design, biases, policy)
    assert len(ladders) == 1   # one drive sequence for every bias
    assert len(engine.cells) == len(biases) * len(grids) and len(alphas) == len(biases)
    for c in range(len(engine.cells)):
        k, grid = divmod(c, len(grids))
        ref = ReflectionEngine(design, ENVS[env], [grids[grid]], [biases[k]])
        _assert_cell_equals(engine, c, ref, _same_bits)
        # the cells of one bias share its ladder, bit for bit a fresh build's
        # and a ladder's of that bias alone
        ref_drives, (ref_alphas,) = policy_ladder(design, [biases[k]], policy)
        one_drives, (one_alphas,) = _one_bias_ladder(design, biases[k], policy)
        assert _same_bits(ref_drives, one_drives) and _same_bits(ref_alphas, one_alphas)
        row = alphas[engine.ladder[c]]
        assert engine.ladder[c] == k
        assert _same_bits(drives[:ref_drives.size], ref_drives)
        assert _same_bits(row[:ref_alphas.size], ref_alphas)
        assert np.isnan(row[ref_alphas.size:]).all()
        # no three-wave mixing without bias or modulation
        assert (ref_alphas.size == 0) == (mode == "current" and (biases[k] == 0 or film == "unmodulated"))
        for alpha in [0.0, 0.02, *ref_alphas[-3:]]:
            assert _same_bits(engine.s11(alpha, engine.cells[c]), ref.s11(alpha))
    # the longest ladder sets the drives
    assert drives.size == max(np.count_nonzero(~np.isnan(alphas), axis=1), default=0)


def test_a_bias_that_breaks_down_is_rejected_before_any_grid_check_or_build(monkeypatch):
    # the Clem film breaks down at 1 mA; the grid below is invalid too
    film = KineticInductorModel("clem", l_k0=0.8e-9, l_geo=0.2e-9, i_star_star=1e-3)
    design = dataclasses.replace(paper_device(), ki_model=film)
    monkeypatch.setattr(simulator, "_checked_grid", lambda *args: pytest.fail("grid checked"))
    monkeypatch.setattr(simulator, "idler_admittance", lambda *args: pytest.fail("array built"))
    with pytest.raises(SuperconductivityBreakdown, match="bias 0.0012 at or beyond"):
        ReflectionEngine(design, IDEAL_ENV, [(np.array([]), TWO_PI * 16.9e9)],
                         [0.0, 0.5e-3, 1.2e-3, 0.6e-3])


def test_an_engine_needs_a_bias():
    grid = (TWO_PI * np.arange(7.9e9, 8.1e9, 10e6), TWO_PI * 16.9e9)
    with pytest.raises(InvalidParameter, match="needs at least one bias current"):
        ReflectionEngine(paper_device(), IDEAL_ENV, [grid], [])


def test_an_engine_builds_without_a_finite_resonance():
    # l0·C underflows to 0: S11 needs only α, so the engine builds and
    # evaluates, and whatever needs ω0 raises, after any grid fault
    film = KineticInductorModel("parabolic", l_k0=1e-200)
    design = dataclasses.replace(paper_device(), ki_model=film, c_shunt=1e-200)
    grid = (TWO_PI * np.arange(7.9e9, 8.1e9, 50e6), TWO_PI * 16.9e9)
    engine = ReflectionEngine(design, IDEAL_ENV, [grid], [0.0, 1e-3])
    assert np.isfinite(engine.s11(0.01)).all()
    for needs_omega0 in (lambda: design.resonance_at_bias(1e-3),
                         lambda: policy_ladder(design, [1e-3], PumpRampPolicy(mode="current")),
                         lambda: gain_spectrum(design, PumpDrive(0.0, grid[1]), None, grid[0]),
                         lambda: sweep(design, IDEAL_ENV, [grid], [0.0], SEARCH_RAMP)):
        with pytest.raises(SingularNetwork,
                           match="^l0 = 1e-200 H and c = 1e-200 F give no finite resonance$"):
            needs_omega0()
    with pytest.raises(InvalidParameter, match="frequency grid must be a non-empty"):
        sweep(design, IDEAL_ENV, [(np.array([]), grid[1])], [0.0], SEARCH_RAMP)


@pytest.mark.parametrize("i_star2", [math.inf, 1e300, 1.5e154])
def test_current_ladder_of_an_unmodulated_film_is_empty(i_star2):
    # I*₂² past the float range makes α ≡ 0: the ladder is empty, as at 0 A,
    # and the map cell is the one the 62,851 all-zero steps to the drive's
    # overflow gave
    film = KineticInductorModel("parabolic", l_k0=1e-9, i_star2=i_star2)
    design = dataclasses.replace(paper_device(), ki_model=film)
    policy = PumpRampPolicy(mode="current")
    drives, alphas = policy_ladder(design, [0.5e-3, 0.0], policy)
    assert drives.size == 0 and alphas.shape == (2, 0)
    zeros = drive_ladder(START_CURRENT, policy.ratio,
                         lambda drive: modulation_alpha(film, 0.5e-3, drive))
    assert zeros[0].size == 62851 and zeros[1].shape == (1, 62851) and not zeros[1].any()
    wp = TWO_PI * 16e9
    grid = (np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 50e6), wp)
    engine = ReflectionEngine(design, IDEAL_ENV, [grid], [0.5e-3])
    assert sweep(design, IDEAL_ENV, [grid], [0.5e-3], policy) == ramp(engine, *zeros)


@pytest.mark.parametrize("env", sorted(ENVS))
def test_ramp_over_unequal_ladders_equals_per_cell_ramps(env, monkeypatch):
    # a 3.2-mA budget ends each bias's current ladder at its own step, and
    # 0 A has none; 6 dB is a threshold these ladders reach
    monkeypatch.setattr(simulator, "GAIN_THRESHOLD_DB", 6.0)
    design = dataclasses.replace(paper_device(),
                                 ki_model=dataclasses.replace(NBTIN_NANOWIRE, i_c=3.2e-3))
    policy = PumpRampPolicy(mode="current", ratio=10.0 ** (0.25 / 20.0))
    biases = [0.57e-3, 0.0, 0.5e-3, 1.6e-3, 0.6e-3, 0.54e-3, 0.63e-3]
    wp = TWO_PI * 16.9e9
    ws = np.arange(wp / 2 - TWO_PI * 1.2e9, wp / 2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, wp)], biases)
    drives, alphas = policy_ladder(design, biases, policy)
    ends = np.count_nonzero(~np.isnan(alphas), axis=1)
    assert ends[1] == 0 and len(set(ends.tolist())) >= 4
    want = []
    for i_dc in biases:
        alone = ReflectionEngine(design, ENVS[env], [(ws, wp)], [i_dc])
        ladder = policy_ladder(design, [i_dc], policy)
        want += ramp(alone, *ladder)
        assert want[-1] == _exhaustive_ramp(alone, *ladder)
    assert sum(res.report is not None for res in want) >= 4
    for budget in (1, ws.size, simulator.RAMP_BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "RAMP_BLOCK_POINTS", budget)
            assert ramp(engine, drives, alphas) == want, budget


def _per_bias_map(design, env, fps, idcs, policy, step):
    """The map cells of fresh one-bias engines, one ramp per bias."""
    half, cells = TWO_PI * 1.2e9, []
    for wp in fps:
        ws = np.arange(wp / 2 - half, wp / 2 + half, step)
        for idc in idcs:
            engine = ReflectionEngine(design, env, [(ws, wp)], [idc])
            res, = ramp(engine, *policy_ladder(design, [idc], policy))
            rep = res.report
            cells.append(simulator.MapCell(
                wp, idc, *((rep.bandwidth, rep.peak_count, rep.ripple_db, res.drive)
                           if rep else (0.0, 0, 0.0, 0.0))))
    return cells


@pytest.mark.parametrize("env", sorted(ENVS))
@pytest.mark.parametrize("mode", ["current", "xi3"])
def test_pump_bias_map_equals_per_cell_builds(mode, env):
    # without a critical current the current ramp reaches the gain regime
    design = dataclasses.replace(paper_device(),
                                 ki_model=dataclasses.replace(NBTIN_NANOWIRE, i_c=None))
    policy = PumpRampPolicy(mode=mode, ratio=10.0 ** (0.25 / 20.0))
    fps = TWO_PI * np.array([16.8e9, 16.9e9])
    idcs = [0.0, 0.52e-3, 0.57e-3]
    half, step = TWO_PI * 1.2e9, TWO_PI * 4e6
    cells = pump_bias_map(design, ENVS[env], fps, idcs, policy, freq_step=step)
    expected = []
    for wp in fps:
        ws = np.arange(wp / 2 - half, wp / 2 + half, step)
        for idc in idcs:
            engine = ReflectionEngine(design, ENVS[env], [(ws, wp)], [idc])
            res, = ramp(engine, *policy_ladder(design, [idc], policy))
            rep = res.report
            expected.append(simulator.MapCell(
                wp, idc, *((rep.bandwidth, rep.peak_count, rep.ripple_db, res.drive)
                           if rep else (0.0, 0, 0.0, 0.0))))
    assert cells == expected
    assert sum(c.bandwidth > 0 for c in cells) >= 2


def test_lattice_map_is_the_stored_windows_with_one_ladder_per_pump(tmp_path, monkeypatch):
    # the whole 11 x 7 lattice in one map: each pump frequency ramps its seven
    # biases along one drive sequence, and each row equals the row of the
    # stored window that holds it, whose corner is at most (16980 MHz, 610 uA)
    rows = []
    for fp, idc in itertools.product(LINE_FPS, LINE_IDCS):
        window = WINDOWS[f"{min(fp, LINE_FPS[-2])}MHz/{min(idc, LINE_IDCS[-2])}uA"].splitlines()
        rows += [row for row in window[1:]
                 if row.split(",")[:2] == [str(fp * 1_000_000), f"{idc * 1e-6:.12g}"]]
    assert len(rows) == len(LINE_FPS) * len(LINE_IDCS) == 77
    ladders = []
    monkeypatch.setattr(simulator, "drive_ladder",
                        lambda *args: ladders.append(args) or drive_ladder(*args))
    want = "\n".join([window[0]] + rows) + "\n"
    assert _run(_map_argv(LINE_FPS, LINE_IDCS), tmp_path) == want
    assert len(ladders) == len(LINE_FPS)


def test_one_engine_build_per_search_row_and_per_map_pump(monkeypatch):
    builds = []
    init = ReflectionEngine.__init__
    monkeypatch.setattr(ReflectionEngine, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    base = default_ranges("three-stage")
    fp2s = (TWO_PI * 7.75e9, TWO_PI * 8.25e9, TWO_PI * 0.25e9)
    ranges = SearchRanges((60.0, 70.0, 10.0), (80.0, 80.0, 1.0), (50.0, 60.0, 10.0), fp2s,
                          base.z_ki, base.omega0)
    list(search_designs(ranges))
    # one per (z14, z12, z_nr) row, at the search's one bias
    assert [(len(grids), i_dcs) for _, _, grids, i_dcs in builds] == [(3, [0.0])] * 4
    builds.clear()
    # a 5-MHz pump half-frequency leaves fewer than 16 grid points: no cells, no build
    assert list(search_designs(dataclasses.replace(
        ranges, omega_p_half_range=(TWO_PI * 5e6, TWO_PI * 5e6, 1.0)))) == []
    assert builds == []
    ramps = []
    monkeypatch.setattr(simulator, "ramp",
                        lambda engine, *args: ramps.append(engine) or ramp(engine, *args))
    fps = TWO_PI * np.array([16.8e9, 16.9e9, 17.0e9])
    idcs = [0.0, 0.52e-3, 0.57e-3]
    pump_bias_map(paper_device(), IDEAL_ENV, fps, idcs,
                  PumpRampPolicy(mode="xi3", ratio=10.0 ** (0.5 / 20.0)), freq_step=TWO_PI * 4e6)
    # one per pump frequency, at all three biases
    assert [(wp, i_dcs) for _, _, ((_, wp),), i_dcs in builds] == [(wp, idcs) for wp in fps]
    # and one ramp per pump frequency, over all three biases
    assert [len(engine.cells) for engine in ramps] == [3] * len(fps)


@pytest.mark.parametrize("env", sorted(ENVS))
def test_many_bias_line_ramps_in_engines_under_the_cap(env, monkeypatch):
    # a 60-point grid and a cap of 250 points: four biases per engine
    design = dataclasses.replace(paper_device(),
                                 ki_model=dataclasses.replace(NBTIN_NANOWIRE, i_c=None))
    policy = PumpRampPolicy(mode="current", ratio=10.0 ** (0.5 / 20.0))
    fps, step = [TWO_PI * 16.9e9], TWO_PI * 40e6
    idcs = [0.57e-3, 0.0, 0.52e-3, 0.6e-3, 0.57e-3, 0.45e-3, 0.3e-3, 0.55e-3, 0.62e-3, 0.5e-3,
            0.58e-3]
    monkeypatch.setattr(simulator, "MAP_ENGINE_POINTS", 250)
    ramps = []
    monkeypatch.setattr(simulator, "ramp",
                        lambda engine, *args: ramps.append(engine) or ramp(engine, *args))
    cells = pump_bias_map(design, ENVS[env], fps, idcs, policy, freq_step=step)
    assert [len(engine.cells) for engine in ramps] == [4, 4, 3]
    assert all(engine.ws.size <= 250 for engine in ramps)
    assert cells == _per_bias_map(design, ENVS[env], fps, idcs, policy, step)
    assert sum(c.bandwidth > 0 for c in cells) >= 2


@pytest.mark.parametrize("bad", [
    (np.array([]), TWO_PI * 16e9),
    (np.ones((2, 20)), TWO_PI * 16e9),
    (TWO_PI * np.array([8.0e9, 8.1e9, 8.1e9]), TWO_PI * 16e9),
    (TWO_PI * np.array([8.0e9, 9.0e9, 10.0e9]), TWO_PI * 9.5e9),
])
def test_row_validates_each_grid_like_a_single_engine(bad):
    design = paper_device()
    good = (TWO_PI * np.arange(7.9e9, 8.1e9, 10e6), TWO_PI * 16.9e9)
    with pytest.raises(InvalidParameter) as alone:
        ReflectionEngine(design, IDEAL_ENV, [bad])
    with pytest.raises(InvalidParameter) as in_row:
        ReflectionEngine(design, IDEAL_ENV, [good, bad])
    assert str(in_row.value) == str(alone.value)


class _ScriptedEngine:
    """Engine stand-in whose gain at the i-th ladder α is the i-th of ``profiles``."""

    def __init__(self, profiles, ladder):
        self.ws = np.linspace(0.5, 1.5, profiles[0].size)
        self.profiles = dict(zip(ladder[0].tolist(), profiles))
        self.cells = [slice(0, self.ws.size)]
        self.ladder = np.zeros(1, dtype=np.intp)
        zero = np.zeros(self.ws.size, dtype=complex)
        # a2 = 0 everywhere: the α screen keeps every step
        self.mobius = MobiusForm(zero, zero, zero, zero, zero + 1j)

    def gain_db(self, alpha, at=slice(None)):
        """The scripted gain at (α, point) pairs, or at one α over a slice."""
        if np.ndim(alpha):
            at = np.arange(self.ws.size)[at]
            return np.array([self.profiles[a][i] for a, i in zip(alpha.tolist(), at.tolist())])
        return self.profiles[alpha][at].copy()


X = np.linspace(-1.0, 1.0, 101)
TWO_PEAKS = 20.0 - 8.0 * (X * X - 0.25) ** 2 * 16.0
DRIVES, ALPHAS = np.array([1.0, 2.0, 3.0]), np.array([[0.1, 0.2, 0.3]])


def test_ramp_keeps_the_first_of_equal_width_profiles():
    engine = _ScriptedEngine([TWO_PEAKS] * 3, ALPHAS)
    res, = ramp(engine, DRIVES, ALPHAS)
    assert res.report.qualified and res.report.peak_count == 2
    assert res.drive == 1.0
    assert res == _exhaustive_ramp(engine, DRIVES, ALPHAS)


def _hump(width):
    """One peak, 17 dB at ±width, with a side maximum of too little prominence."""
    g = 20.0 - 3.0 * (X / width) ** 2
    g[25] += 0.2
    return g


def _two_peaks(width, dip=1.0):
    """The span of ``_hump(width)`` with a dip in the middle: two peaks, qualifies."""
    g = 20.0 - 3.0 * (X / width) ** 2
    g[np.abs(X) < 0.3] -= dip
    return g


@pytest.mark.parametrize("profiles, drive, reports", [
    # a wider later step passes the rising-maxima screen and fails the
    # two-peak rule: the narrower earlier step is kept
    ([_two_peaks(0.8), _hump(0.9)], 1.0, 2),
    # equal widths, the first fails: the second is kept
    ([_hump(0.9), _two_peaks(0.9)], 2.0, 2),
    # equal widths, both qualify: the first is kept, and the only one reported
    ([_two_peaks(0.9), _two_peaks(0.9, dip=2.0), _two_peaks(0.8)], 1.0, 1),
])
def test_ramp_reports_widest_first(profiles, drive, reports, monkeypatch):
    assert all(_rising_maxima(g, 17.0) >= 2 for g in profiles)
    calls = []
    monkeypatch.setattr(simulator, "bandwidth_report",
                        lambda *args, **kw: calls.append(args) or bandwidth_report(*args, **kw))
    engine = _ScriptedEngine(profiles, ALPHAS[:, :len(profiles)])
    ladder = DRIVES[:len(profiles)], ALPHAS[:, :len(profiles)]
    res, = ramp(engine, *ladder)
    assert (res.drive, res.report.qualified, len(calls)) == (drive, True, reports)
    monkeypatch.undo()
    assert res == _exhaustive_ramp(engine, *ladder)


def test_ramp_stops_inside_a_block_at_the_step_above_stop_db():
    # the second step would qualify wider but for a narrow spike above
    # stop_db; the ramp stops there, and the third step, in the same block,
    # is never a candidate
    spiked = TWO_PEAKS + 2.0
    spiked[2] = 45.0
    engine = _ScriptedEngine([TWO_PEAKS, spiked, TWO_PEAKS + 2.0], ALPHAS)
    res, = ramp(engine, DRIVES, ALPHAS)
    assert res.drive == 1.0
    assert res == _exhaustive_ramp(engine, DRIVES, ALPHAS)
    # without the spike the second step is the widest
    assert ramp(_ScriptedEngine([TWO_PEAKS, TWO_PEAKS + 2.0, TWO_PEAKS + 2.0], ALPHAS),
                DRIVES, ALPHAS)[0].drive == 2.0


def test_row_screen_keeps_every_step_only_in_a_degenerate_cell():
    # two grid points per cell; the first point of cell 0 has a2 = 0, every
    # other point has S11(α) = α, whose gain reaches -6.02 dB (|S11|² = 1/4)
    # from α = 1/2 on
    p, q, r, s = (np.array(point, dtype=complex)
                  for point in ([0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 0]))
    engine = types.SimpleNamespace(mobius=MobiusForm(p, q, r, s, np.full(4, 1j)),
                                   cells=[slice(0, 2), slice(2, 4)], ladder=np.zeros(2, np.intp))
    alphas = np.array([[0.1, 0.3, 0.5, 0.7]])
    got = [steps for _, steps, _, _ in
           _per_cell(engine, _candidate_steps(engine, alphas, 10.0 * math.log10(0.25)))]
    assert [steps.tolist() for steps in got] == [[0, 1, 2, 3], [2, 3]]
    # on ladders of their own, the degenerate cell keeps every step of its
    # shorter ladder and no step past its end
    engine.ladder = np.array([1, 0])
    ladders = np.array([alphas[0], [0.1, 0.3, 0.5, np.nan]])
    got = [steps for _, steps, _, _ in
           _per_cell(engine, _candidate_steps(engine, ladders, 10.0 * math.log10(0.25)))]
    assert [steps.tolist() for steps in got] == [[0, 1, 2], [2, 3]]


def test_row_with_an_empty_ladder_keeps_no_step():
    # an unbiased design has no current ladder, as a current-mode map cell at 0 A
    ranges = default_ranges("three-stage")
    grids = [(ws, wp) for _, ws, wp in _row_grids(ranges.axes()[3][:2])]
    design = _design_for(ranges, 70.0, 30.0, 80.0)
    engine = ReflectionEngine(design, IDEAL_ENV, grids)
    drives, alphas = policy_ladder(design, [0.0], PumpRampPolicy(mode="current"))
    assert len(engine.cells) == 2 and alphas.shape == (1, 0)
    screen = _candidate_steps(engine, alphas, 17.0)
    assert len(screen) == 4 and all(x.size == 0 and x.dtype == np.intp for x in screen)
    assert ramp(engine, drives, alphas) == [RampResult(None, 0.0)] * 2


def _row_of_two(cell, env):
    """A row engine whose second cell is ``cell`` and the one before it, and its ladder."""
    _, design, _, _, _, wp2 = cell
    grids = [(ws, wp) for _, ws, wp in _row_grids([wp2 - TWO_PI * 0.25e9, wp2])]
    engine = ReflectionEngine(design, ENVS[env], grids)
    return engine, policy_ladder(design, [0.0], SEARCH_RAMP)


def _per_cell(engine, screen):
    """(cells, steps, lo, hi) of each cell of ``engine`` in the flat ``screen``."""
    cell, step, lo, hi = screen
    for c, cells in enumerate(engine.cells):
        yield cells, step[cell == c], lo[cell == c], hi[cell == c]


def _rounds(screen, per_round):
    """(cell, steps, lo, hi) of the engine's kept steps in ladder order, ``per_round`` at a time."""
    cell, step, lo, hi = screen
    order = np.lexsort((cell, step))
    for at in range(0, order.size, per_round):
        rows = order[at:at + per_round]
        yield cell[rows], step[rows], lo[rows], hi[rows]


def _local(window, cells):
    """``window`` as a slice of the cell ``cells``."""
    return slice(window.start - cells.start, window.stop - cells.start)


def _flat(lo, hi):
    """The grid points of the windows [lo, hi) end to end."""
    return np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), per_block=st.integers(1, 12))
def test_block_on_its_window_equals_the_full_row_bit_for_bit(cell, env, per_block):
    # each kept step on its own window, rounds of steps of both cells in one flat call
    engine, (_, ladder) = _row_of_two(cell, env)
    screen = _candidate_steps(engine, ladder, 17.0)
    alphas = ladder[0]
    for cells, _, lo, hi in _per_cell(engine, screen):
        assert np.all((cells.start <= lo) & (lo < hi) & (hi <= cells.stop))
    for cs, ks, lo, hi in _rounds(screen, per_block):
        at, alpha = _flat(lo, hi), np.repeat(alphas[ks], hi - lo)
        rows = [(engine.s11(alphas[k], engine.cells[c]), engine.gain_db(alphas[k], engine.cells[c]),
                 _local(slice(a, b), engine.cells[c])) for c, k, a, b in zip(cs, ks, lo, hi)]
        assert _same_bits(engine.s11(alpha, at), np.concatenate([s[w] for s, _, w in rows]))
        assert _same_bits(engine.gain_db(alpha, at),
                          np.concatenate([g[w] for _, g, w in rows]))


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)),
       threshold_db=st.floats(3.0, 45.0), stop_db=st.floats(3.0, 45.0))
def test_points_outside_a_block_window_stay_below_the_screened_level(cell, env,
                                                                      threshold_db, stop_db):
    engine, (_, ladder) = _row_of_two(cell, env)
    db = min(threshold_db, stop_db)
    alphas = ladder[0]
    for cells, *screen in _per_cell(engine, _candidate_steps(engine, ladder, db)):
        for k, lo, hi in zip(*(x.tolist() for x in screen)):
            # outside the window, or its end point at an end inside the cell
            outside = np.ones(cells.stop - cells.start, dtype=bool)
            outside[_local(slice(lo + (lo > cells.start), hi - (hi < cells.stop)), cells)] = False
            gdb = engine.gain_db(float(alphas[k]), cells)[outside]   # the step over the whole cell
            assert np.all(np.isfinite(gdb) & (gdb < db)), k


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), degenerate=st.booleans(),
       point=st.integers(0, 599), step=st.integers(0, 499))
def test_degenerate_and_pole_cells_fall_back_to_the_full_window(cell, env, degenerate, point,
                                                                step):
    _, design, _, _, _, wp2 = cell
    ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
    engine = ReflectionEngine(design, ENVS[env], [(ws, 2 * wp2)])
    drives, ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    alphas = ladder[0]
    assume(step < alphas.size)
    if degenerate:   # a2 = 0 at one point: the screen keeps every step and point
        m = engine.mobius
        q, s = m.q.copy(), m.s.copy()
        q[point] = s[point] = 0.0
        engine.mobius = m._replace(q=q, s=s)
    else:   # an exact idler pole at one point and ladder step
        y = _pole_admittance(engine, point, alphas[step])
        assume(y is not None)
        engine.y_idler_conj = engine.y_idler_conj.copy()
        engine.y_idler_conj[point] = y
    cells = engine.cells[0]
    _, steps, lo, hi = _candidate_steps(engine, ladder, 17.0)
    if degenerate:
        assert steps.tolist() == list(range(alphas.size))
        assert np.all(lo == cells.start) and np.all(hi == cells.stop)
    else:
        # the window of the pole step holds the pole point
        i, = np.flatnonzero(steps == step)
        assert lo[i] <= point < hi[i]
        at = np.arange(lo[i], hi[i])
        gain = engine.gain_db(np.full(at.size, alphas[step]), at)
        assert gain[point - lo[i]] == np.inf
    assert ramp(engine, drives, ladder) == [_exhaustive_ramp(engine, drives, ladder)]


@settings(max_examples=25, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)),
       fault=st.sampled_from(["none", "pole", "degenerate", "flat"]),
       point=st.integers(0, 599), step=st.integers(0, 499),
       db=st.sampled_from([15.0, 17.0, 20.0]))
def test_screen_solving_points_with_roots_equals_solving_every_point(cell, env, fault, point,
                                                                     step, db):
    # a point with a2 < 0 and no real root has no α interval, so leaving it
    # unsolved changes no screen; the fault goes into the row's second cell.
    # a2 > 0 does not occur on the desk grids, so "flat" makes one such point
    # (40 dB at every α: a2 > 0 with no real root)
    engine, (_, ladder) = _row_of_two(cell, env)
    alphas = ladder[0]
    k = engine.cells[1].start + point
    assume(step < alphas.size and k < engine.ws.size)
    if fault == "pole":
        y = _pole_admittance(engine, k, alphas[step])
        assume(y is not None)
        engine.y_idler_conj = engine.y_idler_conj.copy()
        engine.y_idler_conj[k] = y
    elif fault == "degenerate":
        m = engine.mobius
        q, s = m.q.copy(), m.s.copy()
        q[k] = s[k] = 0.0
        engine.mobius = m._replace(q=q, s=s)
    elif fault == "flat":
        m = engine.mobius
        p, q = m.p.copy(), m.q.copy()
        p[k], q[k] = 100.0 * m.r[k], 100.0 * m.s[k]
        engine.mobius = m._replace(p=p, q=q)
    got = _candidate_steps(engine, ladder, db)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_with_roots", lambda a2, disc: np.arange(a2.size))
        want = _candidate_steps(engine, ladder, db)
    assert len(got) == len(want)
    for field, value in zip(got, want):
        assert field.dtype == value.dtype and np.array_equal(field, value)


@settings(max_examples=8, deadline=None)
@given(cell=search_cells(), env=st.sampled_from(sorted(ENVS)), clip_hz=st.floats(0.1e9, 1.1e9))
def test_rounds_equal_exhaustive_per_cell_ramps_at_every_budget(cell, env, clip_hz):
    # at a budget of one point every round holds one step, so the cells of a
    # row stop in different rounds; at one cell's length and at the default a
    # round holds steps of several cells
    ranges, design, _, _, _, _ = cell
    grids = []
    for wp2 in ranges.axes()[3][:3]:
        ws = np.arange(wp2 - TWO_PI * 1.2e9, wp2 + TWO_PI * 1.2e9, TWO_PI * 4e6)
        if not grids:  # a clipped cell beside full ones
            ws = ws[ws < wp2 + TWO_PI * clip_hz]
        grids.append((ws, 2 * wp2))
    row = ReflectionEngine(design, ENVS[env], grids)
    ladder = policy_ladder(design, [0.0], SEARCH_RAMP)
    want = [_exhaustive_ramp(ReflectionEngine(design, ENVS[env], [grid]), *ladder)
            for grid in grids]
    for budget in (1, grids[-1][0].size, simulator.RAMP_BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "RAMP_BLOCK_POINTS", budget)
            assert ramp(row, *ladder) == want, budget
