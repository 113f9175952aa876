"""The grid memo: engine builds on the same grids share their grid-only arrays.

An engine's checked and concatenated ω_s/ω_i grids and the cos/sin of
each line length at them depend on the grids and the layout frequency
alone.  A content-keyed memo that holds one build's grids hands them to
the next build on the same grids, and another hands on the bias-free
network arrays to the next build of the same design and environment too.
These tests check that an engine built on a warm memo equals a cold build
bit for bit, that a grid that fails its check is never stored, that the
memo's arrays are read-only and stay bounded, that a desk search computes
each grid's cos/sin once, and that a map line of two engines builds its
network once.
"""
import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kipa import circuits, simulator
from kipa.circuits import IDEAL_ENV
from kipa.errors import InvalidParameter, SuperconductivityBreakdown
from kipa.material import KineticInductorModel
from kipa.netcore import TransmissionLineSegment
from kipa.presets import paper_device, paper_env
from kipa.search import SearchRanges, default_ranges, search_designs
from kipa.simulator import PumpRampPolicy, ReflectionEngine, pump_bias_map

TWO_PI = 2 * math.pi
ENVS = {"ideal": IDEAL_ENV, "rippled": paper_env()}
DESIGNS = {"three-stage": paper_device(),
           "conventional": dataclasses.replace(paper_device(), z_ki_quarter=None)}
# (fp/2 in GHz, half span in MHz, step in MHz) of a grid about the pump half-frequency
GRIDS = st.tuples(st.sampled_from([8.2, 8.45, 8.6]), st.sampled_from([40, 100, 160]),
                  st.sampled_from([4, 10]))


def _grid(fp2_ghz, half_mhz, step_mhz):
    wp2 = TWO_PI * fp2_ghz * 1e9
    return (np.arange(wp2 - TWO_PI * half_mhz * 1e6, wp2 + TWO_PI * half_mhz * 1e6,
                      TWO_PI * step_mhz * 1e6), 2 * wp2)


def _forget():
    """Empty the memos, so the next build computes every grid and network array."""
    simulator._GRIDS.entries.clear()
    circuits._LINE_TRIG.entries.clear()
    simulator._NETWORK.entries.clear()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def _engine_arrays(engine):
    return {"ws": engine.ws, "jws": engine.jws, "jwi": engine.jwi, "y_c": engine.y_c,
            "y_idler_conj": engine.y_idler_conj, "z_env": engine.z_env, "l0": engine.l0,
            **{f"abcd{k}": x for k, x in enumerate(engine.abcd)},
            **{f"mobius.{k}": x for k, x in engine.mobius._asdict().items()},
            **{f"s11@{alpha}": engine.s11(alpha) for alpha in (0.0, 0.01, 0.3)}}


def _assert_same_engine(got, want):
    want_arrays = _engine_arrays(want)
    for name, x in _engine_arrays(got).items():
        assert _same_bits(x, want_arrays[name]), name
    assert got.cells == want.cells and _same_bits(got.ladder, want.ladder)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(DESIGNS)), env=st.sampled_from(sorted(ENVS)),
       grids=st.lists(GRIDS, min_size=1, max_size=5, unique=True),
       others=st.lists(GRIDS, min_size=1, max_size=3, unique=True),
       biases=st.lists(st.sampled_from([0.0, 0.3e-3, 0.57e-3, 0.9e-3]), min_size=1, max_size=4),
       f0_ghz=st.sampled_from([7.8, 8.0]))
def test_a_memo_hit_changes_no_bit(kind, env, grids, others, biases, f0_ghz):
    design, env = DESIGNS[kind], ENVS[env]
    moved = dataclasses.replace(design, f0=TWO_PI * f0_ghz * 1e9)
    grids, others = [_grid(*g) for g in grids], [_grid(*g) for g in others]
    pumped = [(ws, wp + TWO_PI * 10e6) for ws, wp in grids]   # the same ω_s, other ω_i
    builds = [(design, grids, biases), (design, others, biases[:1]), (design, pumped, biases),
              (moved, grids, biases[:1]), (moved, others, biases)]
    cold = []
    for design_, grids_, biases_ in builds:
        _forget()
        cold.append(ReflectionEngine(design_, env, grids_, biases_))
    # a build right after one on the same grids and f0 computes no grid array
    misses = simulator._GRIDS.misses, circuits._LINE_TRIG.misses
    _assert_same_engine(ReflectionEngine(moved, env, others, biases), cold[4])
    assert (simulator._GRIDS.misses, circuits._LINE_TRIG.misses) == misses
    # builds on other grids, another pump and another layout frequency in between
    for k in (0, 0, 1, 0, 2, 0, 3, 3, 0, 4, 1, 2, 0):
        design_, grids_, biases_ = builds[k]
        _assert_same_engine(ReflectionEngine(design_, env, grids_, biases_), cold[k])


GOOD = _grid(8.45, 100, 10)


@pytest.mark.parametrize("bad, message", [
    ((np.array([TWO_PI * 8e9, np.nan, TWO_PI * 8.2e9]), TWO_PI * 16.9e9), "strictly increasing"),
    ((TWO_PI * np.array([8.0e9, 8.1e9, 8.1e9]), TWO_PI * 16.9e9), "strictly increasing"),
    ((TWO_PI * np.array([8.0e9, 9.0e9, 10.0e9]), TWO_PI * 9.5e9), "beyond the pump"),
])
def test_a_grid_that_fails_its_check_raises_every_time_and_is_never_stored(bad, message):
    _forget()
    for grids in ([bad], [bad], [GOOD], [GOOD, bad], [bad]):
        if grids[-1] is GOOD:
            ReflectionEngine(paper_device(), IDEAL_ENV, grids)
        else:
            with pytest.raises(InvalidParameter, match=message):
                ReflectionEngine(paper_device(), IDEAL_ENV, grids)
        # the memo holds the good grid alone, or nothing
        assert [key for key, _ in simulator._GRIDS.entries] in (
            [], [((GOOD[0].shape, GOOD[0].tobytes(), GOOD[1]),)])


def test_memoized_arrays_are_read_only():
    _forget()
    engine = ReflectionEngine(paper_device(), IDEAL_ENV, [GOOD])
    stored = [x for _, value in simulator._GRIDS.entries + circuits._LINE_TRIG.entries
              for x in value if isinstance(x, np.ndarray)]
    assert len(stored) == 2 + 2 * 4   # ws and wi; cos and sin of two lengths at each
    assert any(x is engine.ws for x in stored)
    for x in stored:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
    # what the engine computes from them is its own
    engine.jws[0] = 1j


def test_the_memo_holds_one_build_after_a_map():
    fps = TWO_PI * np.linspace(16.8e9, 17.0e9, 11)
    step = TWO_PI * 40e6
    cells = pump_bias_map(paper_device(), paper_env(), fps, [0.0, 0.57e-3],
                          PumpRampPolicy(mode="xi3"), freq_step=step)
    assert len(cells) == 22
    wp = fps[-1]
    ws = np.arange(wp / 2 - simulator.FREQ_HALF_SPAN, wp / 2 + simulator.FREQ_HALF_SPAN, step)
    ((key, _),) = simulator._GRIDS.entries
    assert key == ((ws.shape, ws.tobytes(), float(wp)),)
    grids = {ws.tobytes(), (wp - ws).tobytes()}
    assert {key[2] for key, _ in circuits._LINE_TRIG.entries} == grids
    assert len(circuits._LINE_TRIG.entries) == 2


def test_a_bias_that_breaks_down_is_reported_before_the_grids_on_a_memo_hit(monkeypatch):
    # the Clem film breaks down at 1 mA
    film = KineticInductorModel("clem", l_k0=0.8e-9, l_geo=0.2e-9, i_star_star=1e-3)
    design = dataclasses.replace(paper_device(), ki_model=film)
    ReflectionEngine(design, IDEAL_ENV, [GOOD], [0.0])
    monkeypatch.setattr(simulator, "_checked_grids", lambda *args: pytest.fail("grids read"))
    for grids in ([GOOD], [GOOD, (np.array([]), TWO_PI * 16.9e9)]):
        with pytest.raises(SuperconductivityBreakdown, match="bias 0.0012 at or beyond"):
            ReflectionEngine(design, IDEAL_ENV, grids, [0.0, 1.2e-3])


def test_a_desk_search_computes_each_grid_once(monkeypatch):
    # both circuit kinds share the pump-axis grids and the 8-GHz layout
    # frequency, so the sixteen rows compute the checked grids once, and
    # cos/sin of both line lengths (quarter, half wave) once per grid (ω_s, ω_i)
    thetas = []
    electrical_length = TransmissionLineSegment.electrical_length
    monkeypatch.setattr(TransmissionLineSegment, "electrical_length",
                        lambda seg, omega: thetas.append(seg.length_fraction)
                        or electrical_length(seg, omega))
    _forget()
    misses = simulator._GRIDS.misses, circuits._LINE_TRIG.misses
    records = 0
    for kind, z_nr in (("three-stage", (50.0, 60.0, 10.0)), ("conventional", (2.0, 4.0, 2.0))):
        base = default_ranges(kind)
        ranges = SearchRanges((60.0, 70.0, 10.0), (40.0, 50.0, 10.0), z_nr,
                              base.omega_p_half_range, base.z_ki, base.omega0)
        records += len(list(search_designs(ranges)))
    assert records > 0
    assert simulator._GRIDS.misses - misses[0] == 1
    assert circuits._LINE_TRIG.misses - misses[1] == 2
    assert sorted(thetas) == [0.25, 0.25, 0.5, 0.5]


def test_a_map_line_of_two_engines_builds_its_network_once(monkeypatch):
    # 25 biases on the 1,200-point map grid: 13 biases per engine, so two
    # engines, which share one idler chain, line cascade and environment
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, call)

    for owner, name in ((ReflectionEngine, "__init__"), (simulator, "idler_admittance"),
                        (simulator, "port_line_abcd")):
        counted(owner, name)
    _forget()
    idcs = np.arange(150e-6, 631e-6, 20e-6)
    cells = pump_bias_map(paper_device(), paper_env(), [TWO_PI * 16.9e9], idcs,
                          PumpRampPolicy(mode="xi3"))
    assert len(cells) == 25
    assert calls == {"__init__": 2, "idler_admittance": 1, "port_line_abcd": 1}
    # the memo holds the line's network, read-only
    ((_, stored),) = simulator._NETWORK.entries
    assert len(stored) == 6   # the idler chain, the cascade's A, B, C, D and the environment
    for x in stored:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
