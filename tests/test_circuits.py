import math

import numpy as np
import pytest

from kipa.circuits import (
    DesignSpec,
    EnvironmentModel,
    IDEAL_ENV,
    chain_impedance_from_node,
    environment_impedance,
    idler_admittance,
    port_line_abcd,
)
from kipa.errors import InvalidParameter, UnphysicalEnvironment
from kipa.material import KineticInductorModel
from kipa.netcore import input_impedance
from kipa.presets import PAPER_DEVICE_BIAS, paper_device, paper_env

TWO_PI = 2 * math.pi
W84 = TWO_PI * 8.4e9


def test_flat_environment():
    z = environment_impedance(IDEAL_ENV, W84)
    assert z == 50.0


def test_environment_dc_sum_is_real():
    env = EnvironmentModel(50.0, ((14.2, 1e-9, 0.0), (1.9, 2e-9, 0.0)))
    z = environment_impedance(env, 0.0)
    assert z == pytest.approx(50.0 + 14.2 + 1.9)
    assert z.imag == 0


def test_environment_fitted_parameters_direct_value():
    env = paper_env()
    z = environment_impedance(env, W84)
    tau1, tau2 = 10.5e-9 / TWO_PI, 121e-9 / TWO_PI
    expected = (50.0
                + 14.2 * np.exp(1j * (W84 * tau1 - 0.7 * np.pi))
                + 1.9 * np.exp(1j * (W84 * tau2)))
    assert z == pytest.approx(expected, rel=1e-12)


def test_environment_unphysical_rejected():
    env = EnvironmentModel(50.0, ((60.0, 0.0, np.pi),))  # Re = -10 everywhere
    with pytest.raises(UnphysicalEnvironment):
        environment_impedance(env, W84)


def test_environment_term_count_limited():
    with pytest.raises(InvalidParameter):
        EnvironmentModel(50.0, ((1.0, 0.0, 0.0),) * 3)


def _matched_lines_design(c_shunt=1e-30):
    # 50-ohm lines leave the source invisible from the node
    model = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0)
    return DesignSpec(50.0, 50.0, 50.0, c_shunt, model, TWO_PI * 8e9)


def test_idler_admittance_matched_chain_is_bare_source():
    design = _matched_lines_design()
    y = idler_admittance(design, IDEAL_ENV, W84)
    assert y == pytest.approx(0.02, rel=1e-9)


def test_idler_admittance_capacitor_term():
    design = _matched_lines_design(c_shunt=330e-15)
    y = idler_admittance(design, IDEAL_ENV, W84)
    assert y == pytest.approx(0.02 + 1j * W84 * 330e-15, rel=1e-12)


def _nodal_elimination_oracle(design, env, omega):
    """Ladder admittance at the resonator node by full nodal solve.

    Nodes: 0 = resonator node, then one per line junction, last = port.
    Stamps each line's 2x2 admittance representation, the shunt capacitor,
    and the source admittance, then Schur-eliminates everything but node 0.
    """
    segs = design.lines_node_to_port()
    n = len(segs) + 1
    y = np.zeros((n, n), dtype=complex)
    for k, seg in enumerate(segs):
        th = seg.electrical_length(omega)
        y11 = -1j / (seg.z_c * np.tan(th))
        y12 = 1j / (seg.z_c * np.sin(th))
        y[k, k] += y11
        y[k + 1, k + 1] += y11
        y[k, k + 1] += y12
        y[k + 1, k] += y12
    y[0, 0] += 1j * omega * design.c_shunt
    y[n - 1, n - 1] += 1.0 / environment_impedance(env, omega)
    keep, drop = [0], list(range(1, n))
    y_kk = y[np.ix_(keep, keep)]
    y_kd = y[np.ix_(keep, drop)]
    y_dk = y[np.ix_(drop, keep)]
    y_dd = y[np.ix_(drop, drop)]
    reduced = y_kk - y_kd @ np.linalg.solve(y_dd, y_dk)
    return complex(reduced[0, 0])


def test_idler_admittance_against_node_elimination_oracle():
    design = paper_device()
    env = paper_env()
    w_nr = design.resonance_at_bias(PAPER_DEVICE_BIAS)
    for omega in (w_nr, 0.93 * w_nr, 1.08 * w_nr):
        for e in (IDEAL_ENV, env):
            oracle = _nodal_elimination_oracle(design, e, omega)
            lib = idler_admittance(design, e, omega)
            assert lib == pytest.approx(oracle, rel=1e-9)


def test_idler_admittance_frozen_value():
    # full fabricated design at its biased resonance, ideal environment
    design = paper_device()
    w_nr = design.resonance_at_bias(PAPER_DEVICE_BIAS)
    y = idler_admittance(design, IDEAL_ENV, w_nr)
    oracle = _nodal_elimination_oracle(design, IDEAL_ENV, w_nr)
    assert y == pytest.approx(oracle, rel=1e-9)
    # snapshot (from the oracle) guards against silent topology changes
    assert y == pytest.approx(0.00138080348845 + 0.01689337928160j, rel=1e-9)


def test_chain_impedance_vs_abcd():
    design = paper_device()
    ws = TWO_PI * np.linspace(7.8e9, 9.2e9, 7)
    a, b, c, d = port_line_abcd(design, ws)
    # ABCD cascade terminated by the source, seen from the node, must match
    # the stepwise line transform: invert the (reciprocal, det=1) cascade
    z_src = np.full(ws.shape, 50.0, dtype=complex)
    z_from_node = (d * z_src + b) / (c * z_src + a)
    stepwise = chain_impedance_from_node(design, IDEAL_ENV, ws)
    np.testing.assert_allclose(z_from_node, stepwise, rtol=1e-10)


def test_design_validation():
    model = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0)
    good = dict(z_quarter=80.0, z_half=30.0, z_ki_quarter=180.0, c_shunt=330e-15,
                ki_model=model, f0=W84)
    DesignSpec(**good)
    # each line impedance, the shunt and the layout frequency must be > 0
    for field in ("z_quarter", "z_half", "z_ki_quarter", "c_shunt", "f0"):
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameter, match=f"^{field} must be > 0$"):
                DesignSpec(**{**good, field: value})


def test_conventional_design_has_two_lines():
    model = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0)
    design = DesignSpec(60.0, 40.0, None, 1e-12, model, W84)
    assert design.circuit_kind == "conventional"
    assert len(design.lines_node_to_port()) == 2
    assert DesignSpec(60.0, 40.0, 180.0, 1e-12, model, W84).circuit_kind == "three-stage"


def test_design_lines_follow_the_layout_frequency():
    # node to port: the kinetic-inductance quarter wave, then the half and
    # the port quarter wave, all at the design's f0
    design = paper_device()
    lines = design.lines_node_to_port()
    assert [(s.z_c, s.length_fraction, s.f_ref) for s in lines] == [
        (180.0, 0.25, design.f0), (30.0, 0.5, design.f0), (80.0, 0.25, design.f0)]
    assert design.lines_node_to_port() is lines   # built once per design


def _identity_start_abcd(design, omega):
    """The line cascade as a product that starts from the identity matrix."""
    w = np.asarray(omega, dtype=float)
    a, b = np.ones(w.shape, dtype=complex), np.zeros(w.shape, dtype=complex)
    c, d = np.zeros(w.shape, dtype=complex), np.ones(w.shape, dtype=complex)
    for seg in reversed(design.lines_node_to_port()):
        th = seg.electrical_length(w)
        ca, sa = np.cos(th), np.sin(th)
        la, lb, lc, ld = ca, 1j * seg.z_c * sa, 1j * sa / seg.z_c, ca
        a, b, c, d = (a * la + b * lc, a * lb + b * ld,
                      c * la + d * lc, c * lb + d * ld)
    return a, b, c, d


def _segment_by_segment_chain(design, env, omega):
    """The outward chain with every segment computing its own cos and sin."""
    z = environment_impedance(env, omega)
    for seg in reversed(design.lines_node_to_port()):
        z = input_impedance(seg, z, omega)
    return z


def _same_bits(got, want):
    """Equal bit for bit, signed zeros included."""
    got, want = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (got, want))
    return np.array_equal(got.view(np.int64), want.view(np.int64))


def _lean_build_designs():
    for z_ki in (150.0, None):   # three-stage, conventional
        for z14, z12 in ((30.0, 100.0), (60.0, 80.0)):
            model = KineticInductorModel("parabolic", l_k0=1e-9, l_geo=0.0)
            yield DesignSpec(z14, z12, z_ki, 0.2e-12, model, TWO_PI * 8e9)
    yield paper_device()


@pytest.mark.parametrize("design", list(_lean_build_designs()))
def test_row_build_equals_identity_start_and_per_segment_trig(design):
    # spans several multiples of the design frequency, where cos and sin
    # change sign, plus exact multiples of it
    ws = TWO_PI * np.concatenate([np.arange(1e6, 33e9, 7.3e6), [4e9, 8e9, 16e9, 24e9]])
    for got, want in zip(port_line_abcd(design, ws), _identity_start_abcd(design, ws)):
        assert _same_bits(got, want)
    for env in (IDEAL_ENV, paper_env()):
        assert _same_bits(chain_impedance_from_node(design, env, ws),
                          _segment_by_segment_chain(design, env, ws))
        assert _same_bits(chain_impedance_from_node(design, env, W84),
                          _segment_by_segment_chain(design, env, W84))
