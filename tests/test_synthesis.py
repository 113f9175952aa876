import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kipa.errors import InvalidParameter, SynthesisInfeasible
from kipa.synthesis import (
    GETSINGER_17DB,
    PrototypeCoefficients,
    _half_wave_quadratic_coeffs,
    predict_fractional_bandwidth,
    prototype,
    synthesize_transformer,
    transform_nr,
)

WORKED = dict(proto=prototype(500.0 / 8000.0), z_nr=60.0, z_ki=180.0, z0=50.0)


def test_transform_nr_inverts_through_the_line():
    out = transform_nr(180.0, 60.0, 100.0)
    assert out["z_nr_primed"] == pytest.approx(540.0, rel=1e-12)
    assert out["r_nr_primed"] == pytest.approx(324.0, rel=1e-12)


def test_transform_nr_fixed_point():
    out = transform_nr(75.0, 75.0, 75.0)
    assert out["z_nr_primed"] == pytest.approx(75.0)
    assert out["r_nr_primed"] == pytest.approx(75.0)


def test_transform_nr_direct_value():
    assert transform_nr(150.0, 75.0, 75.0)["z_nr_primed"] == pytest.approx(300.0)


def test_worked_example_element_values():
    res = synthesize_transformer(WORKED["proto"], WORKED["z_nr"], WORKED["z_ki"], WORKED["z0"])
    assert res.z_ref == pytest.approx(82.7, abs=0.1)
    assert res.z_quarter == pytest.approx(67.6, abs=0.1)
    assert res.z_parallel == pytest.approx(22.09, abs=0.05)
    assert res.z_half == pytest.approx(33.9, abs=0.2)
    assert res.z_nr_primed == pytest.approx(540.0, rel=1e-12)
    assert res.r_nr_primed == pytest.approx(res.z_ref, rel=1e-12)


def test_worked_example_quadratic_root_oracle():
    # numerically re-solve the half-wave quadratic both ways: only the
    # z_parallel = eps*z_ref/g2 value reproduces the 33.9-ohm line; the
    # tenfold-larger slope impedance does not
    res = synthesize_transformer(WORKED["proto"], WORKED["z_nr"], WORKED["z_ki"], WORKED["z0"])
    z0p = res.z_quarter**2 / 50.0

    def roots_for(z_parallel):
        b = res.z_quarter / 2 - res.z_quarter * z0p / 100.0 + 2 * z0p**2 / (math.pi * z_parallel)
        return np.roots([1.0, b, -z0p**2])

    good = roots_for(res.z_parallel)
    good_pos = max(good.real)
    assert good_pos == pytest.approx(res.z_half, rel=1e-9)
    assert min(good.real) <= 0  # discarded root is non-positive
    slipped = roots_for(10 * res.z_parallel)
    assert abs(max(slipped.real) - 33.9) / 33.9 > 0.10


def test_residual_is_tiny():
    res = synthesize_transformer(WORKED["proto"], WORKED["z_nr"], WORKED["z_ki"], WORKED["z0"])
    assert abs(res.residual) < 1e-9 * res.z_ref**2


_SCALES = st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None)
@given(g=st.tuples(_SCALES, _SCALES, _SCALES), eps=st.floats(1e-9, 0.499),
       z_nr=_SCALES, z_ki=_SCALES, z0=_SCALES)
def test_half_wave_discriminant_is_at_least_b_squared(g, eps, z_nr, z_ki, z0):
    # c = -(z_quarter^2/z0)^2 <= 0, so b^2 - 4c adds a non-negative float to
    # b^2 and rounds to no less: the quadratic always has real roots, and
    # synthesize_transformer needs no check that it has
    g1, g2, g3 = g
    z_ref = eps * (z_ki**2 / z_nr) / g1
    z_quarter, z_parallel = math.sqrt(g3 * z_ref * z0), eps * z_ref / g2
    assume(math.isfinite(z_quarter) and z_parallel > 0)
    try:
        b, c = _half_wave_quadratic_coeffs(z_quarter, z_parallel, z0)
    except SynthesisInfeasible:   # a coefficient overflows
        return
    assert c <= 0
    assert b * b - 4.0 * c >= b * b


def test_vanishing_bandwidth_flagged():
    # a bandwidth of 1e-9 still synthesizes; at 1e-300, z_parallel underflows to 0
    assert synthesize_transformer(prototype(1e-9), 60.0, 180.0, 50.0).z_half > 0
    with pytest.raises(SynthesisInfeasible, match="vanishing bandwidth: z_parallel"):
        synthesize_transformer(prototype(1e-300), 60.0, 180.0, 50.0)


def test_prototype_validation():
    with pytest.raises(InvalidParameter):
        PrototypeCoefficients(1.0, -0.4, 0.2, 1.1, 0.06)
    with pytest.raises(InvalidParameter):
        PrototypeCoefficients(1.0, 0.4, 0.2, 1.1, 0.7)


def test_bandwidth_prediction_worked_example():
    eps = predict_fractional_bandwidth(GETSINGER_17DB[1], 540.0, 82.7)
    assert eps == pytest.approx(0.0625, abs=2e-4)


def test_bandwidth_prediction_scalings():
    base = predict_fractional_bandwidth(0.408, 540.0, 82.7)
    assert predict_fractional_bandwidth(0.816, 540.0, 82.7) == pytest.approx(2 * base, rel=1e-12)
    # halving the node resistance (stronger pump) doubles r_nr_primed, hence epsilon
    assert predict_fractional_bandwidth(0.408, 540.0, 2 * 82.7) == pytest.approx(2 * base, rel=1e-12)


def test_round_trip_synthesis_to_simulation():
    # feeding the synthesized element values into the reflection simulator at
    # the synthesis pump level (the drive that realizes the design negative
    # resistance) recovers the target fractional bandwidth within 35%; the
    # small-detuning approximations in the synthesis make it no tighter, and
    # at the matched design point the band's two poles merge into one
    # flat-topped span rather than two separately resolved peaks
    import numpy as np
    from scipy.optimize import brentq

    from kipa.circuits import IDEAL_ENV, DesignSpec
    from kipa.material import KineticInductorModel
    from kipa.simulator import ReflectionEngine, bandwidth_report

    two_pi = 2 * math.pi
    eps = 0.0625
    res = synthesize_transformer(prototype(eps), 60.0, 180.0, 50.0)
    w0 = two_pi * 8e9
    model = KineticInductorModel("parabolic", l_k0=60.0 / w0, l_geo=0.0)
    design = DesignSpec(res.z_quarter, res.z_half, 180.0, 1.0 / (w0 * 60.0), model, w0)
    ws = np.arange(w0 - two_pi * 1.3e9, w0 + two_pi * 1.3e9, two_pi * 2e6)
    engine = ReflectionEngine(design, IDEAL_ENV, [(ws, 2 * w0)], [0.0])

    # design pump: node negative resistance equal to z_ki^2 / z_ref
    r_nr_design = 180.0**2 / res.r_nr_primed
    center = np.argmin(np.abs(ws - w0))

    def mismatch(alpha):
        return engine._y_eff(alpha, slice(None))[0][center].real + 1.0 / r_nr_design

    alpha_design = brentq(mismatch, 1e-6, 0.4)
    gdb = engine.gain_db(alpha_design)
    rep = bandwidth_report(ws, gdb)
    frac = rep.bandwidth / w0
    assert rep.contiguous_span[0] < w0 < rep.contiguous_span[1]
    assert abs(frac - eps) / eps < 0.35


def test_z_ref_monotonicity():
    eps_vals = (0.03, 0.05, 0.08, 0.12)
    refs = [synthesize_transformer(prototype(e), 60.0, 180.0, 50.0).z_ref for e in eps_vals]
    assert all(b > a for a, b in zip(refs, refs[1:]))
    znr_vals = (40.0, 60.0, 90.0)
    refs = [synthesize_transformer(prototype(0.0625), z, 180.0, 50.0).z_ref for z in znr_vals]
    assert all(b < a for a, b in zip(refs, refs[1:]))
