import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kipa.errors import InvalidParameter
from kipa.netcore import TransmissionLineSegment, input_impedance
from twoport_reference import (
    IDENTITY,
    OPEN,
    SingularReflection,
    TwoPortMatrix,
    cascade,
    elementary_two_port,
    reflection_coefficient,
    terminate,
)
from twoport_reference import input_impedance as scalar_input_impedance

W0 = 2 * np.pi * 8e9


def quarter(z_c, f_ref=W0):
    return TransmissionLineSegment(z_c, 0.25, f_ref)


def test_series_zero_impedance_is_identity():
    m = elementary_two_port("series-impedance", 0.0, W0)
    assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)


def test_half_wave_line_is_minus_identity():
    line = TransmissionLineSegment(70.0, 0.5, W0)
    m = elementary_two_port("line", line, W0)
    assert m.a == pytest.approx(-1.0, abs=1e-12)
    assert m.d == pytest.approx(-1.0, abs=1e-12)
    assert abs(m.b) < 1e-9
    assert abs(m.c) < 1e-12


def test_quarter_wave_line_entries():
    # direct evaluation of the lossless-line ABCD at theta = pi/2
    m = elementary_two_port("line", quarter(180.0), W0)
    assert abs(m.a) < 1e-12
    assert m.b == pytest.approx(180j, abs=1e-9)
    assert m.c == pytest.approx(1j / 180, abs=1e-15)
    assert abs(m.d) < 1e-12


def test_lossless_elements_are_unimodular():
    for theta_frac in (0.1, 0.25, 0.37, 0.5):
        line = TransmissionLineSegment(63.0, theta_frac, W0)
        m = elementary_two_port("line", line, 1.3 * W0)
        assert m.determinant() == pytest.approx(1.0, abs=1e-9)
    m = elementary_two_port("shunt-admittance", 0.01j, W0)
    assert m.determinant() == pytest.approx(1.0, abs=1e-12)


def test_cascade_identity_and_inverse():
    assert cascade([IDENTITY]) == IDENTITY
    m = TwoPortMatrix(1.0, 25j, 0.004j, 1.0)
    det = m.determinant()
    minv = TwoPortMatrix(m.d / det, -m.b / det, -m.c / det, m.a / det)
    prod = cascade([m, minv])
    assert prod.a == pytest.approx(1.0, abs=1e-12)
    assert abs(prod.b) < 1e-9
    assert abs(prod.c) < 1e-12
    assert prod.d == pytest.approx(1.0, abs=1e-12)


def test_cascade_of_two_quarter_waves_matches_repeated_transform():
    # two quarter-wave lines == one composite checked against input_impedance twice
    za, zb = quarter(80.0), quarter(30.0)
    z_load = 42.0 - 13j
    for w in (0.8 * W0, W0, 1.15 * W0):
        m = cascade([elementary_two_port("line", za, w),
                     elementary_two_port("line", zb, w)])
        direct = terminate(m, z_load)
        stepwise = input_impedance(za, input_impedance(zb, z_load, w), w)
        assert direct == pytest.approx(stepwise, rel=1e-12)


def test_cascade_empty_rejected():
    with pytest.raises(InvalidParameter):
        cascade([])


def test_cascade_associativity():
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(3):
        line = TransmissionLineSegment(rng.uniform(20, 150), rng.uniform(0.05, 0.6), W0)
        mats.append(elementary_two_port("line", line, W0 * rng.uniform(0.5, 1.5)))
    left = cascade([cascade(mats[:2]), mats[2]])
    right = cascade([mats[0], cascade(mats[1:])])
    for attr in "abcd":
        assert getattr(left, attr) == pytest.approx(getattr(right, attr), rel=1e-12)


def test_matched_line_invariance():
    line = quarter(50.0)
    for w in np.linspace(0.3 * W0, 2.7 * W0, 17):
        z = input_impedance(line, 50.0 + 0j, w)
        assert z == pytest.approx(50.0, rel=1e-12)


def test_quarter_wave_inverter_transform():
    assert input_impedance(quarter(180.0), 60.0 + 0j, W0) == pytest.approx(540.0, rel=1e-12)


def test_inverter_identity():
    for z_load in (10 + 5j, 200.0 + 0j, 3 - 40j):
        z_in = input_impedance(quarter(95.0), z_load, W0)
        assert z_in * z_load == pytest.approx(95.0**2, rel=1e-12)


def test_half_wave_identity():
    line = TransmissionLineSegment(30.0, 0.5, W0)
    assert input_impedance(line, 10 + 5j, W0) == pytest.approx(10 + 5j, rel=1e-12)


def test_half_wave_periodicity():
    line = TransmissionLineSegment(75.0, 0.31, W0)  # theta = 0.62*pi at W0
    z_load = 28.0 - 11j
    w1 = W0
    w2 = W0 * (0.31 + 0.5) / 0.31  # theta shifted by exactly pi
    z1 = input_impedance(line, z_load, w1)
    z2 = input_impedance(line, z_load, w2)
    assert z1 == pytest.approx(z2, rel=1e-12)


def test_open_circuit_transforms():
    # shorted quarter wave looks open; open quarter wave looks shorted
    assert scalar_input_impedance(quarter(180.0), 0.0, W0) is OPEN
    assert scalar_input_impedance(quarter(180.0), OPEN, W0) == pytest.approx(0.0, abs=1e-9)
    # open half-wave stays open
    half = TransmissionLineSegment(70.0, 0.5, W0)
    assert scalar_input_impedance(half, OPEN, W0) is OPEN
    # open stub away from resonance is a pure reactance
    z = scalar_input_impedance(TransmissionLineSegment(60.0, 0.125, W0), OPEN, W0)
    assert z.real == pytest.approx(0.0, abs=1e-9)
    assert z.imag == pytest.approx(-60.0, rel=1e-12)  # -i z_c cot(pi/4)


def test_reflection_matched():
    assert reflection_coefficient(50.0 + 0j, 50.0) == 0


def test_reflection_reactive_full():
    for x in (1e-3, 17.0, 4e4):
        assert abs(reflection_coefficient(1j * x, 50.0)) == pytest.approx(1.0, rel=1e-12)


def test_reflection_negative_resistance_gain():
    gamma = reflection_coefficient(-25.0 + 0j, 50.0)
    assert gamma == pytest.approx(-3.0)
    assert 20 * np.log10(abs(gamma)) == pytest.approx(9.5424, abs=1e-3)


def test_reflection_singular():
    with pytest.raises(SingularReflection):
        reflection_coefficient(-50.0 + 0j, 50.0)


def test_reflection_power_wave_passivity_complex_reference():
    # reactive load against a complex reference still has |Gamma| = 1
    rng = np.random.default_rng(3)
    for _ in range(200):
        z_ref = complex(rng.uniform(5, 200), rng.uniform(-80, 80))
        z_in = 1j * rng.uniform(-500, 500)
        assert abs(reflection_coefficient(z_in, z_ref)) == pytest.approx(1.0, rel=1e-9)


def test_reflection_open_is_unity():
    assert reflection_coefficient(OPEN, 50.0) == 1.0


def test_passivity_random_lossless_networks():
    # lossless lines + pure reactances with a reactive termination reflect fully
    rng = np.random.default_rng(11)
    for _ in range(300):
        w = W0 * rng.uniform(0.5, 1.6)
        mats = []
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(0, 3)
            if kind == 0:
                seg = TransmissionLineSegment(rng.uniform(15, 200), rng.uniform(0.05, 0.7), W0)
                mats.append(elementary_two_port("line", seg, w))
            elif kind == 1:
                mats.append(elementary_two_port("series-impedance", 1j * rng.uniform(-300, 300), w))
            else:
                mats.append(elementary_two_port("shunt-admittance", 1j * rng.uniform(-0.1, 0.1), w))
        z_term = 1j * rng.uniform(-400, 400)
        z_in = terminate(cascade(mats), z_term)
        if z_in is OPEN:
            continue
        assert abs(reflection_coefficient(z_in, 50.0)) == pytest.approx(1.0, rel=1e-9)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameter):
        TransmissionLineSegment(-5.0, 0.25, W0)
    with pytest.raises(InvalidParameter):
        TransmissionLineSegment(50.0, 0.0, W0)
    with pytest.raises(InvalidParameter):
        elementary_two_port("line", quarter(50.0), -W0)
    with pytest.raises(InvalidParameter):
        elementary_two_port("resistor", 5.0, W0)


def test_array_evaluation_matches_scalar():
    line = quarter(80.0)
    ws = np.linspace(0.7 * W0, 1.3 * W0, 11)
    z_arr = input_impedance(line, 60.0 + 0j, ws)
    for w, z in zip(ws, z_arr):
        assert z == pytest.approx(scalar_input_impedance(line, 60.0 + 0j, w), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(z_c=st.floats(10.0, 250.0), r=st.floats(1.0, 250.0), x=st.floats(-250.0, 250.0),
       fraction=st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.05, 1.0)),
       ratio=st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 3.0)))
def test_input_impedance_matches_scalar_reference(z_c, r, x, fraction, ratio):
    # fractions 0.25 and 0.5 at ω/f_ref = 1, 2, 3 land on exact quarter- and
    # half-wave points, where the reference returns the exact limits
    line = TransmissionLineSegment(z_c, fraction, W0)
    z_load, w = complex(r, x), W0 * ratio
    z = input_impedance(line, z_load, w)
    assert isinstance(z, complex)
    assert z == pytest.approx(scalar_input_impedance(line, z_load, w), rel=1e-12)
    # a scalar and a one-point array run the same arithmetic
    assert input_impedance(line, np.array([z_load]), np.array([w]))[0] == z
