"""Scalar two-port algebra: the reference the line transform is checked against.

Exact ABCD matrices, cascades, terminations and reflection coefficients of
lossless networks, one frequency at a time.  An open circuit is the
:data:`OPEN` sentinel rather than an infinity, and the scalar line
transform returns the exact limits at quarter and half waves.  kipa's
network runs on ``kipa.netcore.input_impedance`` and ``ReflectionEngine``;
this module only serves the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from kipa.errors import InvalidParameter, NumericalError
from kipa.netcore import TransmissionLineSegment

_QUARTER_WAVE_EPS = 1e-12


class SingularReflection(NumericalError):
    """z_in = -z_ref: reflection coefficient diverges (oscillation threshold)."""


class _OpenCircuit:
    """Singleton marker for an infinite impedance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OPEN"


OPEN = _OpenCircuit()


@dataclass(frozen=True)
class TwoPortMatrix:
    """ABCD matrix; ``b`` in ohms, ``c`` in siemens."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        return TwoPortMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


IDENTITY = TwoPortMatrix(1.0, 0.0, 0.0, 1.0)


def elementary_two_port(kind, value, omega) -> TwoPortMatrix:
    """ABCD matrix of a series impedance, shunt admittance, or line segment."""
    if not omega > 0:
        raise InvalidParameter(f"omega must be > 0, got {omega}")
    if kind == "series-impedance":
        return TwoPortMatrix(1.0, complex(value), 0.0, 1.0)
    if kind == "shunt-admittance":
        return TwoPortMatrix(1.0, 0.0, complex(value), 1.0)
    if kind == "line":
        if not isinstance(value, TransmissionLineSegment):
            raise InvalidParameter("line kind requires a TransmissionLineSegment")
        theta = value.electrical_length(omega)
        c, s = np.cos(theta), np.sin(theta)
        return TwoPortMatrix(c, 1j * value.z_c * s, 1j * s / value.z_c, c)
    raise InvalidParameter(f"unknown two-port kind {kind!r}")


def cascade(matrices) -> TwoPortMatrix:
    """Ordered product of ABCD matrices, port-1 side first."""
    matrices = list(matrices)
    if not matrices:
        raise InvalidParameter("cascade of an empty list")
    return reduce(lambda m, n: m @ n, matrices)


def terminate(matrix: TwoPortMatrix, z_load):
    """Input impedance of a two-port terminated by ``z_load``."""
    if z_load is OPEN:
        if matrix.c == 0:
            return OPEN
        return matrix.a / matrix.c
    num = matrix.a * z_load + matrix.b
    den = matrix.c * z_load + matrix.d
    if den == 0:
        return OPEN
    return num / den


def input_impedance(line: TransmissionLineSegment, z_load, omega):
    """Impedance seen through ``line`` toward ``z_load`` at one ω.

    Within 1e-12 of a quarter wave the exact inverter limit z_c²/Z_L is
    returned; a shorted quarter wave and an open half wave map to
    :data:`OPEN`.
    """
    if not omega > 0:
        raise InvalidParameter("omega must be > 0")
    theta = line.electrical_length(omega)
    c, s = np.cos(theta), np.sin(theta)
    if z_load is OPEN:
        if abs(s) < _QUARTER_WAVE_EPS:
            return OPEN
        return complex(line.z_c * c / (1j * s))
    if abs(c) < _QUARTER_WAVE_EPS:
        if z_load == 0:
            return OPEN
        return complex(line.z_c**2 / z_load)
    return complex(
        line.z_c * (z_load * c + 1j * line.z_c * s) / (line.z_c * c + 1j * z_load * s)
    )


def reflection_coefficient(z_in, z_ref: complex):
    """Power-wave reflection coefficient (z_in - z_ref*)/(z_in + z_ref).

    Gain in dB is 20·log10|Γ|.
    """
    if z_in is OPEN:
        return 1.0 + 0.0j
    den = z_in + z_ref
    if den == 0:
        raise SingularReflection(f"z_in = -z_ref = {z_in}: reflection diverges")
    return complex((z_in - np.conj(z_ref)) / den)
