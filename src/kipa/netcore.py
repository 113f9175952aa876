"""Exact linear two-port network arithmetic for lossless transmission lines.

Impedances and admittances are plain ``complex`` values in ohms/siemens;
angular frequencies are rad/s throughout.  An open circuit is represented
by the :data:`OPEN` sentinel rather than an infinity, so downstream code
can branch on it without overflow surprises.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from .errors import InvalidParameter, SingularReflection

_QUARTER_WAVE_EPS = 1e-12


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

Immittance = Union[complex, _OpenCircuit]


@dataclass(frozen=True)
class TransmissionLineSegment:
    """Lossless, dispersionless line.

    z_c : characteristic impedance, ohms (> 0)
    length_fraction : fraction of a wavelength at ``f_ref`` (0.25 = quarter wave)
    f_ref : angular frequency (rad/s) at which ``length_fraction`` holds
    """

    z_c: float
    length_fraction: float
    f_ref: float

    def __post_init__(self):
        if not (self.z_c > 0):
            raise InvalidParameter(f"characteristic impedance must be > 0, got {self.z_c}")
        if not (self.length_fraction > 0):
            raise InvalidParameter(f"length fraction must be > 0, got {self.length_fraction}")
        if not (self.f_ref > 0):
            raise InvalidParameter(f"reference frequency must be > 0, got {self.f_ref}")

    def electrical_length(self, omega):
        """θ(ω) = 2π · length_fraction · ω/f_ref, radians."""
        return 2.0 * np.pi * self.length_fraction * (omega / self.f_ref)


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


def terminate(matrix: TwoPortMatrix, z_load: Immittance) -> Immittance:
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


def input_impedance(line: TransmissionLineSegment, z_load: Immittance, omega,
                    trig=None) -> Immittance:
    """Impedance seen through ``line`` toward ``z_load`` at ω.

    General form z_c(Z_L + i z_c tanθ)/(z_c + i Z_L tanθ), evaluated in the
    cos/sin form for stability.  Within 1e-12 of a quarter wave the exact
    inverter limit z_c²/Z_L is returned; a shorted quarter wave maps to
    :data:`OPEN`.  Accepts arrays for ω when ``z_load`` is a finite scalar
    or matching array.  ``trig`` is (cos θ, sin θ) at ω, when the caller
    has them already.
    """
    if not np.all(np.asarray(omega) > 0):
        raise InvalidParameter("omega must be > 0")
    if trig is None:
        theta = line.electrical_length(omega)
        trig = np.cos(theta), np.sin(theta)
    c, s = trig

    if np.ndim(c) == 0:
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

    if z_load is OPEN:
        raise InvalidParameter("array evaluation requires a finite load")
    zl = np.asarray(z_load, dtype=complex)
    return line.z_c * (zl * c + 1j * line.z_c * s) / (line.z_c * c + 1j * zl * s)


def reflection_coefficient(z_in: Immittance, z_ref: complex, power_wave: bool = True):
    """Reflection coefficient of ``z_in`` against reference ``z_ref``.

    Power-wave convention (z_in - z_ref*)/(z_in + z_ref) by default; with
    ``power_wave=False`` the traveling-wave form (z_in - z_ref)/(z_in + z_ref)
    is used instead, which is the convention that produces amplitude ripple
    against a complex reference.  Both reduce to the same expression for a
    real reference.  Gain in dB is 20·log10|Γ|.
    """
    if z_in is OPEN:
        return 1.0 + 0.0j
    num_ref = np.conj(z_ref) if power_wave else z_ref
    den = z_in + z_ref
    if np.isscalar(den) or np.asarray(den).ndim == 0:
        if den == 0:
            raise SingularReflection(f"z_in = -z_ref = {z_in}: reflection diverges")
        return complex((z_in - num_ref) / den)
    return (z_in - num_ref) / den
