"""The lossless transmission-line transform of the amplifier network.

Impedances are complex values in ohms; angular frequencies are rad/s
throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter


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


def input_impedance(line: TransmissionLineSegment, z_load, omega, trig=None):
    """Impedance seen through ``line`` toward the finite load ``z_load`` at ω.

    z_c(Z_L + i z_c tanθ)/(z_c + i Z_L tanθ), evaluated in the cos/sin form
    z_c(Z_L·cosθ + i z_c·sinθ)/(z_c·cosθ + i Z_L·sinθ).  ω and ``z_load``
    may be scalars or matching arrays; a scalar gives an ``np.complex128``.
    ``trig`` is (cos θ, sin θ) at ω, when the caller has them already.
    """
    if not np.all(np.asarray(omega) > 0):
        raise InvalidParameter("omega must be > 0")
    if trig is None:
        theta = line.electrical_length(omega)
        trig = np.cos(theta), np.sin(theta)
    c, s = trig
    zl = np.asarray(z_load, dtype=complex)
    return line.z_c * (zl * c + 1j * line.z_c * s) / (line.z_c * c + 1j * zl * s)
