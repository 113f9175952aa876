"""Two-frequency linearization of a parametrically modulated inductor.

The modulated inductor couples the signal current at ω_s to the idler
current at -ω_i (ω_p = ω_s + ω_i).  These routines expose the coupled
impedance matrix, the amplification-inverter parameters, and the reduction
to a single effective admittance whose real part can be negative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInverter,
    InvalidParameter,
    NoGain,
    PoleAtOperatingPoint,
)


@dataclass(frozen=True)
class ModulatedInductor:
    """Inductor L(t) = l0 + Re[delta_l · e^{iω_p t}].

    alpha = |delta_l|²/(4·l0²) must stay below 1 so that the reduced
    inductance l0_prime = l0(1-alpha) remains positive.
    """

    l0: float
    delta_l: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not self.l0 > 0:
            raise InvalidParameter("l0 must be > 0")
        if not self.alpha < 1.0:
            raise InvalidParameter(f"modulation strength alpha={self.alpha:.3g} must be < 1")

    @property
    def alpha(self) -> float:
        return abs(self.delta_l) ** 2 / (4.0 * self.l0**2)

    @property
    def l0_prime(self) -> float:
        return self.l0 * (1.0 - self.alpha)

    @classmethod
    def from_alpha(cls, l0: float, alpha: float, phase: float = 0.0) -> "ModulatedInductor":
        if alpha < 0:
            raise InvalidParameter("alpha must be >= 0")
        return cls(l0, 2.0 * l0 * np.sqrt(alpha) * np.exp(1j * phase))


@dataclass(frozen=True)
class SignalIdlerPair:
    """Signal/idler frequency pair; ω_p = ω_s + ω_i holds by construction."""

    omega_s: float
    omega_i: float

    def __post_init__(self):
        if not (self.omega_s > 0 and self.omega_i > 0):
            raise InvalidParameter("signal and idler frequencies must be > 0")

    @property
    def omega_p(self) -> float:
        return self.omega_s + self.omega_i

    @classmethod
    def from_pump(cls, omega_s: float, omega_p: float) -> "SignalIdlerPair":
        return cls(omega_s, omega_p - omega_s)


def signal_idler_impedance_matrix(ind: ModulatedInductor, pair: SignalIdlerPair) -> np.ndarray:
    """2×2 impedance matrix in the (I_s, I_i*) basis."""
    ws, wi = pair.omega_s, pair.omega_i
    return np.array(
        [
            [1j * ws * ind.l0, 1j * ws * ind.delta_l / 2.0],
            [-1j * wi * np.conj(ind.delta_l) / 2.0, -1j * wi * ind.l0],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class AmplificationInverter:
    j_s: complex  # siemens
    j_i: complex  # siemens


def amplification_inverter(ind: ModulatedInductor, pair: SignalIdlerPair) -> AmplificationInverter:
    """Inverter parameters J_k = sqrt(alpha)·e^{iφ}/(ω_k·l0') for k = s, i."""
    alpha = ind.alpha
    if alpha == 0:
        raise DegenerateInverter("unmodulated inductor has no amplification inverter")
    phase = np.exp(1j * np.angle(ind.delta_l))
    root = np.sqrt(alpha)
    lp = ind.l0_prime
    return AmplificationInverter(
        j_s=complex(root * phase / (pair.omega_s * lp)),
        j_i=complex(root * phase / (pair.omega_i * lp)),
    )


def effective_admittance(ind: ModulatedInductor, pair: SignalIdlerPair, y_idler):
    """Effective signal-frequency admittance of the pumped inductor.

    Y_eff(ω_s) = (1/(iω_s l0'))·[1 + alpha/(iω_i l0' Y_idler*(ω_i) - 1)]

    ``y_idler`` is the admittance of the idler-side embedding at +ω_i, seen
    from the inductor node and excluding the inductor itself; the conjugate
    (evaluation at -ω_i) is taken here.  Accepts arrays.
    """
    lp = ind.l0_prime
    den = 1j * pair.omega_i * lp * np.conj(y_idler) - 1.0
    if np.any(den == 0):
        raise PoleAtOperatingPoint("idler denominator vanished: oscillation threshold")
    return (1.0 / (1j * pair.omega_s * lp)) * (1.0 + ind.alpha / den)


def negative_resistance(y_eff) -> float:
    """R_NR = -1/Re[Y_eff] for an operating point with gain."""
    re = np.real(y_eff)
    if re >= 0:
        raise NoGain(f"Re[Y_eff] = {re:.4g} S >= 0: no negative resistance")
    return float(-1.0 / re)
