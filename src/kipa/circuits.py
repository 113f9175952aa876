"""Amplifier network descriptions and the ladder arithmetic built on them.

A design is the physical reflection circuit: source, impedance-transformer
lines, and the nonlinear resonator (shunt capacitor + kinetic inductor).
The environment generalizes the 50 Ω source to a rippled impedance made of
superimposed sinusoids.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameter, SingularNetwork, UnphysicalEnvironment
from .material import KineticInductorModel, kinetic_inductance
from .netcore import TransmissionLineSegment, input_impedance

CIRCUIT_KINDS = ("three-stage", "conventional")


def circuit_kind_of(z_ki_quarter: Optional[float]) -> str:
    """Conventional exactly when there is no high-impedance quarter-wave line."""
    return "conventional" if z_ki_quarter is None else "three-stage"


@dataclass(frozen=True)
class EnvironmentModel:
    """Source impedance z0 plus sinusoidal ripple terms (z_n, tau_n, phi_n).

    Z_env(ω) = z0 + Σ z_n · exp(i(ω·τ_n + φ_n)); an empty term list is the
    ideal flat environment.
    """

    z0: float = 50.0
    terms: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not self.z0 > 0:
            raise InvalidParameter("environment z0 must be > 0")
        if len(self.terms) > 2:
            raise InvalidParameter("at most two ripple terms are supported")
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))


IDEAL_ENV = EnvironmentModel()


def environment_impedance(env: EnvironmentModel, omega):
    """Z_env(ω); raises if the real part is not positive at any requested ω."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise InvalidParameter("omega must be >= 0")
    z = np.full(w.shape, env.z0, dtype=complex)
    for zn, tau, phi in env.terms:
        z = z + zn * np.exp(1j * (w * tau + phi))
    if np.any(z.real <= 0):
        raise UnphysicalEnvironment("environment impedance has Re <= 0 in the band")
    return complex(z[()]) if z.ndim == 0 else z


@dataclass(frozen=True)
class DesignSpec:
    """Reflection amplifier: transformer lines plus the nonlinear resonator.

    From the port inward, a quarter-wave line of ``z_quarter``, a half-wave
    line of ``z_half`` and, in the three-stage kind, a high-impedance
    quarter-wave line of ``z_ki_quarter`` lead to the shunt-C /
    modulated-inductor node; ``z_ki_quarter=None`` is the conventional
    kind, which omits that last line.  ``f0`` is the angular layout
    frequency at which the line lengths are quarter and half waves.
    """

    z_quarter: float
    z_half: float
    z_ki_quarter: Optional[float]
    c_shunt: float
    ki_model: KineticInductorModel
    f0: float

    def __post_init__(self):
        for name in ("z_quarter", "z_half", "z_ki_quarter", "c_shunt", "f0"):
            value = getattr(self, name)
            if value is not None and not value > 0:   # only z_ki_quarter may be None
                raise InvalidParameter(f"{name} must be > 0")
        layout = ((self.z_ki_quarter, 0.25), (self.z_half, 0.5), (self.z_quarter, 0.25))
        object.__setattr__(self, "_lines", tuple(
            TransmissionLineSegment(z, fraction, self.f0)
            for z, fraction in layout if z is not None))

    @property
    def circuit_kind(self) -> str:
        return circuit_kind_of(self.z_ki_quarter)

    def lines_node_to_port(self) -> Tuple[TransmissionLineSegment, ...]:
        """Segments in order from the resonator node out to the port."""
        return self._lines

    def inductance_at_bias(self, i_dc: float) -> float:
        return kinetic_inductance(self.ki_model, i_dc)

    def resonance_at_bias(self, i_dc: float) -> float:
        """Angular resonance of the shunt-C / biased-inductor tank."""
        return 1.0 / np.sqrt(self.inductance_at_bias(i_dc) * self.c_shunt)


class _Memo:
    """Content-keyed, read-only results of the last ``size`` computations.

    A hit returns the arrays that the miss computed, so it gives the bits a
    fresh computation on the same input gives; a computation that raises
    stores nothing.  ``misses`` counts the computations.  Keys are compared,
    never hashed: a key holds a grid's bytes, and a few entries are scanned
    faster than those bytes are hashed.
    """

    def __init__(self, size: int):
        self.size, self.entries, self.misses = size, [], 0
        self._lock = threading.Lock()

    def get(self, key, compute):
        with self._lock:
            for k, (held, value) in enumerate(self.entries):
                if held == key:
                    del self.entries[k]
                    break
            else:
                del self.entries[:max(0, len(self.entries) + 1 - self.size)]   # oldest first
                value = compute()
                self.misses += 1
                for x in value:
                    if isinstance(x, np.ndarray):
                        x.setflags(write=False)
            self.entries.append((key, value))
            return value


# cos/sin of one engine build's line lengths at its two grids, ω_s and ω_i:
# the rows of a search share them
_LINE_TRIG = _Memo(2)


def _line_trig(segments, omega) -> list:
    """(cos θ, sin θ) of each segment at ω, computed once per distinct length.

    Keyed on the lengths, their ``f_ref`` and the bytes of ω, so the two
    quarter-wave lines of the three-stage kind share θ, and so do engine
    builds on the same grid, of either kind.
    """
    lengths = {(seg.length_fraction, seg.f_ref): seg for seg in segments}
    w = np.asarray(omega, dtype=float)

    def trig():
        thetas = [seg.electrical_length(omega) for seg in lengths.values()]
        return tuple(f(th) for th in thetas for f in (np.cos, np.sin))

    flat = _LINE_TRIG.get((tuple(lengths), w.shape, w.tobytes()), trig)
    pairs = dict(zip(lengths, zip(flat[::2], flat[1::2])))
    return [pairs[seg.length_fraction, seg.f_ref] for seg in segments]


def chain_impedance_from_node(design: DesignSpec, env: EnvironmentModel, omega):
    """Impedance looking out from the resonator node toward the source at ω."""
    z = environment_impedance(env, omega)
    # walk outward-to-inward: transform the source through each line,
    # starting with the segment adjacent to the port
    segments = design.lines_node_to_port()[::-1]
    for seg, trig in zip(segments, _line_trig(segments, omega)):
        z = input_impedance(seg, z, omega, trig)
    return z


def idler_admittance(design: DesignSpec, env: EnvironmentModel, omega_i):
    """Admittance of {shunt C, lines, source} seen from the inductor at ω_i.

    Excludes the inductor itself; callers conjugate per the idler-frequency
    convention.
    """
    z_chain = chain_impedance_from_node(design, env, omega_i)
    z_arr = np.asarray(z_chain)
    if np.any(z_arr == 0):
        raise SingularNetwork("outward chain presents a short at the resonator node")
    return 1j * np.asarray(omega_i, dtype=float) * design.c_shunt + 1.0 / z_chain


def port_line_abcd(design: DesignSpec, omega):
    """(A, B, C, D) arrays of the port-to-node line cascade at ω.

    The cascade is ordered port side first, so the node-side load Z_N maps
    to the port as Z_in = (A·Z_N + B)/(C·Z_N + D).
    """
    w = np.asarray(omega, dtype=float)
    segments = design.lines_node_to_port()[::-1]   # port-side segment first
    trig = _line_trig(segments, w)
    # the port-side segment starts the cascade; adding 0 gives every entry
    # the +0 zero part that multiplying it into the identity would, so the
    # bits are the same, signed zeros included
    (ca, sa), z_c = trig[0], segments[0].z_c
    a, b, c, d = ca + 0j, 1j * z_c * sa + 0, 1j * sa / z_c + 0, ca + 0j
    for seg, (ca, sa) in zip(segments[1:], trig[1:]):
        la, lb, lc, ld = ca, 1j * seg.z_c * sa, 1j * sa / seg.z_c, ca
        a, b, c, d = (a * la + b * lc, a * lb + b * ld,
                      c * la + d * lc, c * lb + d * ld)
    return a, b, c, d
