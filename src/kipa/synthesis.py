"""Three-stage impedance-transformer synthesis from band-pass prototypes.

Maps a prototype coefficient set and fractional bandwidth onto the line
impedances of the transformer: reference impedance, outer quarter-wave
line, the half-wave line (via a quadratic in its characteristic
impedance), and the inverted nonlinear-resonator values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, SynthesisInfeasible


@dataclass(frozen=True)
class PrototypeCoefficients:
    """Normalized band-pass prototype (g0..g3) plus fractional bandwidth."""

    g0: float
    g1: float
    g2: float
    g3: float
    epsilon: float

    def __post_init__(self):
        for name in ("g0", "g1", "g2", "g3"):
            if not getattr(self, name) > 0:
                raise InvalidParameter(f"{name} must be > 0")
        if not 0 < self.epsilon < 0.5:
            raise InvalidParameter("fractional bandwidth must lie in (0, 0.5)")


# two-pole set for 17-dB gain from the classic negative-resistance tables
GETSINGER_17DB = (1.0, 0.408, 0.234, 1.106)


def prototype(epsilon: float) -> PrototypeCoefficients:
    return PrototypeCoefficients(*GETSINGER_17DB, epsilon)


@dataclass(frozen=True)
class SynthesisResult:
    z_ref: float        # reference impedance, ohms
    z_quarter: float    # outer quarter-wave line, ohms
    z_parallel: float   # slope impedance of the half-wave resonator, ohms
    z_half: float       # half-wave line, ohms
    z_nr_primed: float  # inverted NR slope impedance, ohms
    r_nr_primed: float  # inverted NR resistance, ohms
    residual: float     # quadratic residual at z_half, ohms^2


def transform_nr(z_ki: float, z_nr: float, r_nr: float) -> dict:
    """Series-equivalent NR values behind the high-impedance quarter-wave line."""
    if min(z_ki, z_nr, r_nr) <= 0:
        raise InvalidParameter("impedances must be > 0")
    return {"z_nr_primed": z_ki**2 / z_nr, "r_nr_primed": z_ki**2 / r_nr}


def _square(name: str, x: float) -> float:
    """x**2, or SynthesisInfeasible naming ``name`` where it leaves the float range."""
    try:
        sq = x**2
    except OverflowError:
        sq = math.inf
    if not math.isfinite(sq):
        raise SynthesisInfeasible(f"{name} = {x:.4g} ohm overflows when squared")
    return sq


def _finite(name: str, value: float) -> float:
    """``value``, or SynthesisInfeasible naming ``name`` where it overflows."""
    if not math.isfinite(value):
        raise SynthesisInfeasible(f"{name} overflows")
    return value


def _half_wave_quadratic_coeffs(z_quarter: float, z_parallel: float, z0: float):
    z0p = _square("z_quarter", z_quarter) / z0
    z0p_sq = _square("z_quarter^2/z0", z0p)
    b = _finite("b = z_quarter/2 - z_quarter*z0p/(2*z0) + 2*z0p^2/(pi*z_parallel)",
                z_quarter / 2.0
                - z_quarter * z0p / (2.0 * z0)
                + 2.0 * z0p_sq / (math.pi * z_parallel))
    return b, -z0p_sq


def synthesize_transformer(proto: PrototypeCoefficients, z_nr: float,
                           z_ki: float, z0: float) -> SynthesisResult:
    """Element values of the three-stage transformer for a given prototype.

    z_nr : nonlinear-resonator characteristic impedance, ohms
    z_ki : high-impedance quarter-wave line, ohms
    z0 : source impedance, ohms
    """
    if min(z_nr, z_ki, z0) <= 0:
        raise InvalidParameter("impedances must be > 0")
    eps, g1, g2, g3 = proto.epsilon, proto.g1, proto.g2, proto.g3
    z_nr_primed = _finite("z_nr_primed = z_ki^2/z_nr", _square("z_ki", z_ki) / z_nr)
    z_ref = _finite("z_ref = epsilon*z_nr_primed/g1", eps * z_nr_primed / g1)
    z_quarter = math.sqrt(_finite("z_quarter^2 = g3*z_ref*z0", g3 * z_ref * z0))
    z_parallel = eps * z_ref / g2
    if not z_parallel > 0:   # the half-wave quadratic divides by it
        raise SynthesisInfeasible(f"vanishing bandwidth: z_parallel = epsilon*z_ref/g2 underflows "
                                  f"to 0 ohm (epsilon = {eps:.4g}, z_ref = {z_ref:.4g} ohm)")
    b, c = _half_wave_quadratic_coeffs(z_quarter, z_parallel, z0)
    # c <= 0, so disc >= b^2 >= 0: the quadratic always has real roots
    disc = _finite("disc = b^2 - 4*c", b * b - 4.0 * c)
    # stable form: compute the large-magnitude root first, the other via the product
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = sorted((q, c / q) if q != 0 else (0.0, 0.0))
    z_half = roots[1]
    if not z_half > 0:
        raise SynthesisInfeasible(
            f"no positive half-wave impedance (roots {roots[0]:.4g}, {roots[1]:.4g})"
        )
    residual = _square("z_half", z_half) + b * z_half + c
    return SynthesisResult(
        z_ref=z_ref,
        z_quarter=z_quarter,
        z_parallel=z_parallel,
        z_half=z_half,
        z_nr_primed=z_nr_primed,
        r_nr_primed=proto.g0 * z_ref,
        residual=residual,
    )


def predict_fractional_bandwidth(g1: float, z_nr_primed: float,
                                 r_nr_primed: float) -> float:
    """Fractional bandwidth implied by the inverted NR values.

    Inverts the prototype relation Z'_NR = (g1/ε)·Z_ref with Z_ref = R'_NR:
    ε = g1·R'_NR/Z'_NR, equivalently ε = g1·Z_NR/R_NR at the resonator node,
    so halving the node resistance (a stronger pump) doubles the bandwidth.
    """
    if min(g1, z_nr_primed, r_nr_primed) <= 0:
        raise InvalidParameter("inputs must be > 0")
    return g1 * r_nr_primed / z_nr_primed
