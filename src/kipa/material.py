"""Kinetic-inductance material models and pump-coefficient arithmetic.

Covers the current-dependent inductance (parabolic, quartic, and the
Clem-style full expression), the pump linearization coefficients
(delta_l, alpha, xi3, Kerr, pump-induced shift), the material ceiling on
xi3, the stepped-impedance filter external Q, and least-squares fitting
of measured frequency-shift curves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    FitFailure,
    InvalidParameter,
    SuperconductivityBreakdown,
)

# Exact SI values (CODATA 2018).  scipy.constants gives the same floats,
# but importing it costs a CLI process more than all of its own work.
HBAR = 6.62607015e-34 / (2 * math.pi)   # J s
K_B = 1.380649e-23                      # J/K

MODEL_KINDS = ("parabolic", "quartic", "clem")


@dataclass(frozen=True)
class KineticInductorModel:
    """Current-dependent kinetic inductor with a fixed series geometric part.

    model_kind : "parabolic", "quartic", or "clem"
    l_k0 : zero-current kinetic inductance, H
    l_geo : series geometric inductance, H (does not modulate)
    i_star2 : quadratic current scale, A
    i_star4 : quartic current scale, A (quartic kind only)
    i_star_star : Clem current scale, A (clem kind only)
    n_exp : Clem exponent (default 2.21)
    i_c : critical current, A (optional; enforces bias limits when set)
    """

    model_kind: str
    l_k0: float
    l_geo: float = 0.0
    i_star2: float = math.inf
    i_star4: Optional[float] = None
    i_star_star: Optional[float] = None
    n_exp: float = 2.21
    i_c: Optional[float] = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise InvalidParameter(f"unknown model kind {self.model_kind!r}")
        if self.l_k0 < 0 or self.l_geo < 0:
            raise InvalidParameter("inductances must be >= 0")
        if not self.l_k0 + self.l_geo > 0:
            raise InvalidParameter("total inductance l_k0 + l_geo must be > 0")
        if not self.i_star2 > 0:
            raise InvalidParameter("i_star2 must be > 0")
        if self.model_kind == "quartic":
            if self.i_star4 is None or not self.i_star4 > 0:
                raise InvalidParameter("quartic kind requires i_star4 > 0")
        if self.model_kind == "clem":
            if self.i_star_star is None or not self.i_star_star > 0:
                raise InvalidParameter("clem kind requires i_star_star > 0")
        if self.i_c is not None:
            if not self.i_c > 0:
                raise InvalidParameter("i_c must be > 0")
            if math.isfinite(self.i_star2) and not self.i_c < self.i_star2:
                raise InvalidParameter("critical current must lie below i_star2")


@dataclass(frozen=True)
class PumpOperatingPoint:
    """DC bias plus the pump tone's amplitude and phase at the modulated inductor.

    i_dc : A; i_p_mag : |I_p|, A; phi_p : pump phase, rad.  The pump
    frequency does not enter the coefficients.
    """

    i_dc: float
    i_p_mag: float
    phi_p: float = 0.0

    def __post_init__(self):
        if self.i_dc < 0:
            raise InvalidParameter("i_dc must be >= 0")
        if self.i_p_mag < 0:
            raise InvalidParameter("i_p_mag must be >= 0")


@dataclass(frozen=True)
class PumpCoefficients:
    """Linearized pump coefficients at one operating point."""

    delta_l: complex      # complex modulation amplitude, H
    alpha: float          # dimensionless modulation strength |dL|^2/(4 L_I^2)
    xi3: complex          # amplification coefficient, rad/s
    kerr: float           # Kerr coefficient K, rad/s
    pump_shift: float     # pump-induced frequency shift, rad/s
    l_i: float            # inductance at the dc bias, H


@np.errstate(over="ignore", invalid="ignore")   # out of range: inf or nan, for resonance_at_bias
def kinetic_inductance(model: KineticInductorModel, i_dc: float) -> float:
    """Total inductance L_k(I) + l_geo at bias ``i_dc`` (henries)."""
    i = abs(i_dc)
    if model.model_kind == "parabolic":
        lk = model.l_k0 * (1.0 + (i / model.i_star2) ** 2)
    elif model.model_kind == "quartic":
        lk = model.l_k0 * (1.0 + (i / model.i_star2) ** 2 + (i / model.i_star4) ** 4)
    else:  # clem
        x = (i / model.i_star_star) ** model.n_exp
        if x >= 1.0:
            raise SuperconductivityBreakdown(
                f"bias {i_dc} at or beyond the breakdown scale {model.i_star_star}"
            )
        lk = model.l_k0 / (1.0 - x) ** (1.0 / model.n_exp)
    return lk + model.l_geo


# The two pump conventions, α from |I_p| and from |ξ3|, square as r·r: a drive
# gets the same α bits alone as in a ladder (numpy squares a scalar by C ``pow``).
# An α past the float range is inf, or nan for an infinite drive and I*₂; either ends a ladder.

@np.errstate(over="ignore", invalid="ignore")
def modulation_alpha(model: KineticInductorModel, i_dc: float, i_p_mag):
    """α = (9/16)·(i_dc·|I_p|/(I*₂² + i_dc²))² for a scalar or an array of |I_p|."""
    r = i_dc * i_p_mag / (model.i_star2**2 + i_dc**2)
    return (9.0 / 16.0) * (r * r)


@np.errstate(over="ignore")
def alpha_for_xi3(xi3_mag, omega0: float):
    """α = (|ξ3|/2ω0)² at the resonance ``omega0`` for a scalar or an array of |ξ3|."""
    r = xi3_mag / (2.0 * omega0)
    return r * r


@np.errstate(over="ignore", invalid="ignore")   # a coefficient past the float range is inf or nan
def pump_coefficients(model: KineticInductorModel, op: PumpOperatingPoint,
                      omega0: float) -> PumpCoefficients:
    """Linearization coefficients for ``op`` around resonance ``omega0``.

    Uses the quadratic scale i_star2 throughout, even for quartic/clem
    inductance kinds: the closed forms derive from the parabolic expansion,
    which underestimates the modulation for strongly nonlinear films.
    """
    if not omega0 > 0:
        raise InvalidParameter("omega0 must be > 0")
    if model.i_c is not None and not op.i_dc + op.i_p_mag < model.i_c:
        raise SuperconductivityBreakdown(
            f"i_dc + |I_p| = {op.i_dc + op.i_p_mag:.4g} A reaches i_c = {model.i_c:.4g} A"
        )
    l_i = kinetic_inductance(model, op.i_dc)
    istar2 = model.i_star2
    denom = istar2**2 + op.i_dc**2
    ratio = op.i_dc * op.i_p_mag / denom
    delta_l = 1.5 * ratio * l_i * np.exp(-1j * op.phi_p)
    alpha = modulation_alpha(model, op.i_dc, op.i_p_mag)
    xi3 = -1.5 * ratio * omega0 * np.exp(-1j * op.phi_p)
    quart = (8.0 * op.i_dc**2 - istar2**2) / denom**2
    kerr = 0.75 * quart * HBAR * omega0**2 / l_i
    pump_shift = 1.5 * quart * omega0 * op.i_p_mag**2
    return PumpCoefficients(complex(delta_l), float(alpha), complex(xi3),
                            float(kerr), float(pump_shift), float(l_i))


def pump_current_for_xi3(model: KineticInductorModel, i_dc: float, omega0: float,
                         xi3_mag: float) -> float:
    """|I_p| that produces the given |xi3| at bias ``i_dc`` (no i_c cap applied)."""
    if not (i_dc > 0 and omega0 > 0 and xi3_mag >= 0):
        raise InvalidParameter("i_dc, omega0 must be > 0 and xi3_mag >= 0")
    return xi3_mag * (model.i_star2**2 + i_dc**2) / (1.5 * i_dc * omega0)


# (I_*/I_c)² the material ceiling assumes: the quadratic current scale
# squared, in units of the critical current squared.
CEILING_ISTAR2_OVER_IC2 = 5.7


def xi3_upper_bound(i_c: float, omega0: float) -> dict:
    """Material ceiling on |xi3| given the critical current.

    Maximizes (3/2)(I_c-|I_p|)|I_p| / (k I_c² + (I_c-|I_p|)²) over
    |I_p| in (0, I_c), with k = CEILING_ISTAR2_OVER_IC2.  With
    u = 1 - |I_p|/I_c the derivative vanishes at u² + 2k·u - k = 0, whose
    root in (0, 1) is u = k/(k + √(k² + k)).  The maximum of the
    dimensionless ratio is independent of I_c; the rad/s ceiling scales
    with omega0.
    """
    if not i_c > 0:
        raise InvalidParameter("i_c must be > 0")
    if not omega0 > 0:
        raise InvalidParameter("omega0 must be > 0")
    k = CEILING_ISTAR2_OVER_IC2
    u = k / (k + math.sqrt(k * k + k))
    x_opt = 1.0 - u   # |I_p|/I_c
    ratio = 1.5 * u * x_opt / (k + u * u)
    return {"max_xi3": ratio * omega0, "optimal_ip_fraction": x_opt,
            "dimensionless_max": ratio}


def stepped_filter_qe(n_sections: int, z_h: float, z_l: float, z0: float,
                      z_nr: float) -> float:
    """External Q of an N-section stepped-impedance quarter-wave filter."""
    if n_sections < 1:
        raise InvalidParameter("n_sections must be >= 1")
    if min(z_h, z_l, z0, z_nr) <= 0:
        raise InvalidParameter("impedances must be > 0")
    return (z_h / z_l) ** (2 * n_sections) * math.pi * z0 / (4.0 * z_nr)


def frequency_shift(model: KineticInductorModel, i_dc) -> np.ndarray:
    """Fractional resonance shift δω/ω0 of an LC with this inductor.

    δω/ω0 ≈ -(1/2)·δL_k/(L_k0 + L_geo), with δL_k the kinetic-inductance
    rise at bias relative to zero bias.
    """
    i_dc = np.asarray(i_dc, dtype=float)
    l_tot0 = model.l_k0 + model.l_geo
    lk = np.array([kinetic_inductance(model, i) for i in np.atleast_1d(i_dc)])
    shift = -0.5 * (lk - l_tot0) / l_tot0
    return shift if i_dc.ndim else float(shift[0])


_SENTINEL_ZERO = 1e-12   # below this |u|, a fitted 1/I*^2 is treated as zero
# tolerance and evaluation cap of the clem law's Levenberg-Marquardt fit
CLEM_FIT_TOL = 1e-10
CLEM_FIT_MAX_NFEV = 200


def fit_ki_curve(data: Sequence[Tuple[float, float]], model_kind: str,
                 l_k0: float = 1.0, l_geo: float = 0.0):
    """Fit the current scales of an inductance model to shift data.

    data : sequence of (i_dc [A], δω/ω [dimensionless]) pairs
    model_kind : which inductance law to fit
    l_k0, l_geo : fixed inductance split; only the kinetic participation
        ratio l_k0/(l_k0+l_geo) affects the fit

    Returns (model, rms_residual).  The parabolic and quartic laws are linear
    in their inverse scales, which must be >= 0, and are solved exactly by
    bounded least squares; the clem law runs Levenberg-Marquardt (``lsq``).
    A term that flat or rising shifts do not support gets an infinite scale.
    """
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise InvalidParameter("need at least 4 (i_dc, dfrac) data points")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameter("shift data must be finite")
    if model_kind not in MODEL_KINDS:
        raise InvalidParameter(f"unknown model kind {model_kind!r}")
    if not l_k0 > 0:
        raise InvalidParameter(f"l_k0 must be > 0, got {l_k0:g}")
    if not l_geo >= 0:
        raise InvalidParameter(f"l_geo must be >= 0, got {l_geo:g}")
    i, y = pts[:, 0], pts[:, 1]
    part = l_k0 / (l_k0 + l_geo)  # kinetic participation of the resonator inductance

    if model_kind in ("parabolic", "quartic"):
        # dfrac = -(part/2)(u2 I^2 + w4 I^4): linear in (u2, w4), u2 = 1/I*2^2
        powers = (2, 4) if model_kind == "quartic" else (2,)
        design = np.stack([-0.5 * part * i**k for k in powers], axis=1)
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        if min(coef.tolist()) < 0:
            # the laws need coefficients >= 0 (they only lower the frequency);
            # the bounded optimum is then the plain fit of one term, or of none
            trials = [np.zeros(len(powers))]
            for j in range(len(powers)):
                trials.append(np.zeros(len(powers)))
                trials[-1][j] = max(np.linalg.lstsq(design[:, [j]], y, rcond=None)[0][0], 0.0)
            coef = min(trials, key=lambda c: float(np.sum((design @ c - y) ** 2)))
        u2 = coef[0]
        istar2 = math.inf if u2 < _SENTINEL_ZERO else 1.0 / math.sqrt(u2)
        kwargs = dict(model_kind=model_kind, l_k0=l_k0, l_geo=l_geo, i_star2=istar2)
        if model_kind == "quartic":
            w4 = coef[1]
            kwargs["i_star4"] = math.inf if w4 < _SENTINEL_ZERO else w4 ** -0.25
            if not kwargs["i_star4"] > 0:
                raise FitFailure("degenerate quartic scale", {"w4": w4})
        model = KineticInductorModel(**kwargs)
        rms = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return model, rms

    # clem: dfrac = -(part/2)([1-(I v)^n]^(-1/n) - 1), fit v = 1/I**
    n = 2.21
    imax = np.max(np.abs(i))
    if imax <= 0:
        raise FitFailure("clem fit needs nonzero bias points")
    # invert the largest-shift point for the starting scale
    y_big = y[np.argmax(np.abs(i))]
    lk_ratio = 1.0 - 2.0 * y_big / part  # L_k(I)/L_k0 at the largest bias
    if lk_ratio <= 1.0:
        v0 = 0.1 / imax
    else:
        v0 = (1.0 - lk_ratio**-n) ** (1.0 / n) / imax

    a = np.abs(i)

    def evaluate(p, f, jt):
        v = p[0]
        if not v > 0.0:
            f.fill(np.nan)   # the law needs v > 0: a rejected trial point
            return
        t = (a * v) ** n
        w = 1.0 - np.minimum(t, 1.0 - 1e-12)   # 1 - x
        g = w ** (-1.0 / n - 1.0)
        # dfrac = -(part/2)(g·w - 1) with g·w = w^(-1/n); d/dv = -(part/2)·g·x/v
        np.multiply(g, w, out=f)
        f -= 1.0
        f *= -0.5 * part
        f -= y
        np.multiply(g, t, out=jt[0])
        jt[0] *= -0.5 * part / v

    # loaded on the first fit, so commands that never fit do not compile it
    from .lsq import levenberg_marquardt

    # a trial v far beyond the data overflows x: a rejected step
    with np.errstate(over="ignore"):
        fit = levenberg_marquardt(evaluate, [v0], i.size, CLEM_FIT_TOL, CLEM_FIT_MAX_NFEV,
                                  "clem fit")
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    # a law that explains the data no better than no shift at all is flat
    rms_flat = float(np.sqrt(np.mean(y**2)))
    if rms < rms_flat:
        istar_star = 1.0 / fit.x[0]
    else:
        istar_star, rms = math.inf, rms_flat
    model = KineticInductorModel(model_kind="clem", l_k0=l_k0, l_geo=l_geo,
                                 i_star_star=istar_star, n_exp=n)
    return model, rms


def parse_csv(text: str, header: Sequence[str]) -> np.ndarray:
    """The (n, len(header)) float array of a CSV table whose first non-blank line is ``header``.

    Blank lines are skipped.  The data rows are joined and converted in one
    pass, and read again line by line if that fails: an empty table, a wrong
    header, a row with the wrong column count and a cell that is not a finite
    number each raise InvalidParameter naming the line.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    body = lines[1:]
    if (body and [c.strip() for c in lines[0].split(",")] == list(header)
            and set(map(str.count, body, [","] * len(body))) == {len(header) - 1}):
        try:
            values = list(map(float, ",".join(body).split(",")))
        except ValueError:
            values = None
        if values is not None and all(map(math.isfinite, values)):
            return np.array(values).reshape(-1, len(header))
    want = ",".join(header)
    lines = [(n, ln) for n, ln in enumerate(map(str.strip, text.splitlines()), start=1) if ln]
    if not lines:
        raise InvalidParameter(f"empty input: expected header {want!r}")
    lineno, line = lines[0]
    if [c.strip() for c in line.split(",")] != list(header):
        raise InvalidParameter(f"line {lineno}: expected header {want!r}, got {line!r}")
    if len(lines) == 1:
        raise InvalidParameter(f"no data rows after header {want!r}")
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidParameter(
                f"line {lineno}: expected {len(header)} columns ({want}), got {len(cells)}")
        try:
            values = tuple(map(float, cells))
        except ValueError:
            raise InvalidParameter(f"line {lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise InvalidParameter(f"line {lineno}: non-finite value in {line!r}")
    raise AssertionError("the one-pass reader rejected a table without a bad line")


def parse_shift_csv(text: str) -> np.ndarray:
    """Parse two-column shift data with header ``i_dc_A,dfrac`` into an (n, 2) array."""
    return parse_csv(text, ("i_dc_A", "dfrac"))
