"""Noise-cascade algebra and qubit-based power calibration.

All noise levels are photon quanta referred to the measurement frequency;
gains and attenuations are linear power ratios (convert dB upstream).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitFailure, InvalidParameter
from .material import HBAR, K_B


@dataclass(frozen=True)
class NoiseChainModel:
    """Measurement cascade: input loss, amplifier, post-loss, system amplifier.

    a_in : input-line attenuation (power ratio <= 1)
    a_23 : loss between the amplifier and the following chain (power ratio)
    n_t23 : thermal occupation re-injected by that loss, quanta
    g_s : amplifier gain (power ratio)
    g_sys : downstream system gain (power ratio)
    n_sys : downstream added noise, quanta
    n1 : input noise at the amplifier, quanta (0.5 = vacuum)
    """

    a_in: float
    a_23: float
    n_t23: float
    g_s: float
    g_sys: float
    n_sys: float
    n1: float = 0.5

    def __post_init__(self):
        for name in ("a_in", "a_23", "g_s", "g_sys"):
            if not getattr(self, name) > 0:
                raise InvalidParameter(f"{name} must be > 0")
        if self.a_in > 1 or self.a_23 > 1:
            raise InvalidParameter("attenuations are power ratios <= 1")
        if self.n1 < 0.5:
            raise InvalidParameter("n1 cannot be below the vacuum level 0.5")
        if self.n_t23 < 0 or self.n_sys < 0:
            raise InvalidParameter("noise occupations must be >= 0")

    @property
    def g_sys_eff(self) -> float:
        return self.a_23 * self.g_sys


def cascade_forward(chain: NoiseChainModel, n_a: float) -> dict:
    """Noise at each stage for amplifier added noise ``n_a`` (quanta)."""
    n2 = chain.g_s * (chain.n1 + n_a)
    n3 = chain.a_23 * n2 + (1.0 - chain.a_23) * chain.n_t23
    n4 = chain.g_sys * (n3 + chain.n_sys)
    return {"n2": n2, "n3": n3, "n4": n4}


def pump_off_reference(chain: NoiseChainModel) -> float:
    """n4 with the pump off: the amplifier reflects without adding noise."""
    n3 = chain.a_23 * chain.n1 + (1.0 - chain.a_23) * chain.n_t23
    return chain.g_sys * (n3 + chain.n_sys)


def added_noise(n4, n4_off, g_s: float, g_sys_eff: float, n1: float = 0.5):
    """Input-referred amplifier noise from on/off output noise levels.

    N_A = (n4 - n4_off)/(g_s·g_sys_eff) + n1/g_s - n1, elementwise on arrays.
    """
    if not g_s > 1:
        raise InvalidParameter("added-noise extraction requires g_s > 1")
    if not g_sys_eff > 0:
        raise InvalidParameter("g_sys_eff must be > 0")
    return (n4 - n4_off) / (g_s * g_sys_eff) + n1 / g_s - n1


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose factor 1/(exp(ħω/kT) - 1); zero temperature maps to 0."""
    if temperature < 0 or not omega > 0:
        raise InvalidParameter("need omega > 0 and temperature >= 0")
    if temperature == 0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700:
        return 0.0
    return 1.0 / math.expm1(x)


def excess_noise(q_e: float, q_i: float, g_s: float, temperature: float,
                 omega: float) -> float:
    """Added noise beyond the quantum limit from internal loss and thermal photons.

    N_ex = (Q_e/2Q_i)·(√G+1)²/(G-1)·(2N_th+1) + N_th
    """
    if not q_i > 0:
        raise InvalidParameter("q_i must be > 0")
    if not g_s > 1:
        raise InvalidParameter("excess-noise formula requires g_s > 1")
    n_th = thermal_occupation(omega, temperature)
    root = math.sqrt(g_s)
    return (q_e / (2.0 * q_i)) * (root + 1.0) ** 2 / (g_s - 1.0) * (2.0 * n_th + 1.0) + n_th


def snr_gain(p_n4: float, p_n4_off: float, g_s: float) -> float:
    """Signal-to-noise-ratio gain from the noise-floor shift.

    P_N4/P_N4off = G_s/G_SNR, so G_SNR = G_s·P_N4off/P_N4.
    """
    if not (p_n4 > 0 and p_n4_off > 0):
        raise InvalidParameter("noise powers must be > 0")
    return g_s * p_n4_off / p_n4


def system_noise_temperature(n4_off, omega, g_sys_eff: float):
    """T_sys = n4_off·ħω / (k_B·g_sys_eff), kelvin; elementwise on arrays."""
    if not (np.all(n4_off > 0) and np.all(omega > 0) and g_sys_eff > 0):
        raise InvalidParameter("inputs must be > 0")
    return n4_off * HBAR * omega / (K_B * g_sys_eff)


def power_to_quanta(power, omega, bandwidth_hz: float = 10.0):
    """Measured power (W) in an IF bandwidth (Hz) to photon quanta; elementwise on arrays."""
    if not (np.all(omega > 0) and bandwidth_hz > 0):
        raise InvalidParameter("omega and bandwidth must be > 0")
    return power / (HBAR * omega * bandwidth_hz)


@dataclass(frozen=True)
class QubitCalibration:
    """Decay and dephasing rates of the calibration qubit (rad/s)."""

    omega_q: float
    gamma_1e: float
    gamma_1i: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        if not self.gamma_1e > 0:
            raise InvalidParameter("gamma_1e must be > 0")
        if self.gamma_1i < 0 or self.gamma_phi < 0:
            raise InvalidParameter("rates must be >= 0")

    @property
    def gamma_1(self) -> float:
        return self.gamma_1e + self.gamma_1i

    @property
    def gamma_2(self) -> float:
        return self.gamma_phi + self.gamma_1 / 2.0


def qubit_s21(cal: QubitCalibration, detuning, drive) -> complex:
    """Steady-state transmission past a waveguide-coupled qubit.

    S21 = 1 - (γ1e/2γ2)·(1 + iΔ/γ2) / (1 + (Δ/γ2)² + Ω²/(γ1·γ2))
    """
    g1, g2 = cal.gamma_1, cal.gamma_2
    d = np.asarray(detuning, dtype=float) / g2
    den = 1.0 + d**2 + np.asarray(drive, dtype=float) ** 2 / (g1 * g2)
    s = 1.0 - (cal.gamma_1e / (2.0 * g2)) * (1.0 + 1j * d) / den
    return complex(s) if np.ndim(s) == 0 else s


def drive_strength(gamma_1e: float, p_drive: float, omega_q: float) -> float:
    """Rabi drive Ω = sqrt(2·γ1e·P_d/(ħω_q)) for power P_d at the qubit."""
    if gamma_1e < 0 or p_drive < 0 or not omega_q > 0:
        raise InvalidParameter("rates/powers must be >= 0 and omega_q > 0")
    return math.sqrt(2.0 * gamma_1e * p_drive / (HBAR * omega_q))


def _saturation_residual(det: np.ndarray, ratio: np.ndarray, s21: np.ndarray):
    """Residual callback of the saturation fit, for ``lsq.levenberg_marquardt``.

    det : detunings, rad/s; ratio : (Ω/Ω_ref)² of each row; s21 : measured.
    evaluate(x, f, jt) takes x = (log γ1, log γφ, log Ω_ref) and fills
    f = [Re, Im] of (model S21 - s21) and its transposed Jacobian jt.
    """
    k = det.size
    one_minus_re = 1.0 - s21.real
    minus_im = -s21.imag

    def evaluate(x, f, jt):
        # S = 1 - Q·(1 + i·d) with d = Δ/γ2, Q = (γ1/2γ2)/D and the real
        # denominator D = 1 + d² + u, u = Ω²/(γ1·γ2); γ2 = γφ + γ1/2
        g1, gphi, om_ref = np.exp(x)
        g2 = gphi + g1 / 2.0
        c = g1 / (2.0 * g2)
        d = det / g2
        dd = d * d
        u = ratio * (om_ref * om_ref / (g1 * g2))
        den = 1.0 + dd
        den += u
        q = c / den
        p = q / den
        np.subtract(one_minus_re, q, out=f[:k])
        np.subtract(minus_im, np.multiply(q, d, out=f[k:]), out=f[k:])
        # ∂Q/∂γ2 = P(d² - 1)/γ2 and ∂(-Q·d)/∂γ2 = P·d(2 + u)/γ2, P = Q/D
        dq_g2 = p * (dd - 1.0)
        di_g2 = p * d * (2.0 + u)
        # γ1·∂Q/∂γ1 at fixed γ2 is Q + P·u; Ω_ref·∂Q/∂Ω_ref is -2P·u
        pu = p * u
        c1 = q + pu
        np.multiply(dq_g2, -gphi / g2, out=jt[1, :k])
        np.multiply(di_g2, gphi / g2, out=jt[1, k:])
        np.subtract(np.multiply(dq_g2, -c, out=jt[0, :k]), c1, out=jt[0, :k])
        np.subtract(np.multiply(di_g2, c, out=jt[0, k:]), c1 * d, out=jt[0, k:])
        np.multiply(pu, 2.0, out=jt[2, :k])
        np.multiply(jt[2, :k], d, out=jt[2, k:])

    return evaluate


# tolerance and evaluation cap of the saturation fit's Levenberg-Marquardt run
SATURATION_FIT_TOL = 1e-10
SATURATION_FIT_MAX_NFEV = 800


def fit_qubit_saturation(detuning, power, s21, omega_q: float,
                         p_ref: float = 1e-11) -> dict:
    """Joint saturation fit over a (detuning, VNA power, S21) grid.

    detuning, power, s21 : one row of the grid per element: detuning rad/s,
        VNA power W and measured complex S21
    omega_q : qubit angular frequency used in the drive conversion
    p_ref : reference VNA power at which the fitted drive is reported

    Assumes γ1 ≈ γ1e and Ω² proportional to VNA power.  Fits log(γ1),
    log(γφ), log(Ω_ref) by Levenberg-Marquardt (``lsq``) with an analytic
    Jacobian, starting from the half-depth width of the lowest-power dip,
    and converts the drive into the input-line attenuation a_in = P_d/P_VNA.
    Returns the rates, drive, attenuation, and RMS residual.
    """
    det = np.asarray(detuning, dtype=float)
    pw = np.asarray(power, dtype=float)
    s21 = np.asarray(s21, dtype=complex)
    if not det.shape == pw.shape == s21.shape == (det.size,):
        raise InvalidParameter("detuning, power and S21 must be 1-d and of one length")
    if det.size < 10 or len(set(pw.tolist())) < 2 or len(set(det.tolist())) < 5:
        raise InvalidParameter("need >= 2 powers and >= 5 detunings")
    if np.any(pw <= 0):
        raise InvalidParameter("powers must be > 0")
    if not (omega_q > 0 and p_ref > 0):
        raise InvalidParameter("omega_q and p_ref must be > 0")
    contrast = np.max(np.abs(1.0 - s21))
    if contrast < 1e-9:
        raise FitFailure("no dip contrast: saturation parameters unidentifiable",
                         {"contrast": float(contrast)})

    k = det.size
    ratio = pw / p_ref               # (Ω/Ω_ref)² at each row
    evaluate = _saturation_residual(det, ratio, s21)

    # starting point: dip width and depth at the lowest power; an
    # unsaturated dip |1 - S21| = (γ1/2γ2)/√(1 + d²) falls to half its depth
    # at Δ = ±√3·γ2
    low = pw == pw.min()
    dip = np.abs(1.0 - s21[low])
    depth = dip.max()
    half = det[low][dip >= 0.5 * depth]
    g2_guess = max((half.max() - half.min()) / (2.0 * math.sqrt(3.0)), 1e3)
    g1_guess = max(2.0 * g2_guess * min(depth, 0.999), 1e3)
    x0 = np.log([g1_guess, max(g1_guess * 1e-3, 1.0), g2_guess * 0.3])
    # loaded on the first fit, so commands that never fit do not compile it
    from .lsq import levenberg_marquardt

    # rows without a dip drive the rates to extremes where these powers
    # overflow; such a fit fails the drive check below (FitFailure)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fit = levenberg_marquardt(evaluate, x0, 2 * k, SATURATION_FIT_TOL,
                                  SATURATION_FIT_MAX_NFEV, "qubit saturation fit")
        g1, gphi, om_ref = np.exp(fit.x)
        p_d = HBAR * omega_q * om_ref**2 / (2.0 * g1)
        # a drive whose saturation term Ω²/(γ1·γ2) stays below machine
        # epsilon at every power changes no S21 value: the model sees zero
        saturation = om_ref**2 * ratio.max() / (g1 * (gphi + g1 / 2.0))
    if not (0.0 < p_d < np.inf and saturation >= np.finfo(float).eps):
        raise FitFailure("fitted drive power is zero or not finite",
                         {"gamma_1": float(g1), "drive_ref": float(om_ref)})
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return {
        "gamma_1": float(g1),
        "gamma_phi": float(gphi),
        "drive_ref": float(om_ref),
        "p_ref": p_ref,
        "a_in": float(p_d / p_ref),
        "rms_residual": rms,
    }
