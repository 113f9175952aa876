"""Pumped reflection simulation of the full amplifier network.

Evaluates S11 spectra with the two-frequency linearization of the pumped
inductor embedded in the exact transmission-line ladder, extracts
bandwidth/peak/ripple figures, sweeps pump maps, and fits the
negative-resistance power law.

S11 against a complex (rippled) environment uses the traveling-wave
convention (z_in - z_env)/(z_in + z_env): a lossless pump-off network then
shows the measured amplitude ripple, while an ideal real environment keeps
|S11| = 1 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuits import (
    DesignSpec,
    EnvironmentModel,
    IDEAL_ENV,
    _Memo,
    environment_impedance,
    idler_admittance,
    port_line_abcd,
)
from .errors import InsufficientData, InvalidParameter, SingularNetwork
from .material import alpha_for_xi3, modulation_alpha

# The amplifier criterion of every search and map, which `ramp` and
# `bandwidth_report` read at call time: gain >= 17 dB over a span with two
# peaks of >= 0.5 dB prominence and <= 5 dB ripple.  A ramp stops past
# 40 dB, and its ladder starts at |xi3| = 2π·1 MHz or |I_p| = 1 µA and ends
# before α reaches 0.9; signal grids span ±1.2 GHz about the pump
# half-frequency, and a map's ladder and grid step by 0.1 dB and 2 MHz
# unless told otherwise.
GAIN_THRESHOLD_DB = 17.0
PEAK_PROMINENCE_DB = 0.5
RIPPLE_MAX_DB = 5.0
GAIN_STOP_DB = 40.0
START_XI3 = 2 * np.pi * 1e6
START_CURRENT = 1e-6
ALPHA_MAX = 0.9
FREQ_HALF_SPAN = 2 * np.pi * 1.2e9
MAP_STEP_DB = 0.1
MAP_FREQ_STEP = 2 * np.pi * 2e6

# Most points any frequency, bias or search-axis grid may hold: an engine
# keeps about a dozen complex arrays per grid, ~200 MB at this size.
MAX_GRID_POINTS = 1_000_000


def check_grid_points(points: float, what: str) -> None:
    """Reject a grid of ``points`` points (a float, possibly inf) above the cap."""
    if not points <= MAX_GRID_POINTS:
        raise InvalidParameter(f"{what} would hold {points:.3g} points; "
                               f"at most {MAX_GRID_POINTS} are allowed")


def grid_axis(lo: float, hi: float, step: float, what: str) -> list:
    """The inclusive axis lo + k·step, k = 0, 1, ..., up to ``hi`` (+1e-9·step)."""
    span = f"{what} {lo:g}:{hi:g}:{step:g}"
    if not (step > 0 and hi >= lo):
        raise InvalidParameter(f"{span} needs stop >= start and step > 0")
    check_grid_points((hi - lo) / step, span)
    n = int(round((hi - lo) / step))
    return [v for v in (lo + k * step for k in range(n + 1)) if v <= hi + 1e-9 * step]


@dataclass(frozen=True)
class PumpDrive:
    """Amplification-strength drive given directly as |xi3|.

    Unlike a :class:`~kipa.material.PumpOperatingPoint`, this bypasses the
    critical-current budget: it is the natural control variable for
    simulation sweeps where the pump current needed may exceed what the
    film model allows.  S11 depends on |xi3| only, so a drive has no phase.
    """

    xi3_mag: float            # rad/s
    omega_p: float            # rad/s
    i_dc: float = 0.0         # A, sets the biased inductance

    def __post_init__(self):
        if self.xi3_mag < 0:
            raise InvalidParameter("xi3_mag must be >= 0")
        if not self.omega_p > 0:
            raise InvalidParameter("omega_p must be > 0")


@dataclass
class GainProfile:
    freqs: np.ndarray        # angular signal frequencies, strictly increasing
    s11: np.ndarray          # complex reflection per point
    gain_db: np.ndarray      # 20 log10 |s11|; +inf marks oscillation poles


@dataclass(frozen=True)
class BandwidthReport:
    bandwidth: float                      # rad/s
    peak_frequencies: Tuple[float, ...]   # rad/s, at or above threshold
    peak_count: int
    ripple_db: float
    contiguous_span: Optional[Tuple[float, float]]
    qualified: bool
    rejection_reason: Optional[str] = None
    oscillation_points: int = 0


class MobiusForm(NamedTuple):
    """S11(α) = (p + q·α)/(r + s·α) at every grid frequency.

    ``a_idler`` is A = iω_i·l0·Y_idler*: where A is real, D(α) has a root,
    an idler pole (see :func:`_idler_poles`).
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    a_idler: np.ndarray


def _idler_poles(a_idler):
    """(grid indices, α) where D(α) = (A-1) - αA has a root: A real, α = 1 - 1/A."""
    at = np.flatnonzero(a_idler.imag == 0)
    with np.errstate(divide="ignore"):
        return at, 1.0 - 1.0 / a_idler.real[at]


def _checked_grid(freqs, omega_p):
    """(ws, wi) of a valid engine grid; raises on an invalid one."""
    ws = np.asarray(freqs, dtype=float)
    if ws.ndim != 1 or ws.size == 0:
        raise InvalidParameter("frequency grid must be a non-empty 1-D array")
    if not np.all(np.diff(ws) > 0):
        raise InvalidParameter("frequency grid must be strictly increasing")
    if not ws[0] > 0:
        raise InvalidParameter("grid reaches 0 Hz: omega_s must stay > 0")
    wi = omega_p - ws
    if not np.all(wi > 0):
        raise InvalidParameter("grid extends beyond the pump: omega_i must stay > 0")
    return ws, wi


# the checked and concatenated grids of the last engine build
_GRIDS = _Memo(1)


def _checked_grids(grids):
    """(ws, wi, sizes) of the valid engine grids end to end, read-only; raises on an invalid one."""
    arrays = [(np.asarray(freqs, dtype=float), omega_p) for freqs, omega_p in grids]

    def check():
        checked = [_checked_grid(ws, omega_p) for ws, omega_p in arrays]
        ws, wi = (np.concatenate(x) for x in zip(*checked))
        return ws, wi, tuple(w.size for w, _ in checked)

    return _GRIDS.get(tuple((ws.shape, ws.tobytes(), float(omega_p)) for ws, omega_p in arrays),
                      check)


# the bias-free network arrays of the last engine build: the engines of a
# sweep over more biases than one engine holds build them once
_NETWORK = _Memo(1)


class ReflectionEngine:
    """Pre-assembled network arrays for repeated pump-strength evaluation.

    An engine covers one or more ``(freqs, omega_p)`` grids of one design
    and environment at each bias of ``i_dcs``.  Its cells are every grid
    at ``i_dcs[0]``, then every grid at ``i_dcs[1]``, and so on; ``cells``
    holds their slices of the concatenated arrays.  The line cascade,
    idler chain and environment are elementwise in ω and free of the bias,
    so they are built once and tiled for each further bias: a cell is bit
    for bit an engine of its grid alone at its bias.  The checked grids
    and the line cos/sin come from read-only memos of the last build's
    grids (:func:`_checked_grids`, ``circuits._line_trig``), so builds on
    the same grids, such as the rows of a search, compute them once.  The
    bias-free arrays come from a read-only memo of the last build's design,
    environment and grids, so the engines of one :func:`sweep` build them
    once.
    ``ladder`` holds each cell's bias row and ``l0`` the biased inductance
    at every grid point: the engine is the network alone, as S11 needs α
    and never ω0 (``DesignSpec.resonance_at_bias``).  Sweeping pump
    strength then reduces to vector arithmetic per step.

    With A = iω_i·l0·Y_idler*(ω_i), the pumped inductor presents
    Y_eff = (A-1)/(iω_s·l0·D(α)), D(α) = (A-1) - αA, so S11 is a bilinear
    (Möbius) map of α at every grid frequency:
    S11(α) = (P + Qα)/(R + Sα), see :attr:`mobius`.  Ramps use it to find,
    before evaluating any step, the α ranges where the gain can reach a
    threshold; :meth:`s11`, the one S11 kernel, evaluates the network
    itself, elementwise over (α, grid point) pairs.
    """

    def __init__(self, design: DesignSpec, env: EnvironmentModel,
                 grids: Sequence[Tuple[np.ndarray, float]], i_dcs: Sequence[float] = (0.0,)):
        # a bias fault is reported before a grid fault
        l0s = [design.inductance_at_bias(i_dc) for i_dc in i_dcs]
        if not l0s:
            raise InvalidParameter("an engine needs at least one bias current")
        ws, wi, sizes = _checked_grids(grids)
        n = len(l0s)
        self.cells = [slice(end - size, end) for size, end in zip(sizes * n, accumulate(sizes * n))]
        self.ladder = np.arange(n).repeat(len(sizes))

        def tiled(x):
            return x if n == 1 else np.tile(x, n)

        try:
            # numpy flags every step that leaves the float range, so a build
            # whose arrays are all finite costs no check of its own
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                self.ws = tiled(ws)
                self.jws, self.jwi = 1j * self.ws, 1j * tiled(wi)
                self.y_c = self.jws * design.c_shunt
                y_idler_conj, *abcd, z_env = _NETWORK.get(
                    (design, env, ws.tobytes(), wi.tobytes()),
                    lambda: (np.conj(idler_admittance(design, env, wi)),
                             *port_line_abcd(design, ws),
                             np.asarray(environment_impedance(env, ws), dtype=complex)))
                self.y_idler_conj = tiled(y_idler_conj)
                self.abcd = tuple(tiled(x) for x in abcd)
                self.z_env = tiled(z_env)
        except FloatingPointError as exc:
            raise SingularNetwork(f"network arrays leave the float range: {exc}") from None
        self.l0 = np.array(l0s).repeat(ws.size)

    @cached_property
    def mobius(self) -> MobiusForm:
        """Coefficients of S11(α) = (P + Qα)/(R + Sα) over every cell, built on first use."""
        # node admittance (n0 + n1·α)/D(α) with D(α) = d0 + d1·α
        a_idler = self.jwi * self.l0 * self.y_idler_conj
        d0, d1 = a_idler - 1.0, -a_idler
        n0 = d0 * (self.y_c + 1.0 / (self.jws * self.l0))
        n1 = -self.y_c * a_idler
        # S11 = (u - z·v)/(u + z·v) with (u, v) = (a + b·y, c + d·y) at node
        # admittance y, so numerator and denominator are linear in y
        a, b, c, d = self.abcd
        z = self.z_env
        num_a, num_b, den_a, den_b = a - z * c, b - z * d, a + z * c, b + z * d
        return MobiusForm(num_a * d0 + num_b * n0, num_a * d1 + num_b * n1,
                          den_a * d0 + den_b * n0, den_a * d1 + den_b * n1, a_idler)

    def s11(self, alpha, at=slice(None)) -> np.ndarray:
        """S11 at modulation ``alpha`` and grid points ``at``, elementwise over their broadcast.

        ``at`` is a slice or an index array into the concatenated grid, such
        as a cell of :attr:`cells`; a column of α against a slice gives one
        row per α.  Each element goes through the same arithmetic whatever
        the shapes, so it is bit for bit what its (α, point) pair gives alone.
        """
        values = np.ravel(alpha)
        outside = values[~((values >= 0) & (values < 1))]
        if outside.size:
            raise InvalidParameter(f"alpha = {outside[0]:.4g} outside [0, 1)")
        try:
            # a pole divides by zero; a finite value that overflows is no pole
            with np.errstate(over="raise", divide="ignore", invalid="ignore"):
                y_eff, den = self._y_eff(alpha, at)
                y_node = self.y_c[at] + y_eff
                a, b, c, d = (x[at] for x in self.abcd)
                p = a + b * y_node
                zq = self.z_env[at] * (c + d * y_node)
                s11 = (p - zq) / (p + zq)
        except FloatingPointError as exc:
            raise SingularNetwork(f"S11 leaves the float range: {exc}") from None
        pole = den == 0
        if np.any(pole):
            s11 = np.where(pole, np.inf + 0j, s11)
        return s11

    def gain_db(self, alpha, at=slice(None)) -> np.ndarray:
        """20 log10 |S11| at (α, point) pairs, see :meth:`s11`."""
        return _to_db(self.s11(alpha, at))

    def y_eff(self, alpha) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._y_eff(alpha, slice(None))[0]

    def _y_eff(self, alpha, at):
        """Y_eff and its idler denominator iω_i·l0'·Y_idler* - 1 (0 at a pole)."""
        lp = self.l0[at] * (1.0 - alpha)
        den = self.jwi[at] * lp * self.y_idler_conj[at] - 1.0
        return (1.0 / (self.jws[at] * lp)) * (1.0 + alpha / den), den


def _to_db(s11: np.ndarray) -> np.ndarray:
    """20 log10 |s11|, with +inf wherever s11 is not finite (poles)."""
    mag = np.abs(s11)
    with np.errstate(divide="ignore"):
        g = 20.0 * np.log10(mag)
    return np.where(np.isfinite(mag), g, np.inf)


def gain_spectrum(design: DesignSpec, pump: PumpDrive, env: Optional[EnvironmentModel],
                  freqs) -> GainProfile:
    """Reflection spectrum over the angular-frequency grid ``freqs``.

    ``env=None`` means the ideal flat environment.  Oscillation poles are
    reported as +inf gain at the affected grid points.
    """
    env = env if env is not None else IDEAL_ENV
    engine = ReflectionEngine(design, env, [(freqs, pump.omega_p)], [pump.i_dc])
    s11 = engine.s11(alpha_for_xi3(pump.xi3_mag, design.resonance_at_bias(pump.i_dc)))
    return GainProfile(freqs=np.asarray(freqs, dtype=float), s11=s11, gain_db=_to_db(s11))


def _edge(t, g_in, g_out, f_in, f_out):
    """np.interp(t, [g_out, g_in], [f_out, f_in]) for g_out < t <= g_in, elementwise.

    numpy's two-point arithmetic: f_in where t == g_in, else the slope
    times (t - g_out) plus f_out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(t == g_in, f_in, (f_in - f_out) / (g_in - g_out) * (t - g_out) + f_out)


def _row_ends(starts, n):
    """(starts, stops) of the rows that lie end to end in ``n`` values from ``starts``."""
    starts = np.asarray(starts, dtype=np.intp)
    return starts, np.concatenate((starts[1:], [n]))


def _widest_spans(freqs, gain, threshold, starts=(0,)):
    """(lo, hi, ripple_db, found) of the widest span at or above ``threshold`` per row.

    ``freqs`` and ``gain`` hold non-empty rows end to end, row i from
    ``starts[i]``.  A span is a run of finite points at or above threshold
    within a row; an edge next to a finite point below threshold is
    interpolated (:func:`_edge`).  Of spans of equal width the first wins.
    A row without a span has ``found`` False and zeros elsewhere.
    """
    starts, stops = _row_ends(starts, gain.size)
    lo, hi, ripple = np.zeros((3, starts.size))
    found = np.zeros(starts.size, dtype=bool)
    finite = np.concatenate((np.isfinite(gain), [False]))
    above = finite[:-1] & (gain >= threshold)
    # a span begins where `above` rises within a row and ends where it falls
    before, after = np.concatenate(([False], above[:-1])), np.concatenate((above[1:], [False]))
    before[starts], after[stops - 1] = False, False
    begin, end = (above & ~before).nonzero()[0], (above & ~after).nonzero()[0]
    if not begin.size:
        return lo, hi, ripple, found
    # an edge inside its row next to a finite point, which is below threshold
    row_start = np.zeros(gain.size + 1, dtype=bool)
    row_start[starts] = row_start[-1] = True
    i = (~row_start[begin] & finite[begin - 1]).nonzero()[0]
    j = (~row_start[end + 1] & finite[end + 1]).nonzero()[0]
    inner = np.concatenate((begin[i], end[j]))
    outer = np.concatenate((begin[i] - 1, end[j] + 1))
    edge = _edge(threshold, gain[inner], gain[outer], freqs[inner], freqs[outer])
    span_lo, span_hi = freqs[begin], freqs[end]
    span_lo[i], span_hi[j] = edge[:i.size], edge[i.size:]
    # the first widest span of each row that has one
    row = np.searchsorted(starts, begin, side="right") - 1
    pick = np.lexsort((begin, span_lo - span_hi, row))
    pick = pick[np.concatenate(([True], row[pick[1:]] != row[pick[:-1]]))]
    row = row[pick]
    lo[row], hi[row], found[row] = span_lo[pick], span_hi[pick], True
    # max - min over each picked span; reduceat runs the last index to the
    # end of ``gain``, so a stop there is left out
    bounds = np.empty(2 * pick.size, dtype=np.intp)
    bounds[::2], bounds[1::2] = begin[pick], end[pick] + 1
    bounds = bounds[:bounds.size - (bounds[-1] == gain.size)]
    ripple[row] = np.maximum.reduceat(gain, bounds)[::2] - np.minimum.reduceat(gain, bounds)[::2]
    return lo, hi, ripple, found


def _rising_maxima(gain, threshold, starts=(0,)):
    """Per row, how many k in 1..n-2 have g[k-1] < g[k] >= g[k+1] and g[k] >= threshold.

    ``gain`` holds the rows end to end, row i from ``starts[i]``.  Every
    :func:`_peaks` peak, the middle of a plateau included, has such a k at
    the start of its rise with the peak's height, so the count bounds the
    number of peaks at or above threshold.
    """
    starts, stops = _row_ends(starts, gain.size)
    mid = gain[1:-1]
    rise = np.zeros(gain.size, dtype=np.intp)
    rise[1:-1] = (gain[:-2] < mid) & (mid >= gain[2:]) & (mid >= threshold)
    # neither end of a row is a k of it
    rise[starts[starts < gain.size]] = 0
    rise[stops[stops > 0] - 1] = 0
    total = np.concatenate(([0], np.cumsum(rise)))
    return total[stops] - total[starts]


def _peaks(x, height, prominence):
    """Indices of the peaks of ``x`` at or above ``height`` with at least ``prominence``.

    The same indices as ``scipy.signal.find_peaks(x, height=height,
    prominence=prominence)``, ties included.  A run of equal samples is a
    maximum when its left neighbour is lower and the first unequal sample
    after it is lower, that look-ahead stopping at the last sample; the
    peak is the run's middle, rounded down.  Maxima below ``height`` are
    dropped first.  From each remaining peak a walk goes out either way
    until a strictly higher sample or the row end, and the prominence is
    the height minus the higher of the two lowest samples walked over.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    # a maximum starts with a rise into a sample at or above the next one
    mid = x[1:-1]
    k = ((x[:-2] < mid) & (mid >= x[2:]) & (height <= mid)).nonzero()[0] + 1
    h, after = x[k], x[k + 1]
    flat = (after == h).nonzero()[0]
    if flat.size:
        # a plateau looks ahead to its first unequal sample, or to the last
        # one, and moves its peak to its middle
        change = np.append((x[1:] != x[:-1]).nonzero()[0] + 1, n - 1)
        ahead = change[np.searchsorted(change, k[flat], side="right")]
        after[flat] = x[ahead]
        k[flat] += (ahead - k[flat] - 1) // 2
    top = after < h
    peaks, h = k[top], h[top]
    if not peaks.size:
        return peaks
    # with +inf at either end, each walk stops at a sample that is not <= its
    # peak; flat over one padded row per peak, such samples hold the two
    # stops of every walk either side of the peak's position
    padded = np.concatenate(([np.inf], x, [np.inf]))
    stops = np.flatnonzero(~(padded <= h[:, None]))
    at = np.arange(1, peaks.size * (n + 2), n + 2) + peaks
    i = np.searchsorted(stops, at)
    # minima over the walked samples, left stop to peak and peak to right
    # stop, at positions taken back into the padded row
    bounds = np.concatenate((stops[i - 1] + 1, at + 1, at, stops[i])).reshape(4, -1).T.ravel()
    lows = np.minimum.reduceat(padded, bounds % (n + 2))
    return peaks[prominence <= h - np.maximum(lows[0::4], lows[2::4])]


def bandwidth_report(freqs: np.ndarray, gain_db: np.ndarray, span=None) -> BandwidthReport:
    """Bandwidth, peaks and ripple of the widest span at or above :data:`GAIN_THRESHOLD_DB`.

    The profile is ``gain_db`` (+inf at oscillation poles) over the strictly
    increasing angular frequencies ``freqs``.  Peaks are local maxima of
    the profile with prominence >= :data:`PEAK_PROMINENCE_DB` sitting at or
    above the threshold (:func:`_peaks`).  Oscillation-pole points never
    count toward a span.  The profile qualifies under the amplifier
    criterion; otherwise ``rejection_reason`` names the first rule it
    fails, in this order: "below threshold" (no span), "fewer than two
    peaks", "ripple above limit" (ripple of the span above
    :data:`RIPPLE_MAX_DB`).  These limits are read at call time.
    ``span``, when given, is the profile's widest span as
    :func:`_widest_spans` gives it for this one row, already at hand, and
    is not computed again.  A window of a profile gives the profile's
    report where every point of the profile outside it, and the window's
    end point at each end inside the profile, is finite and below
    threshold − prominence, as :func:`ramp` passes (see there).
    """
    f, g = freqs, gain_db
    if f.size == 0:
        raise InvalidParameter("empty gain profile")
    n_osc = int(np.sum(~np.isfinite(g)))
    finite_g = np.where(np.isfinite(g), g, -np.inf)
    peaks = tuple(map(float, f[_peaks(finite_g, GAIN_THRESHOLD_DB, PEAK_PROMINENCE_DB)]))

    (lo,), (hi,), (ripple,), (found,) = span or _widest_spans(f, g, GAIN_THRESHOLD_DB)
    if not found:
        return BandwidthReport(0.0, peaks, len(peaks), 0.0, None, qualified=False,
                               rejection_reason="below threshold", oscillation_points=n_osc)
    ripple = float(ripple)
    reason = None
    if len(peaks) < 2:
        reason = "fewer than two peaks"
    elif ripple > RIPPLE_MAX_DB:
        reason = "ripple above limit"
    return BandwidthReport(
        bandwidth=float(hi - lo),
        peak_frequencies=peaks,
        peak_count=len(peaks),
        ripple_db=ripple,
        contiguous_span=(float(lo), float(hi)),
        qualified=reason is None,
        rejection_reason=reason,
        oscillation_points=n_osc,
    )


@dataclass(frozen=True)
class PumpRampPolicy:
    """How a sweep increases the pump at each cell, by ``ratio`` per step.

    mode "current" ramps |I_p| and stops at the critical-current budget
    i_dc + |I_p| < i_c; mode "xi3" ramps |xi3| directly, up to ``xi3_cap``
    (rad/s) or with no material cap (the regime the simulations explore).
    """

    mode: str = "current"
    ratio: float = 10.0 ** (MAP_STEP_DB / 20.0)
    xi3_cap: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("current", "xi3"):
            raise InvalidParameter("policy mode must be 'current' or 'xi3'")
        if not self.ratio > 1:
            raise InvalidParameter("ramp ratio must be > 1")


@dataclass(frozen=True)
class MapCell:
    omega_p: float
    i_dc: float
    bandwidth: float
    peak_count: int
    ripple_db: float
    optimal_drive: float   # |I_p| (A) or |xi3| (rad/s) depending on policy mode


# Relative slack of the analytic step screen: the threshold is lowered and
# every root interval widened by this fraction, far above the < 1e-13
# relative gap between the coefficient form and an evaluated profile, so
# no step that could reach the threshold is screened out.
RAMP_SLACK = 1e-6
# Point budget of a ramp round: a round stops taking steps once their
# windows hold this many (α, grid point) pairs, so it also bounds the
# temporaries of one S11 evaluation.  Timed end to end (66 map-rippled lines
# and 176 desk-search rows through `kipa.cli.main`, best of 5, 4 runs per
# budget interleaved): desk rows took 0.70-0.80 s at 2,048, 0.58-0.63 s at
# 4,096 and 0.72-0.77 s at 8,192 (more rounds, or more steps past the one
# that stops the ramp); map lines could not be told apart, since a round of
# 2,048 points already holds nearly every kept step of a map cell.  The
# transient peak of 60 desk rows (tracemalloc) is 1.42, 1.86 and 2.75 MB.
RAMP_BLOCK_POINTS = 4096
# Most grid points one engine of a sweep holds, over all its biases: an
# engine keeps about twenty complex arrays per point, ~5 MB at this size,
# so a sweep of many biases ramps in several engines.
MAP_ENGINE_POINTS = 16384
_LADDER_CHUNK = 1024


@np.errstate(over="ignore", invalid="ignore")   # past the float range α is inf or NaN, which ends a row
def drive_ladder(start: float, ratio: float, alpha_of: Callable,
                 drive_ok: Optional[Callable] = None):
    """(drives, alphas) of geometric pump ramps that share one drive sequence, as arrays.

    The drive grows by repeated multiplication from ``start`` (the same
    floating-point sequence as ``drive *= ratio``).  ``alpha_of(drives)``
    gives one row of α per ladder (a 1-D result is one row), and each row
    ends before its first step whose α reaches :data:`ALPHA_MAX` or whose
    drive fails the vectorized budget check ``drive_ok``: it is NaN from
    there on.  ``drives`` runs to the end of the longest row.  A start that
    cannot grow, or a ladder that has not ended after
    :data:`MAX_GRID_POINTS` steps, raises ``InvalidParameter``.
    """
    if not start > 0:
        raise InvalidParameter(f"ramp start must be > 0, got {start:g}")
    if not ratio > 1:
        raise InvalidParameter("ramp ratio must be > 1")
    parts = []   # (drives, alphas) of each chunk
    drive, live = start, True
    while True:
        seq = np.full(_LADDER_CHUNK, ratio)
        seq[0] = drive
        drives = np.cumprod(seq)
        alphas = np.atleast_2d(alpha_of(drives))
        ok = alphas < ALPHA_MAX
        if drive_ok is not None:
            ok &= drive_ok(drives)
        ok = np.logical_and.accumulate(ok & live, axis=1)
        parts.append((drives, np.where(ok, alphas, np.nan)))
        live = ok[:, -1:]
        if not live.any():
            break
        if len(parts) * _LADDER_CHUNK > MAX_GRID_POINTS:
            raise InvalidParameter(f"pump ladder has not ended after {MAX_GRID_POINTS} steps; "
                                   f"ramp ratio {ratio:.17g} is too close to 1")
        drive = drives[-1] * ratio
    drives, alphas = (np.concatenate(x, axis=-1) for x in zip(*parts))
    end = np.count_nonzero(~np.isnan(alphas), axis=1).max(initial=0)
    return drives[:end], alphas[:, :end]


@dataclass(frozen=True)
class RampResult:
    report: Optional[BandwidthReport]   # widest qualifying profile, if any
    drive: float                        # its drive; 0.0 when none qualified


def _quadratic_nonnegative(a2, a1, a0):
    """Intervals of α where a2·α² + a1·α + a0 >= 0, for a2 != 0 elementwise.

    Returns (lo, hi), each with two rows: the solution set of element i is
    [lo[0, i], hi[0, i]] ∪ [lo[1, i], hi[1, i]]; an empty interval has
    lo = +inf and hi = -inf.  Roots use the cancellation-free form.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0
        real = disc >= 0
        root = -0.5 * (a1 + np.copysign(np.sqrt(np.where(real, disc, 0.0)), a1))
        r1, r2 = root / a2, a0 / root
    r1, r2 = np.fmin(r1, r2), np.fmax(r1, r2)
    up = a2 > 0
    inf = np.full(np.shape(a2), np.inf)
    # a2 > 0: (-inf, r1] and [r2, inf), or every α without real roots;
    # a2 < 0: [r1, r2], or no α without real roots
    lo = np.stack([np.where(up, -inf, np.where(real, r1, inf)),
                   np.where(up & real, r2, inf)])
    hi = np.stack([np.where(up, np.where(real, r1, inf), np.where(real, r2, -inf)),
                   np.where(up & real, inf, -inf)])
    return lo, hi


def _with_roots(a2, disc):
    """Grid points whose quadratic may be >= 0 at some α: all but a2 < 0 with disc < 0.

    Those have no real root and stay negative, so their intervals are
    empty.  On the desk grids about one point in seven is kept.
    """
    return np.flatnonzero(~((a2 < 0) & (disc < 0)))


def _ladder_steps(ladder, on, lo, hi):
    """(at, first, stop) of the α intervals [lo, hi] marked ``on`` that hold steps of ``ladder``.

    Steps ``first`` up to, not including, ``stop`` lie in interval ``at``.
    """
    if not ladder.size:
        return (np.empty(0, dtype=np.intp),) * 3
    # only intervals that can hold a ladder step, written so that a NaN end
    # is kept or dropped exactly as searchsorted would
    meets = np.flatnonzero(on & (lo <= ladder[-1]) & ~(hi < ladder[0]) & ~(hi < lo))
    first = np.searchsorted(ladder, lo[meets], side="left")
    stop = np.searchsorted(ladder, hi[meets], side="right")
    keep = first < stop
    return meets[keep], first[keep], stop[keep]


def _candidate_steps(engine: ReflectionEngine, alphas: np.ndarray, db: float):
    """(cell, step, lo, hi) of the ladder steps of each cell of ``engine`` that may reach ``db``.

    ``alphas`` holds the engine's pump ladders, one row per ladder (see
    :func:`policy_ladder`).  The four index arrays run by cell, then by
    ladder step: step ``step[i]`` of cell ``cell[i]`` is evaluated on the
    grid points ``lo[i]`` up to, not including, ``hi[i]`` (indices into the
    engine's concatenated grid), its window.  Every point of the cell
    outside the window is finite and below ``db`` at that step, and so is
    the window's end point at each end that is not an end of the cell;
    every step not listed is so at every point of the cell.

    Per frequency, |S11(α)|² >= G is the real quadratic
    |P + Qα|² - G·|R + Sα|² >= 0, whose solution set is at most two
    intervals of α.  Mapped onto the cell's ladder, each is the step range
    at which that frequency may reach ``db``; an idler pole adds the steps
    at its α.  A cell keeps the union of its ranges.  The quadratics are
    elementwise in ω, so they are solved once over the engine's
    concatenated grid, at the points that have real roots or a2 >= 0
    (:func:`_with_roots`); the intervals of all cells that share a ladder
    are mapped onto it in one pass, and the ranges of every cell go onto
    one (cell, m + 1 ladder slot) layout: a ``bincount`` there covers the
    ladders, and running extremes along it bound the windows.  A cell with
    a degenerate (a2 = 0) or overflowing quadratic keeps every step of its
    ladder on the whole cell.
    """
    m = alphas.shape[1]
    ends = np.count_nonzero(~np.isnan(alphas), axis=1)
    starts = np.array([cells.start for cells in engine.cells], dtype=np.intp)
    stops = np.array([cells.stop for cells in engine.cells], dtype=np.intp)
    if m == 0:
        return (np.arange(0),) * 4
    g = 10.0 ** (db / 10.0) * (1.0 - RAMP_SLACK)
    with np.errstate(over="ignore", invalid="ignore"):
        p, q, r, s, a_idler = engine.mobius
        a2 = q.real**2 + q.imag**2 - g * (s.real**2 + s.imag**2)
        a1 = 2.0 * ((p * q.conjugate()).real - g * (r * s.conjugate()).real)
        a0 = p.real**2 + p.imag**2 - g * (r.real**2 + r.imag**2)
        disc = a1 * a1 - 4.0 * a2 * a0
    keep_all = np.logical_or.reduceat(~np.isfinite(disc) | (a2 == 0), starts)
    points = _with_roots(a2, disc)
    lo, hi = _quadratic_nonnegative(a2[points], a1[points], a0[points])
    at_pole, pole_alphas = _idler_poles(a_idler)
    points = np.concatenate([points, points, at_pole])
    lo = np.concatenate([lo[0], lo[1], pole_alphas])
    hi = np.concatenate([hi[0], hi[1], pole_alphas])
    lo = np.where(lo > 0, lo * (1.0 - RAMP_SLACK), lo * (1.0 + RAMP_SLACK))
    hi = np.where(hi > 0, hi * (1.0 + RAMP_SLACK), hi * (1.0 - RAMP_SLACK))
    cell_of = np.searchsorted(starts, points, side="right") - 1
    ladder_of = engine.ladder[cell_of]
    at, first, stop = (np.concatenate(x) for x in zip(*(
        _ladder_steps(ladder[:end], ladder_of == k, lo, hi)
        for k, (ladder, end) in enumerate(zip(alphas, ends)))))
    points, offset = points[at], cell_of[at] * (m + 1)
    size = len(starts) * (m + 1)
    cover = np.cumsum((np.bincount(offset + first, minlength=size)
                       - np.bincount(offset + stop, minlength=size)).reshape(-1, m + 1),
                      axis=1)
    kept = cover[:, :m] > 0
    kept[keep_all] = np.arange(m) < ends[engine.ladder[keep_all], None]
    at_cell, at_step = np.nonzero(kept)

    def extreme(ufunc, blank, slot, upto):
        """``ufunc`` over the points of each kept step's cell whose ``slot`` is at most ``upto``."""
        ladder = np.full(size, blank, dtype=np.intp)
        ufunc.at(ladder, offset + slot, points)
        return ufunc.accumulate(ladder.reshape(-1, m + 1), axis=1)[at_cell, upto]

    # the exact window runs from one point before the least point whose
    # interval [first, stop) holds the step to one point after the greatest.
    # Those are bounded by the extremes over the intervals that start at or
    # before the step and over those that stop after it (slot m + 1 - stop
    # at most m - step); the tighter bounds give a window that holds the exact one
    down, back = m + 1 - stop, m - at_step
    lo = np.maximum(extreme(np.minimum, p.size, first, at_step),
                    extreme(np.minimum, p.size, down, back)) - 1
    hi = np.minimum(extreme(np.maximum, -1, first, at_step),
                    extreme(np.maximum, -1, down, back)) + 2
    whole = keep_all[at_cell]
    lo = np.where(whole, starts[at_cell], np.maximum(lo, starts[at_cell]))
    hi = np.where(whole, stops[at_cell], np.minimum(hi, stops[at_cell]))
    return at_cell, at_step, lo, hi


def ramp(engine: ReflectionEngine, drives: np.ndarray, alphas: np.ndarray) -> list:
    """Widest profile meeting the amplifier criterion along its ladder, per cell of ``engine``.

    Every cell steps through ``drives``, each along its own ladder of α,
    row ``engine.ladder[cell]`` of ``alphas`` (:func:`policy_ladder`),
    which may end earlier.  At each cell, steps run in ladder order until
    one crosses an oscillation pole or exceeds :data:`GAIN_STOP_DB`;
    profiles at or above :data:`GAIN_THRESHOLD_DB` compete on bandwidth
    under the criterion of :func:`bandwidth_report`, whose limits are read
    at call time.  Steps that can neither stop the ramp nor reach the
    threshold (see :func:`_candidate_steps`) are skipped unevaluated,
    which leaves the result identical to evaluating every step.

    The rest run in rounds over the whole engine.  A round takes the next
    kept steps of every cell that has not stopped, in ladder order, until
    it holds :data:`RAMP_BLOCK_POINTS` grid points (at least one step), and
    evaluates them in one :meth:`ReflectionEngine.gain_db` call on flat
    (α, point) pairs.  Each step is evaluated only on its window, cut at
    min(threshold − prominence, stop level) (see :func:`_candidate_steps`):
    every point outside it is finite and below both the threshold and the
    stop level at that step, so the stop test, the rising-maxima count and
    the widest span, whose edges interpolate against the window's end
    points, read the same numbers from the window as from the whole row.
    The tests are segment reductions over the round's rows, and a row
    counts only while no row of its cell, up to and including it, has
    stopped the ramp.

    An evaluated step is a candidate only when it passes three exact tests,
    each a condition under which its report could not qualify or win: at
    least two strict-rise local maxima at or above threshold (every
    :func:`_peaks` peak, plateau or not, begins with one), ripple of the
    widest span within :data:`RIPPLE_MAX_DB`, and a widest span of positive
    width.  The ramp keeps the widest qualifying profile, the first of
    equal widths, so once the ramp stops, each cell's candidates get a
    full :func:`bandwidth_report` from widest to narrowest, earlier first
    on equal widths, until one qualifies.  Each candidate keeps its window
    of the round's gain and is reported from it alone, reusing the widest
    span its round found, which is the whole row's.  Its peaks are the
    row's too.  Every point outside the window, and the window's end point
    at each end that is no row end, lies below the cut, so more than the
    prominence below any peak at or above threshold.  Such a peak and the
    look-ahead of its plateau lie in the window, and a prominence walk that
    leaves it passes that end point first, which settles the prominence
    test on that side whether the walk reads the window or the row.
    """
    cell, step, lo, hi = _candidate_steps(
        engine, alphas, min(GAIN_THRESHOLD_DB - PEAK_PROMINENCE_DB, GAIN_STOP_DB))
    alpha = alphas[engine.ladder[cell], step]
    size = hi - lo
    queue = np.lexsort((cell, step))   # the rows of every cell, in ladder order
    stopped = np.zeros(len(engine.cells), dtype=bool)
    candidates = [[] for _ in engine.cells]   # (width, ladder index, span, window, gain) each
    while queue.size:
        take = max(1, int(np.searchsorted(np.cumsum(size[queue]), RAMP_BLOCK_POINTS,
                                          side="right")))
        taken, queue = queue[:take], queue[take:]
        ks, cs, n = step[taken], cell[taken], size[taken]
        starts = np.cumsum(n) - n
        at = np.arange(starts[-1] + n[-1]) + np.repeat(lo[taken] - starts, n)
        gain = engine.gain_db(np.repeat(alpha[taken], n), at)
        # the first row past an oscillation pole or above the stop level ends its cell's ramp
        halt = np.logical_or.reduceat(~np.isfinite(gain) | (gain > GAIN_STOP_DB), starts)
        last = np.full(len(engine.cells), alphas.shape[1])
        np.minimum.at(last, cs[halt], ks[halt])
        live = ks < last[cs]
        live &= _rising_maxima(gain, GAIN_THRESHOLD_DB, starts) >= 2
        if live.any():
            spans = _widest_spans(engine.ws[at], gain, GAIN_THRESHOLD_DB, starts)
            width = spans[1] - spans[0]
            live &= (width > 0.0) & (spans[2] <= RIPPLE_MAX_DB)
            for j in np.flatnonzero(live).tolist():
                window = slice(int(lo[taken[j]]), int(hi[taken[j]]))
                candidates[cs[j]].append((float(width[j]), ks[j], tuple(x[j:j + 1] for x in spans),
                                          window, gain[starts[j]:starts[j] + n[j]].copy()))
        if halt.any():
            stopped[cs[halt]] = True
            queue = queue[~stopped[cell[queue]]]
    results = []
    for found in candidates:
        best, best_drive = None, 0.0
        # a stable sort keeps ladder order among equal widths
        for _, k, span, window, gain in sorted(found, key=lambda x: -x[0]):
            rep = bandwidth_report(engine.ws[window], gain, span=span)
            if rep.qualified:
                best, best_drive = rep, float(drives[k])
                break
        results.append(RampResult(best, best_drive))
    return results


def policy_ladder(design: DesignSpec, i_dcs: Sequence[float], policy: PumpRampPolicy):
    """(drives, alphas) of the pump ramps that ``policy`` runs on ``design`` at each of ``i_dcs``.

    ``alphas`` holds one row per bias, as ``engine.ladder`` indexes them,
    after every bias's resonance is checked, in either mode.  One
    :func:`drive_ladder` call builds every row along the longest ladder's
    ``drives``; a row is NaN past its own end.  In current mode a bias of 0 A
    or a film whose I*₂² overflows (α ≡ 0) has no three-wave mixing: its α
    is inf, so its row is empty.
    """
    omega0s = np.array([design.resonance_at_bias(i_dc) for i_dc in i_dcs])[:, None]
    if policy.mode == "xi3":
        cap = policy.xi3_cap
        budget = None if cap is None else (lambda drive: drive <= cap)
        return drive_ladder(START_XI3, policy.ratio,
                            lambda drive: alpha_for_xi3(drive, omega0s), budget)
    model, i_dc = design.ki_model, np.array(i_dcs, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        empty = (i_dc <= 0) | (np.float64(model.i_star2) ** 2 == np.inf)
    budget = None if model.i_c is None else (lambda drive: i_dc + drive < model.i_c)
    return drive_ladder(START_CURRENT, policy.ratio,
                        lambda drive: np.where(empty, np.inf, modulation_alpha(model, i_dc, drive)),
                        budget)


def sweep(design: DesignSpec, env: EnvironmentModel, grids: Sequence[Tuple[np.ndarray, float]],
          i_dcs: Sequence[float], policy: PumpRampPolicy) -> list:
    """The :func:`ramp` result of every grid at ``i_dcs[0]``, then at ``i_dcs[1]``, and so on.

    Each engine holds as many biases as :data:`MAP_ENGINE_POINTS` allows, at least one.
    """
    per_engine = max(1, MAP_ENGINE_POINTS // max(1, sum(np.size(f) for f, _ in grids)))
    results = []
    for biases in (i_dcs[k:k + per_engine] for k in range(0, len(i_dcs), per_engine)):
        engine = ReflectionEngine(design, env, grids, biases)
        results += ramp(engine, *policy_ladder(design, biases, policy))
    return results


def pump_bias_map(design: DesignSpec, env: Optional[EnvironmentModel],
                  omega_p_grid: Sequence[float], i_dc_grid: Sequence[float],
                  policy: PumpRampPolicy = PumpRampPolicy(),
                  freq_step: float = MAP_FREQ_STEP) -> list:
    """Best qualifying bandwidth per (omega_p, i_dc) cell, in grid order.

    Cells without any qualifying profile report zero bandwidth.  Output
    order is lexicographic in (omega_p, i_dc).  Each pump frequency is
    one :func:`sweep` over every bias.
    """
    env = env if env is not None else IDEAL_ENV
    omega_p_grid, i_dc_grid = list(omega_p_grid), list(i_dc_grid)
    if not omega_p_grid or not i_dc_grid:
        raise InvalidParameter("map grids must be non-empty")
    if not freq_step > 0:
        raise InvalidParameter("freq_step must be > 0")
    negative = [idc for idc in i_dc_grid if not idc >= 0]
    if negative:
        raise InvalidParameter(f"bias current i_dc must be >= 0, got {negative[0]:.4g} A")
    check_grid_points(2.0 * FREQ_HALF_SPAN / freq_step, "map frequency grid")
    cells = []
    for wp in omega_p_grid:
        ws = np.arange(wp / 2 - FREQ_HALF_SPAN, wp / 2 + FREQ_HALF_SPAN, freq_step)
        if not ws.size:
            raise InvalidParameter(f"signal grid of pump frequency {wp / (2 * np.pi):.6g} Hz holds "
                                   "no points: its ±1.2-GHz span rounds away in floating point")
        if not np.all(np.diff(ws) > 0):
            raise InvalidParameter(f"signal grid of pump frequency {wp / (2 * np.pi):.6g} Hz repeats "
                                   f"points: its {freq_step / (2e6 * np.pi):.6g}-MHz step rounds away "
                                   "in floating point")
        for idc, res in zip(i_dc_grid, sweep(design, env, [(ws, wp)], i_dc_grid, policy)):
            rep = res.report
            cells.append(MapCell(wp, idc, rep.bandwidth, rep.peak_count, rep.ripple_db, res.drive)
                         if rep else MapCell(wp, idc, 0.0, 0, 0.0, 0.0))
    return cells


def rnr_power_law(design: DesignSpec, xi3_grid: Sequence[float], omega_p: float,
                  i_dc: float = 0.0) -> dict:
    """Power-law fit of the node negative resistance against |xi3|.

    Evaluates R_NR = -1/Re[Y_eff] at ω_s = ω_p/2 in the ideal environment
    for each grid value; points without gain are excluded.  Returns the
    log-log slope (exponent), the prefactor, and the retained points.
    """
    xi3 = np.asarray(sorted(xi3_grid), dtype=float)
    if xi3.size < 2 or xi3[0] <= 0:
        raise InvalidParameter("xi3 grid must hold positive values")
    if xi3[-1] / xi3[0] < np.sqrt(10.0):
        raise InvalidParameter("xi3 grid must span at least half a decade")
    engine = ReflectionEngine(design, IDEAL_ENV, [(np.array([omega_p / 2.0]), omega_p)], [i_dc])
    rs, xs = [], []
    for x, alpha in zip(xi3, alpha_for_xi3(xi3, design.resonance_at_bias(i_dc))):
        if alpha >= 1:
            continue
        y = engine.y_eff(alpha)[0]
        if np.isfinite(y) and y.real < 0:
            rs.append(-1.0 / y.real)
            xs.append(x)
    if len(xs) < 4:
        raise InsufficientData(f"only {len(xs)} grid points produced gain")
    slope, intercept = np.polyfit(np.log(xs), np.log(rs), 1)
    return {
        "exponent": float(slope),
        "prefactor": float(np.exp(intercept)),
        "xi3": np.array(xs),
        "r_nr": np.array(rs),
    }
