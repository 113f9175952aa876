"""Brute-force design-space exploration of the reflection amplifier.

Sweeps line impedances, resonator impedance, and pump frequency on a grid;
at each point the amplification strength is ramped until the gain blows
past 40 dB, and the widest qualifying two-peak bandwidth is recorded
together with its drive strength and the pump efficiency eta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .circuits import CIRCUIT_KINDS, IDEAL_ENV, DesignSpec, circuit_kind_of
from .errors import InvalidParameter
from .material import KineticInductorModel
from .simulator import FREQ_HALF_SPAN, PumpRampPolicy, grid_axis, sweep

TWO_PI = 2.0 * math.pi
# the search ramps |xi3| in 2-% steps over a 4-MHz signal grid
SEARCH_RAMP = PumpRampPolicy(mode="xi3", ratio=1.02)
SEARCH_FREQ_STEP = TWO_PI * 4e6


@dataclass(frozen=True)
class SearchRanges:
    """Grid definition: (lo, hi, step) per swept axis, fixed rest.

    ``z_ki`` is the high-impedance quarter-wave line of the three-stage
    circuit; None searches the conventional circuit, which has no such line.
    """

    z_quarter_range: Tuple[float, float, float]
    z_half_range: Tuple[float, float, float]
    z_nr_range: Tuple[float, float, float]
    omega_p_half_range: Tuple[float, float, float]   # rad/s, pump HALF frequency
    z_ki: Optional[float]
    omega0: float                                    # rad/s, resonator design point

    def __post_init__(self):
        if self.z_ki is not None and not self.z_ki > 0:
            raise InvalidParameter("three-stage search needs z_ki > 0")
        if not self.omega0 > 0:
            raise InvalidParameter("omega0 must be > 0")
        for name, rng in (("z14", self.z_quarter_range), ("z12", self.z_half_range),
                          ("znr", self.z_nr_range)):
            if not rng[0] > 0:
                raise InvalidParameter(f"{name} axis must start above 0 ohm, got {rng[0]:g}")
        object.__setattr__(self, "_axes", tuple(grid_axis(*rng, what) for what, rng in (
            ("z14 axis", self.z_quarter_range), ("z12 axis", self.z_half_range),
            ("znr axis", self.z_nr_range),
            ("pump half-frequency axis (rad/s)", self.omega_p_half_range))))

    @property
    def circuit_kind(self) -> str:
        return circuit_kind_of(self.z_ki)

    def axes(self):
        """(z14s, z12s, z_nrs, omega_p_halfs), each a list of axis values."""
        return self._axes


def default_ranges(circuit_kind: str = "three-stage") -> SearchRanges:
    """Desk-scale sweep: 10-ohm / 0.25-GHz steps, resonator fixed at 8 GHz."""
    if circuit_kind not in CIRCUIT_KINDS:
        raise InvalidParameter(f"unknown circuit kind {circuit_kind!r}")
    f0 = TWO_PI * 8.0e9
    if circuit_kind == "three-stage":
        z_nr = (50.0, 100.0, 10.0)
        z_ki = 150.0
    else:
        # the conventional circuit only suits low resonator impedances; the
        # model keeps qualifying at ever larger z_nr if the pump strength is
        # allowed to grow without bound, so the sweep imposes the envelope
        z_nr = (2.0, 10.0, 2.0)
        z_ki = None
    return SearchRanges(
        z_quarter_range=(30.0, 100.0, 10.0),
        z_half_range=(30.0, 100.0, 10.0),
        z_nr_range=z_nr,
        omega_p_half_range=(TWO_PI * 7.5e9, TWO_PI * 8.5e9, TWO_PI * 0.25e9),
        z_ki=z_ki,
        omega0=f0,
    )


@dataclass(frozen=True)
class DesignRecord:
    z_quarter: float
    z_half: float
    z_nr: float
    omega_p_half: float     # rad/s
    max_bandwidth: float    # rad/s
    optimal_xi3: float      # rad/s
    eta: float              # max_bandwidth / optimal_xi3
    omega0: float           # rad/s, resonator design point of the search


def _design_for(ranges: SearchRanges, z14: float, z12: float, z_nr: float):
    l0 = z_nr / ranges.omega0
    c = 1.0 / (z_nr * ranges.omega0)
    model = KineticInductorModel("parabolic", l_k0=l0, l_geo=0.0)
    return DesignSpec(z14, z12, ranges.z_ki, c, model, ranges.omega0)


def search_designs(ranges: SearchRanges,
                   xi3_cap: Optional[float] = None) -> Iterator[DesignRecord]:
    """Yield one record per qualifying grid point, in lexicographic order.

    At each grid point |xi3| grows along the :data:`SEARCH_RAMP` ladder,
    up to ``xi3_cap`` (rad/s) when one is given, until the maximum gain
    passes 40 dB (or an oscillation pole is crossed); profiles that meet
    the amplifier criterion along the way compete for the recorded maximum
    bandwidth.  The cells of one (z14, z12, z_nr) row share their design
    and drive ladder, so each row is one engine over all of its cells.
    """
    policy = replace(SEARCH_RAMP, xi3_cap=xi3_cap)
    z14s, z12s, znrs, fp2s = ranges.axes()
    cells = _row_grids(fp2s)
    for z14, z12, z_nr in itertools.product(z14s, z12s, znrs):
        yield from _search_row(ranges, z14, z12, z_nr, cells, policy)


def _row_grids(fp2s) -> list:
    """(wp2, ws, wp) of each pump-axis cell; cells under 16 grid points are dropped."""
    cells = []
    for wp2 in fp2s:
        wp = 2.0 * wp2
        ws = np.arange(wp2 - FREQ_HALF_SPAN, wp2 + FREQ_HALF_SPAN, SEARCH_FREQ_STEP)
        ws = ws[(ws > 0) & (wp - ws > 0)]
        if ws.size >= 16:
            cells.append((wp2, ws, wp))
    return cells


def _search_row(ranges, z14, z12, z_nr, cells, policy) -> List[DesignRecord]:
    """Records of the row (z14, z12, z_nr) over its pump-axis ``cells``."""
    design = _design_for(ranges, z14, z12, z_nr)
    if not cells:
        return []
    results = sweep(design, IDEAL_ENV, [(ws, wp) for _, ws, wp in cells], [0.0], policy)
    return [DesignRecord(z14, z12, z_nr, wp2, res.report.bandwidth, res.drive,
                         res.report.bandwidth / res.drive, ranges.omega0)
            for (wp2, _, _), res in zip(cells, results) if res.report is not None]


@dataclass(frozen=True)
class ZnrAggregate:
    z_nr: float
    mean_bandwidth: float
    std_bandwidth: float
    max_eta: float
    min_eta: float
    max_bandwidth: float
    capacitance: float
    count: int


def aggregate_by_znr(records: Sequence[DesignRecord]) -> List[ZnrAggregate]:
    """Per-z_nr statistics over qualifying records, ordered by z_nr."""
    records = list(records)
    if not records:
        return []
    by_znr = {}
    for rec in records:
        by_znr.setdefault(rec.z_nr, []).append(rec)
    out = []
    for z_nr in sorted(by_znr):
        group = by_znr[z_nr]
        bws = np.array([r.max_bandwidth for r in group])
        etas = np.array([r.eta for r in group])
        out.append(ZnrAggregate(
            z_nr=z_nr,
            mean_bandwidth=float(bws.mean()),
            std_bandwidth=float(bws.std()),
            max_eta=float(etas.max()),
            min_eta=float(etas.min()),
            max_bandwidth=float(bws.max()),
            capacitance=1.0 / (group[0].omega0 * z_nr),
            count=len(group),
        ))
    return out


def required_capacitance(aggregates: Sequence[ZnrAggregate],
                         fractional_bandwidth: float, omega0: float) -> float:
    """Smallest shunt capacitance whose z_nr bin reaches the target bandwidth.

    A bin qualifies when its best recorded bandwidth is at least
    ``fractional_bandwidth``·omega0; returns inf when no bin qualifies.
    """
    target = fractional_bandwidth * omega0
    winners = [agg.capacitance for agg in aggregates if agg.max_bandwidth >= target]
    return min(winners) if winners else math.inf
