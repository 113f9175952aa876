"""Command-line front end: config ingestion, presets, sweeps, tabular output.

Commands: synth, simulate, map, search, fit-ki, fit-qubit, noise.
All user-facing frequencies are ordinary Hz (angular conversion happens
internally); values carry units like ``8.4GHz``, ``56 ohm``, ``330fF``,
``0.57mA``, ``-29.6dBm``.  Exit codes: 0 success, 1 validation error,
2 numerical failure, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import re
import sys
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import material, noise as noise_mod, presets, search as search_mod
from . import simulator, synthesis
from .circuits import DesignSpec, EnvironmentModel
from .errors import ConfigError, InvalidParameter, NumericalError, ValidationError
from .material import KineticInductorModel
from .simulator import PumpDrive, PumpRampPolicy

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


# ---------------------------------------------------------------- units

_UNIT_TABLE = {
    # frequency -> Hz
    "hz": ("frequency", 1.0), "khz": ("frequency", 1e3), "mhz": ("frequency", 1e6),
    "ghz": ("frequency", 1e9),
    # impedance -> ohm
    "ohm": ("impedance", 1.0), "ohms": ("impedance", 1.0),
    "kohm": ("impedance", 1e3),
    # capacitance -> F
    "ff": ("capacitance", 1e-15), "pf": ("capacitance", 1e-12),
    "nf": ("capacitance", 1e-9), "f": ("capacitance", 1.0),
    # inductance -> H
    "ph": ("inductance", 1e-12), "nh": ("inductance", 1e-9),
    "uh": ("inductance", 1e-6), "h": ("inductance", 1.0),
    # current -> A
    "ua": ("current", 1e-6), "ma": ("current", 1e-3), "a": ("current", 1.0),
    # time -> s
    "ns": ("time", 1e-9), "us": ("time", 1e-6), "ps": ("time", 1e-12), "s": ("time", 1.0),
    # angles
    "rad": ("angle", 1.0), "pi": ("angle", math.pi), "deg": ("angle", math.pi / 180.0),
}

_Qty = Tuple[float, str]
_Columns = Mapping[str, Sequence]
_NUM_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-ZΩ]*)\s*$")


def parse_quantity(text: str) -> _Qty:
    """Parse ``'8.4GHz'``-style values into SI units plus a dimension tag.

    dBm becomes watts ("power"); dB becomes a linear power ratio ("ratio");
    a bare number is tagged "none".
    """
    s = text.strip()
    m = _NUM_RE.match(s)
    if not m:
        raise InvalidParameter(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    if not math.isfinite(value):
        raise InvalidParameter(f"quantity {text!r} is not finite")
    unit = m.group(2)
    low = unit.replace("Ω", "ohm").lower()
    try:
        if not unit:
            qty, kind = value, "none"
        elif low == "dbm":
            qty, kind = 10.0 ** ((value - 30.0) / 10.0), "power"
        elif low == "db":
            qty, kind = 10.0 ** (value / 10.0), "ratio"
        elif low in _UNIT_TABLE:
            kind, mult = _UNIT_TABLE[low]
            qty = value * mult
        else:
            raise InvalidParameter(f"unknown unit {unit!r} in {text!r}")
    except OverflowError:
        qty = math.inf
    if not math.isfinite(qty):
        raise InvalidParameter(f"quantity {text!r} overflows in SI units")
    if kind == "frequency" and not math.isfinite(TWO_PI * qty):
        raise InvalidParameter(f"frequency {text!r} overflows in rad/s")
    return qty, kind


def parse_span(text: str) -> Tuple[float, float, float]:
    """``7.9GHz:8.9GHz:1MHz`` -> (start, stop, step) in SI units.

    The three parts must share one dimension (bare numbers mix freely).
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameter(f"span must be start:stop:step, got {text!r}")
    vals, kinds = [], set()
    for p in parts:
        v, kind = parse_quantity(p)
        vals.append(v)
        if kind != "none":
            kinds.add(kind)
    if len(kinds) > 1:
        raise InvalidParameter(f"span mixes units: {text!r}")
    start, stop, step = vals
    if not (stop >= start and step > 0):
        raise InvalidParameter(f"span must satisfy stop >= start and step > 0: {text!r}")
    return start, stop, step


# ---------------------------------------------------------------- config

def parse_config(text: str, schema: Dict[str, str]) -> Dict[str, object]:
    """Parse a ``key = value`` document against a per-command schema.

    schema maps key -> expected dimension tag ("frequency", "impedance",
    "current", ..., "str" for raw strings, "span" for range triples).
    Unknown keys and dimension mismatches raise with line/column info.
    """
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno,
                              column=len(line) - len(line.lstrip()) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            col = raw.index(key) + 1 if key in raw else 1
            raise ConfigError(f"unknown key {key!r}", line=lineno, column=col)
        if not value:
            raise ConfigError(f"key {key!r} has no value", line=lineno)
        try:
            out[key] = _coerce(value, schema[key])
        except (InvalidParameter, ValueError) as exc:
            raise ConfigError(f"key {key!r}: {exc}", line=lineno) from None
    return out


def _coerce(value: str, want: str):
    if want == "str":
        return value
    if want == "span":
        return parse_span(value)
    qty, kind = parse_quantity(value)
    if kind not in (want, "none"):
        raise InvalidParameter(f"expected {want}, got {kind} ({value!r})")
    if want == "impedance" and qty <= 0:
        raise InvalidParameter(f"impedance must be positive, got {value!r}")
    return qty


# ---------------------------------------------------------------- output

def format_number(x) -> str:
    """Serialize a value: numbers carry 12 significant digits."""
    if isinstance(x, float):  # includes np.float64
        return "%.12g" % x    # spells inf, -inf and nan
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return "%.12g" % float(x)


def _json_value(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    xf = float(format_number(x))
    return xf if math.isfinite(xf) else format_number(xf)


def emit_results(columns: _Columns, fmt: str = "csv") -> str:
    """Render {column name: values} as CSV or structured JSON.

    Float64 array columns go through one ``%.12g`` row template, other
    columns (lists, integer arrays) through ``format_number``.
    """
    names, cols = list(columns), list(columns.values())
    if len(set(map(len, cols))) > 1:
        raise ValueError(f"columns {names} differ in length")
    if fmt == "csv":
        floats = [isinstance(v, np.ndarray) and v.dtype == np.float64 for v in cols]
        cells = [v.tolist() if f else list(map(format_number, v)) for v, f in zip(cols, floats)]
        row = ",".join(["%.12g" if f else "%s" for f in floats]) + "\n"
        return ",".join(names) + "\n" + "".join([row % values for values in zip(*cells)])
    if fmt == "structured":
        cells = [v.tolist() if isinstance(v, np.ndarray) else v for v in cols]
        rows = [dict(zip(names, map(_json_value, values))) for values in zip(*cells)]
        return json.dumps({"columns": names, "records": rows}, indent=2) + "\n"
    raise InvalidParameter(f"unknown output format {fmt!r}")


def _write_out(payload: str, path: Optional[str]):
    if path is None or path == "-":
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


# ---------------------------------------------------------------- design/env assembly

# an inline design is three-stage when it gives z_ki_quarter, else conventional
_DESIGN_KEYS = {
    "preset": "str", "z_quarter": "impedance", "z_half": "impedance",
    "z_ki_quarter": "impedance", "c_shunt": "capacitance", "f0": "frequency",
    "model_kind": "str", "l_k0": "inductance", "l_geo": "inductance",
    "i_star2": "current", "i_star4": "current", "i_star_star": "current",
    "i_c": "current",
}

_PUMP_KEYS = {"idc": "current", "fp": "frequency", "xi3": "frequency", "ip": "current"}

_ENV_KEYS = {"env": "str", "env_z0": "impedance",
             "env_z1": "impedance", "env_tau1": "time", "env_phi1": "angle",
             "env_z2": "impedance", "env_tau2": "time", "env_phi2": "angle"}


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise InvalidParameter(f"missing required key(s): {', '.join(missing)}")


def _build_design(cfg: dict):
    name = cfg.get("preset")
    if name is not None:
        design = presets.design_preset(name)
        if any(k in cfg for k in _DESIGN_KEYS if k not in ("preset",)):
            raise InvalidParameter("preset designs take no inline design keys")
        return design
    missing = [k for k in ("z_quarter", "z_half", "c_shunt", "f0") if k not in cfg]
    if missing:
        raise InvalidParameter(f"inline design missing keys: {missing}")
    kind = cfg.get("model_kind", "parabolic")
    model = KineticInductorModel(
        model_kind=kind,
        l_k0=cfg.get("l_k0", 1e-9),
        l_geo=cfg.get("l_geo", 0.0),
        i_star2=cfg.get("i_star2", math.inf),
        i_star4=cfg.get("i_star4"),
        i_star_star=cfg.get("i_star_star"),
        i_c=cfg.get("i_c"),
    )
    return DesignSpec(
        z_quarter=cfg["z_quarter"],
        z_half=cfg["z_half"],
        z_ki_quarter=cfg.get("z_ki_quarter"),
        c_shunt=cfg["c_shunt"],
        ki_model=model,
        f0=TWO_PI * cfg["f0"],
    )


def _build_env(cfg: dict) -> Optional[EnvironmentModel]:
    inline = [k for k in _ENV_KEYS if k != "env" and k in cfg]
    name = cfg.get("env")
    if name is not None:
        env = presets.env_preset(name)
        if inline:
            raise InvalidParameter(f"environment presets take no inline env_* keys, got {inline[0]}")
        return env
    terms = []
    for i in ("1", "2"):
        for key in (f"env_tau{i}", f"env_phi{i}"):
            if key in cfg and f"env_z{i}" not in cfg:
                raise InvalidParameter(f"{key} needs its ripple amplitude env_z{i}")
        if f"env_z{i}" in cfg:
            terms.append((cfg[f"env_z{i}"], cfg.get(f"env_tau{i}", 0.0),
                          cfg.get(f"env_phi{i}", 0.0)))
    return EnvironmentModel(z0=cfg.get("env_z0", 50.0), terms=tuple(terms)) if inline else None


def _build_pump(cfg: dict, design) -> PumpDrive:
    if "fp" not in cfg:
        raise InvalidParameter("pump frequency 'fp' is required")
    omega_p = TWO_PI * cfg["fp"]
    i_dc = cfg.get("idc", presets.PAPER_DEVICE_BIAS if cfg.get("preset") else 0.0)
    if "xi3" in cfg:
        if "ip" in cfg:
            raise InvalidParameter("give either xi3 or ip, not both")
        return PumpDrive(xi3_mag=TWO_PI * cfg["xi3"], omega_p=omega_p, i_dc=i_dc)
    if "ip" in cfg:
        op = material.PumpOperatingPoint(i_dc=i_dc, i_p_mag=cfg["ip"])
        coeffs = material.pump_coefficients(design.ki_model, op, design.resonance_at_bias(i_dc))
        return PumpDrive(xi3_mag=abs(coeffs.xi3), omega_p=omega_p, i_dc=i_dc)
    return PumpDrive(xi3_mag=0.0, omega_p=omega_p, i_dc=i_dc)


# ---------------------------------------------------------------- commands

def _cmd_synth(cfg: dict) -> _Columns:
    _require(cfg, "epsilon", "z_nr", "z_ki")
    proto = synthesis.PrototypeCoefficients(
        g0=cfg.get("g0", synthesis.GETSINGER_17DB[0]),
        g1=cfg.get("g1", synthesis.GETSINGER_17DB[1]),
        g2=cfg.get("g2", synthesis.GETSINGER_17DB[2]),
        g3=cfg.get("g3", synthesis.GETSINGER_17DB[3]),
        epsilon=cfg["epsilon"],
    )
    res = synthesis.synthesize_transformer(proto, z_nr=cfg["z_nr"],
                                           z_ki=cfg["z_ki"], z0=cfg.get("z0", 50.0))
    return {name: [getattr(res, name)] for name in ("z_ref", "z_quarter", "z_parallel", "z_half",
                                                      "z_nr_primed", "r_nr_primed", "residual")}


def _hz_grid(start: float, stop: float, step: float):
    """A parsed span's frequencies: each start + k·step below stop - 1e-9·step, at least one."""
    simulator.check_grid_points((stop - start) / step, f"grid {start:g}:{stop:g}:{step:g}")
    n = math.ceil((stop - start) / step - 1e-9)
    return start + step * np.arange(max(n, 1))


def _cmd_simulate(cfg: dict) -> _Columns:
    design = _build_design(cfg)
    env = _build_env(cfg)
    pump = _build_pump(cfg, design)
    start, stop, step = cfg.get("span", (7.9e9, 8.9e9, 1e6))
    freqs = TWO_PI * _hz_grid(start, stop, step)
    profile = simulator.gain_spectrum(design, pump, env, freqs)
    return {"freq_hz": profile.freqs / TWO_PI, "re_s11": profile.s11.real,
            "im_s11": profile.s11.imag, "gain_db": profile.gain_db}


def _cmd_map(cfg: dict) -> _Columns:
    _require(cfg, "fp_span", "idc_start", "idc_stop", "idc_step")
    design = _build_design(cfg)
    env = _build_env(cfg)
    fp_lo, fp_hi, fp_step = cfg["fp_span"]
    idc_lo, idc_hi, idc_step = cfg["idc_start"], cfg["idc_stop"], cfg["idc_step"]
    fps = TWO_PI * np.array(simulator.grid_axis(fp_lo, fp_hi, fp_step, "pump grid"))
    idcs = np.array(simulator.grid_axis(idc_lo, idc_hi, idc_step, "bias grid"))
    policy = PumpRampPolicy(mode=cfg.get("policy", "current"))
    freq_step = TWO_PI * cfg["freq_step"] if "freq_step" in cfg else simulator.MAP_FREQ_STEP
    cells = simulator.pump_bias_map(design, env, fps, idcs, policy, freq_step)
    return {
        "fp_hz": [c.omega_p / TWO_PI for c in cells], "idc_a": [c.i_dc for c in cells],
        "bandwidth_hz": [c.bandwidth / TWO_PI for c in cells],
        "peaks": [c.peak_count for c in cells], "ripple_db": [c.ripple_db for c in cells],
    }


def _cmd_search(cfg: dict) -> _Columns:
    base = search_mod.default_ranges(cfg.get("kind", "three-stage"))
    if "z_ki" in cfg and base.z_ki is None:
        raise InvalidParameter("the conventional circuit has no z_ki line")
    def _rng(key, default, scale=1.0):
        if key in cfg:
            lo, hi, st = cfg[key]
            return (lo * scale, hi * scale, st * scale)
        return default
    ranges = search_mod.SearchRanges(
        z_quarter_range=_rng("z14", base.z_quarter_range),
        z_half_range=_rng("z12", base.z_half_range),
        z_nr_range=_rng("znr", base.z_nr_range),
        omega_p_half_range=_rng("fp2", base.omega_p_half_range, TWO_PI),
        z_ki=cfg.get("z_ki", base.z_ki),
        omega0=TWO_PI * cfg["f0"] if "f0" in cfg else base.omega0,
    )
    found = list(search_mod.search_designs(ranges))
    return {
        "z14": [r.z_quarter for r in found], "z12": [r.z_half for r in found],
        "znr": [r.z_nr for r in found], "fp2_hz": [r.omega_p_half / TWO_PI for r in found],
        "bandwidth_hz": [r.max_bandwidth / TWO_PI for r in found],
        "xi3_hz": [r.optimal_xi3 / TWO_PI for r in found], "eta": [r.eta for r in found],
    }


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParameter(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
                                   f"at offset {exc.start})") from None


def _dbm_to_watts(dbm: np.ndarray, name: str) -> np.ndarray:
    """The dBm column ``name`` in watts by Python's ``**`` per value: it raises
    where numpy's power gives inf, and numpy's SIMD power can differ in the last bit."""
    try:
        return np.array([10.0 ** x for x in ((dbm - 30.0) / 10.0).tolist()])
    except OverflowError:
        raise NumericalError(f"{name} = {dbm.max():.12g} overflows in watts") from None


def _cmd_fit_ki(cfg: dict) -> _Columns:
    _require(cfg, "input")
    data = material.parse_shift_csv(_read_text(cfg["input"]))
    model, rms = material.fit_ki_curve(
        data, cfg.get("model_kind", "quartic"),
        l_k0=cfg.get("l_k0", 1.0), l_geo=cfg.get("l_geo", 0.0))
    return {
        "model_kind": [model.model_kind],
        "i_star2_a": [model.i_star2],
        "i_star4_a": [model.i_star4 if model.i_star4 is not None else float("nan")],
        "i_star_star_a": [model.i_star_star if model.i_star_star is not None else float("nan")],
        "rms_residual": [rms],
    }


def _cmd_fit_qubit(cfg: dict) -> _Columns:
    _require(cfg, "input", "fq")
    table = material.parse_csv(_read_text(cfg["input"]),
                               ("detuning_hz", "p_vna_dbm", "re_s21", "im_s21"))
    res = noise_mod.fit_qubit_saturation(
        TWO_PI * table[:, 0], _dbm_to_watts(table[:, 1], "p_vna_dbm"),
        table[:, 2] + 1j * table[:, 3], omega_q=TWO_PI * cfg["fq"], p_ref=cfg.get("p_ref", 1e-11))
    return {"gamma1_hz": [res["gamma_1"] / TWO_PI], "gamma_phi_hz": [res["gamma_phi"] / TWO_PI],
            "drive_ref_hz": [res["drive_ref"] / TWO_PI],
            "a_in_db": [10.0 * math.log10(res["a_in"])], "rms_residual": [res["rms_residual"]]}


def _cmd_noise(cfg: dict) -> _Columns:
    _require(cfg, "input", "gs", "gsys_eff")
    table = material.parse_csv(_read_text(cfg["input"]),
                               ("freq_hz", "p_on_dbm", "p_off_dbm"))
    g_sys_eff = cfg["gsys_eff"]
    bm = cfg.get("bm", 10.0)
    # an overflow shows as a value that is not finite, reported below
    with np.errstate(all="ignore"):
        omega = TWO_PI * table[:, 0]
        n4 = noise_mod.power_to_quanta(_dbm_to_watts(table[:, 1], "p_on_dbm"), omega, bm)
        n4_off = noise_mod.power_to_quanta(_dbm_to_watts(table[:, 2], "p_off_dbm"), omega, bm)
        columns = {
            "freq_hz": table[:, 0], "n4": n4, "n4_off": n4_off,
            "added_noise": noise_mod.added_noise(n4, n4_off, cfg["gs"], g_sys_eff,
                                                 cfg.get("n1", 0.5)),
            "t_sys_k": noise_mod.system_noise_temperature(n4_off, omega, g_sys_eff),
        }
    for name, values in columns.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericalError(f"{name} overflows at freq_hz = {table[bad[0], 0]:.12g} "
                                 f"(gs = {cfg['gs']:.4g}, gsys_eff = {g_sys_eff:.4g}, "
                                 f"bm = {bm:.4g} Hz)")
    return columns


# ---------------------------------------------------------------- argparse

class _Command(NamedTuple):
    run: Callable[[dict], _Columns]   # the config's output columns
    schema: Dict[str, str]            # config key -> dimension tag (see parse_config)


_COMMANDS = {
    "synth": _Command(_cmd_synth, {
        "epsilon": "none", "g0": "none", "g1": "none", "g2": "none", "g3": "none",
        "z_nr": "impedance", "z_ki": "impedance", "z0": "impedance"}),
    "simulate": _Command(_cmd_simulate, {**_DESIGN_KEYS, **_PUMP_KEYS, **_ENV_KEYS,
                                         "span": "span"}),
    "map": _Command(_cmd_map, {
        **_DESIGN_KEYS, **_ENV_KEYS, "fp_span": "span", "idc_start": "current",
        "idc_stop": "current", "idc_step": "current", "policy": "str",
        "freq_step": "frequency"}),
    "search": _Command(_cmd_search, {
        "kind": "str", "z14": "span", "z12": "span", "znr": "span", "fp2": "span",
        "z_ki": "impedance", "f0": "frequency"}),
    "fit-ki": _Command(_cmd_fit_ki, {
        "input": "str", "model_kind": "str", "l_k0": "inductance", "l_geo": "inductance"}),
    "fit-qubit": _Command(_cmd_fit_qubit, {"input": "str", "fq": "frequency", "p_ref": "power"}),
    "noise": _Command(_cmd_noise, {
        "input": "str", "gs": "ratio", "gsys_eff": "ratio", "bm": "frequency", "n1": "none"}),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as one ``error:`` line and exit code 1."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value parameter file")
    common.add_argument("--preset", help="named design preset")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=["csv", "structured"], default="csv")
    common.add_argument("--threads", type=int,
                        help="accepted and ignored: commands run serially")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")
    # common shorthand overrides
    common.add_argument("--idc", help="dc bias, e.g. 0.57mA")
    common.add_argument("--fp", help="pump frequency, e.g. 16.9GHz")
    common.add_argument("--xi3", help="amplification strength as a frequency, e.g. 1.3GHz")
    common.add_argument("--span", help="frequency span start:stop:step")
    common.add_argument("--input", help="input data file (fit/noise commands)")
    parser = _Parser(
        prog="kipa",
        description="Kinetic-inductance parametric amplifier design toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _gather_config(args, schema) -> dict:
    text = ""
    if args.config:
        text = _read_text(args.config)
    cfg = parse_config(text, schema)
    overrides = list(args.set)
    for key in ("idc", "fp", "xi3", "span", "input", "preset"):
        val = getattr(args, key, None)
        if val is not None:
            overrides.append(f"{key}={val}")
    for item in overrides:
        if "=" not in item:
            raise InvalidParameter(f"override must be KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise InvalidParameter(f"unknown key {key!r} for this command")
        cfg[key] = _coerce(value, schema[key])
    return cfg


_PARSER: Optional[argparse.ArgumentParser] = None


# glibc returns freed memory at the top of the heap to the OS once it
# exceeds M_TRIM_THRESHOLD (128 KiB until a large free raises it).  A desk
# search row frees ~0.5 MB of temporaries, so without a higher threshold the
# next row faults them back in: 125-196 minor faults and 0.2-0.6 ms of system
# time per row, against ~0.1 faults at 64 MiB (20 rows after a warm-up pass,
# glibc 2.36 on a 2-vCPU Xeon VM).  64 MiB is the most glibc's own dynamic
# threshold reaches.  Freed heap then stays resident between commands; the
# peak RSS of search, map and calibration runs did not rise with it.
_M_TRIM_THRESHOLD = -1   # the option number in glibc's <malloc.h>
_TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Raise glibc's heap trim threshold; does nothing where mallopt is absent."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the parser is built and the heap set up on the first call."""
    global _PARSER
    if _PARSER is None:
        _keep_freed_heap()
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        columns = command.run(_gather_config(args, command.schema))
        _write_out(emit_results(columns, args.format), args.out)
        return EXIT_OK
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
