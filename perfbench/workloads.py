"""Seeded request streams of the benchmark workloads and the checks on their outputs.

Every request is one in-process call of ``kipa.cli.main`` with an argv and,
for the file-reading commands, one input file written before the call.  The
seed fixes the whole stream; the program sees only the argv and the files.
Inputs are generated here from closed forms, not from kipa, so that a change
to the library cannot also change what its output is checked against.
"""
from __future__ import annotations

import gzip
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Output check: numbers within this relative (or, near zero, absolute)
# distance of the reference; text fields, row counts and non-finite values
# must match exactly.  The CLI prints 12 significant digits, so this
# admits last-digit changes from reordered arithmetic and nothing more.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# ----------------------------------------------------------------- search-desk
# Axes of search.default_ranges: z14 and z12 (30..100 ohm in 10-ohm steps)
# are shared by both circuit kinds, z_nr is per kind.  Each request is one
# row of the desk search: one (z14, z12, z_nr) over the full fp2 axis.
SEARCH_KINDS = ("three-stage", "conventional")
SEARCH_AXIS_OHM = tuple(range(30, 101, 10))
SEARCH_ZNR_OHM = {"three-stage": tuple(range(50, 101, 10)), "conventional": (2, 4, 6, 8, 10)}
SEARCH_ROW_CELLS = 5      # fp2 from 7.5 to 8.5 GHz in 0.25-GHz steps

# ----------------------------------------------------------------- map-rippled
# Lines of two cells, one pump frequency and two bias currents, on a lattice
# around the paper operating point (16.9 GHz, 0.57 mA).  The references are
# stored as 2x2-cell windows; every line the seed can draw lies in one.
MAP_FP_MHZ = tuple(range(16800, 17001, 20))
MAP_IDC_UA = tuple(range(510, 631, 20))
MAP_WINDOWS = tuple((fp, idc) for fp in MAP_FP_MHZ[:-1] for idc in MAP_IDC_UA[:-1])
MAP_LINES = tuple((fp, idc) for fp in MAP_FP_MHZ for idc in MAP_IDC_UA[:-1])

# ----------------------------------------------------------------- calibrate-cli
SIM_XI3_MHZ = (2000, 2100, 2200, 2300, 2400, 2500, 2570)
# The mix is a choice, not measured traffic: no source gives the shares of a
# calibration session, so each command gets an equal share, and one slot in
# sixteen is a malformed probe.  Requests are dealt from a shuffled deck of
# this make-up, so every seed sends the same mix and only the order differs.
CALIBRATE_COMMANDS = ("simulate", "fit-ki", "fit-qubit", "noise", "synth")
CALIBRATE_DECK = CALIBRATE_COMMANDS * 3 + ("probe",)
PROBE_FAULTS = ("empty", "truncated", "non-numeric", "unknown-key")

HBAR = 1.054571817e-34    # J s
K_B = 1.380649e-23        # J/K
TWO_PI = 2.0 * math.pi

# Film scales of the NbTiN nanowire (paper-device); the Clem scale is the one
# that describes the same film with the single-parameter law.
KI_L_K0, KI_L_GEO = 0.8e-9, 0.2e-9
KI_TRUTH = {
    "parabolic": {"i_star2_a": 3.25e-3},
    "quartic": {"i_star2_a": 3.25e-3, "i_star4_a": 1.7e-3},
    "clem": {"i_star_star_a": 1.65e-3},
}
KI_NOISE = 1e-5           # absolute noise on the fractional shift
KI_TOL = 1e-2             # relative tolerance on fitted current scales
QUBIT_NOISE = 1e-4        # absolute noise on Re and Im of S21
QUBIT_RATE_TOL = 2e-2     # relative tolerance on fitted gamma_1 and gamma_phi
QUBIT_AIN_TOL_DB = 0.1    # absolute tolerance on the fitted input attenuation
NOISE_TOL = 1e-6          # relative tolerance on the noise-cascade rows
SYNTH_G = (1.0, 0.408, 0.234, 1.106)

Check = Callable[[int, str, str], Optional[str]]


@dataclass
class Request:
    """One CLI call: its argv, input files, and the check on its outcome.

    ``check(exit_code, stdout, stderr)`` returns None when the outcome is
    correct and a one-line reason otherwise.  ``valid`` is False for the
    malformed-input probes, whose correct outcome is exit code 1, 2 or 3.
    """

    command: str
    argv: List[str]
    check: Check
    files: Dict[str, str] = field(default_factory=dict)
    cells: int = 0
    valid: bool = True


# ----------------------------------------------------------------- comparison

def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_csv(got: str, want: str) -> Optional[str]:
    """None when ``got`` matches the reference CSV ``want`` within tolerance."""
    g, w = got.splitlines(), want.splitlines()
    if not g or g[0] != w[0]:
        return f"header {g[:1]} differs from the reference {w[:1]}"
    if len(g) != len(w):
        return f"{len(g) - 1} rows, the reference has {len(w) - 1}"
    for k, (gl, wl) in enumerate(zip(g[1:], w[1:]), start=1):
        gf, wf = gl.split(","), wl.split(",")
        if len(gf) != len(wf) or not all(map(_same, gf, wf)):
            return f"row {k} is {gl!r}, the reference has {wl!r}"
    return None


def _expect_csv(want: str) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        return compare_csv(out, want)
    return check


def _single_row(out: str) -> Dict[str, str]:
    lines = out.splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _expect_values(want: Dict[str, object], rel: Dict[str, float],
                   absolute: Dict[str, float] = None) -> Check:
    """Check a one-row output: text fields exactly, numbers within tolerance."""
    absolute = absolute or {}

    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        try:
            row = _single_row(out)
        except ValueError as exc:
            return str(exc)
        for key, value in want.items():
            if key not in row:
                return f"column {key!r} missing"
            if isinstance(value, str):
                if row[key] != value:
                    return f"{key} = {row[key]!r}, expected {value!r}"
                continue
            got = float(row[key])
            if not math.isclose(got, value, rel_tol=rel.get(key, 0.0),
                                abs_tol=absolute.get(key, 0.0)):
                return f"{key} = {got!r}, expected {value!r}"
        return None
    return check


def _expect_rows(want: List[Dict[str, float]], tol: float) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        lines = out.splitlines()
        if len(lines) != len(want) + 1:
            return f"{len(lines) - 1} rows, expected {len(want)}"
        header = lines[0].split(",")
        for k, (line, expected) in enumerate(zip(lines[1:], want), start=1):
            row = dict(zip(header, map(float, line.split(","))))
            for key, value in expected.items():
                if not math.isclose(row.get(key, math.nan), value, rel_tol=tol):
                    return f"row {k}: {key} = {row.get(key)!r}, expected {value!r}"
        return None
    return check


def _expect_rejection(rc, out, err):
    if rc in (1, 2, 3):
        return None
    return f"malformed input ended with exit code {rc}, not 1, 2 or 3"


# ----------------------------------------------------------------- references

def load_search_reference():
    """{kind: {(z14, z12, z_nr): csv text}} from the full desk-search record streams."""
    out = {}
    for kind in SEARCH_KINDS:
        lines = (REFERENCE_DIR / f"search-{kind}.csv").read_text().splitlines()
        header, rows = lines[0], {}
        for line in lines[1:]:
            key = tuple(int(float(v)) for v in line.split(",")[:3])
            rows.setdefault(key, []).append(line)
        out[kind] = {(a, b, n): "\n".join([header] + rows.get((a, b, n), [])) + "\n"
                     for a in SEARCH_AXIS_OHM for b in SEARCH_AXIS_OHM
                     for n in SEARCH_ZNR_OHM[kind]}
    return out


def load_map_reference():
    """{(fp MHz, idc uA): csv text} for every line, cut from the stored windows."""
    windows = load_json_gz("map-windows.json.gz")
    out = {}
    for fp, idc in MAP_LINES:
        window = windows[map_key(min(fp, MAP_FP_MHZ[-2]), idc)].splitlines()
        rows = [row for row in window[1:] if int(row.split(",")[0]) == fp * 1_000_000]
        out[(fp, idc)] = "\n".join([window[0]] + rows) + "\n"
    return out


def load_json_gz(name: str) -> dict:
    with gzip.open(REFERENCE_DIR / name, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------- command lines

def search_argv(kind: str, z14: int, z12: int, z_nr: int) -> List[str]:
    return ["search", "--set", f"kind={kind}",
            "--set", f"z14={z14}ohm:{z14}ohm:10ohm",
            "--set", f"z12={z12}ohm:{z12}ohm:10ohm",
            "--set", f"znr={z_nr}ohm:{z_nr}ohm:1ohm"]


def map_key(fp_mhz: int, idc_ua: int) -> str:
    return f"{fp_mhz}MHz/{idc_ua}uA"


def map_argv(fp_mhz: int, idc_ua: int, fp_cells: int = 2) -> List[str]:
    """A serial map of fp_cells pump frequencies x two bias currents from (fp, idc)."""
    fp_stop = fp_mhz + 20 * (fp_cells - 1)
    return ["map", "--preset", "paper-device", "--set", "env=paper-env",
            "--set", "policy=xi3",
            "--set", f"fp_span={fp_mhz}MHz:{fp_stop}MHz:20MHz",
            "--set", f"idc_start={idc_ua}uA", "--set", f"idc_stop={idc_ua + 20}uA",
            "--set", "idc_step=20uA", "--threads", "1"]


def simulate_argv(xi3_mhz: int) -> List[str]:
    return ["simulate", "--preset", "paper-device", "--set", "env=paper-env",
            "--fp", "16.9GHz", "--xi3", f"{xi3_mhz}MHz",
            "--span", "7.9GHz:8.9GHz:1MHz"]


# ----------------------------------------------------------------- streams

def _cycle(rng: random.Random, items) -> Iterator:
    """Endless draws without replacement: reshuffle once all were used."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def search_desk(seed: int, workdir: Path) -> Iterator[Request]:
    """Rows of both kinds' searches, every z_nr in turn; for each kind and
    z_nr the (z14, z12) pairs are drawn without replacement, so every
    stretch of 11 requests holds each z_nr of both kinds once."""
    refs = load_search_reference()
    rng = random.Random(seed)
    pairs = [(a, b) for a in SEARCH_AXIS_OHM for b in SEARCH_AXIS_OHM]
    slots = [(kind, z_nr) for kind in SEARCH_KINDS for z_nr in SEARCH_ZNR_OHM[kind]]
    draws = {slot: _cycle(rng, pairs) for slot in slots}
    while True:
        for kind, z_nr in slots:
            z14, z12 = next(draws[(kind, z_nr)])
            yield Request("search", search_argv(kind, z14, z12, z_nr),
                          _expect_csv(refs[kind][(z14, z12, z_nr)]),
                          cells=SEARCH_ROW_CELLS)


def map_rippled(seed: int, workdir: Path) -> Iterator[Request]:
    """Lines of the rippled paper-device map, drawn without replacement."""
    refs = load_map_reference()
    rng = random.Random(seed)
    for fp, idc in _cycle(rng, MAP_LINES):
        yield Request("map", map_argv(fp, idc, fp_cells=1),
                      _expect_csv(refs[(fp, idc)]), cells=2)


def _fmt(x: float) -> str:
    return repr(float(x))


def _ki_ratio(kind: str, i: float) -> float:
    """L_k(I)/L_k0 of the film law that generates the shift data."""
    scales = KI_TRUTH[kind]
    if kind == "clem":
        return (1.0 - (i / scales["i_star_star_a"]) ** 2.21) ** (-1.0 / 2.21)
    ratio = 1.0 + (i / scales["i_star2_a"]) ** 2
    if kind == "quartic":
        ratio += (i / scales["i_star4_a"]) ** 4
    return ratio


def _fit_ki(rng: random.Random, path: str):
    kind = rng.choice(sorted(KI_TRUTH))
    n = rng.randint(16, 32)
    i_max = rng.uniform(0.9e-3, 1.1e-3)
    part = KI_L_K0 / (KI_L_K0 + KI_L_GEO)
    lines = ["i_dc_A,dfrac"]
    for k in range(n):
        i = 0.05e-3 + (i_max - 0.05e-3) * k / (n - 1)
        dfrac = -0.5 * part * (_ki_ratio(kind, i) - 1.0) + rng.gauss(0.0, KI_NOISE)
        lines.append(f"{_fmt(i)},{_fmt(dfrac)}")
    argv = ["fit-ki", "--input", path, "--set", f"model_kind={kind}",
            "--set", "l_k0=0.8nH", "--set", "l_geo=0.2nH"]
    want = {"model_kind": kind, **KI_TRUTH[kind]}
    rel = {key: KI_TOL for key in KI_TRUTH[kind]}
    return argv, "\n".join(lines) + "\n", _expect_values(want, rel)


def _fit_qubit(rng: random.Random, path: str):
    gamma_1 = TWO_PI * rng.uniform(2e6, 5e6)
    gamma_phi = gamma_1 * rng.uniform(0.25, 0.4)
    a_in_db = rng.uniform(-85.0, -78.0)
    omega_q = TWO_PI * 8.4e9
    gamma_2 = gamma_phi + gamma_1 / 2.0
    # the sweep spans 3-5 dip half-widths either side: the fit starts from
    # a width of a quarter of the window and misses the minimum once the
    # window is much wider than that (about 7 half-widths either side)
    half_hz = rng.uniform(3.0, 5.0) * gamma_2 / TWO_PI
    lines = ["detuning_hz,p_vna_dbm,re_s21,im_s21"]
    for p_dbm in range(-95, -56, 4):
        p_drive = 10.0 ** ((a_in_db + p_dbm - 30.0) / 10.0)
        rabi_sq = 2.0 * gamma_1 * p_drive / (HBAR * omega_q)
        for k in range(31):
            d_hz = half_hz * (k / 15.0 - 1.0)
            d = TWO_PI * d_hz / gamma_2
            s21 = 1.0 - (gamma_1 / (2.0 * gamma_2)) * (1.0 + 1j * d) / (
                1.0 + d * d + rabi_sq / (gamma_1 * gamma_2))
            lines.append(f"{_fmt(d_hz)},{_fmt(p_dbm)},"
                         f"{_fmt(s21.real + rng.gauss(0.0, QUBIT_NOISE))},"
                         f"{_fmt(s21.imag + rng.gauss(0.0, QUBIT_NOISE))}")
    want = {"gamma1_hz": gamma_1 / TWO_PI, "gamma_phi_hz": gamma_phi / TWO_PI,
            "a_in_db": a_in_db}
    check = _expect_values(want, {"gamma1_hz": QUBIT_RATE_TOL, "gamma_phi_hz": QUBIT_RATE_TOL},
                           {"a_in_db": QUBIT_AIN_TOL_DB})
    return ["fit-qubit", "--input", path, "--set", "fq=8.4GHz"], "\n".join(lines) + "\n", check


def _noise(rng: random.Random, path: str):
    gs_db, gsys_db = rng.uniform(15.0, 25.0), rng.uniform(70.0, 80.0)
    g_s, g_sys = 10.0 ** (gs_db / 10.0), 10.0 ** (gsys_db / 10.0)
    bm, n1 = 10.0, 0.5
    lines, want = ["freq_hz,p_on_dbm,p_off_dbm"], []
    for _ in range(rng.randint(20, 60)):
        f_hz = rng.uniform(7.9e9, 8.9e9)
        omega = TWO_PI * f_hz
        n4_off = g_sys * rng.uniform(5.0, 40.0)
        n_a = rng.uniform(0.5, 3.0)
        n4 = n4_off + g_s * g_sys * (n_a - n1 / g_s + n1)
        p_on = 10.0 * math.log10(n4 * HBAR * omega * bm) + 30.0
        p_off = 10.0 * math.log10(n4_off * HBAR * omega * bm) + 30.0
        lines.append(f"{_fmt(f_hz)},{_fmt(p_on)},{_fmt(p_off)}")
        want.append({"freq_hz": f_hz, "n4": n4, "n4_off": n4_off, "added_noise": n_a,
                     "t_sys_k": n4_off * HBAR * omega / (K_B * g_sys)})
    argv = ["noise", "--input", path, "--set", f"gs={_fmt(gs_db)}dB",
            "--set", f"gsys_eff={_fmt(gsys_db)}dB"]
    return argv, "\n".join(lines) + "\n", _expect_rows(want, NOISE_TOL)


def synth_expected(eps: float, z_nr: float, z_ki: float, z0: float = 50.0) -> dict:
    """Closed-form transformer elements for the 17-dB prototype."""
    g0, g1, g2, g3 = SYNTH_G
    z_nrp = z_ki ** 2 / z_nr
    z_ref = eps * z_nrp / g1
    z_q = math.sqrt(g3 * z_ref * z0)
    z_par = eps * z_ref / g2
    z0p = z_q ** 2 / z0
    b = z_q / 2.0 - z_q * z0p / (2.0 * z0) + 2.0 * z0p ** 2 / (math.pi * z_par)
    c = -z0p ** 2
    z_half = (-b + math.sqrt(b * b - 4.0 * c)) / 2.0
    return {"z_ref": z_ref, "z_quarter": z_q, "z_parallel": z_par, "z_half": z_half,
            "z_nr_primed": z_nrp, "r_nr_primed": g0 * z_ref}


def _synth(rng: random.Random, path: str):
    eps, z_nr, z_ki = rng.uniform(0.04, 0.08), rng.uniform(40.0, 80.0), rng.uniform(150.0, 200.0)
    want = synth_expected(eps, z_nr, z_ki)
    argv = ["synth", "--set", f"epsilon={_fmt(eps)}", "--set", f"z_nr={_fmt(z_nr)}ohm",
            "--set", f"z_ki={_fmt(z_ki)}ohm"]
    return argv, None, _expect_values(want, {key: 1e-9 for key in want})


_FILE_COMMANDS = {"fit-ki": _fit_ki, "fit-qubit": _fit_qubit, "noise": _noise}


def _probe(rng: random.Random, path: str):
    """A valid request of a random command with one fault injected."""
    fault = rng.choice(PROBE_FAULTS)
    if fault == "unknown-key":
        make = rng.choice((_fit_ki, _fit_qubit, _noise, _synth))
        argv, text, _ = make(rng, path)
        return argv + ["--set", "gain_knob=3"], text, fault
    argv, text, _ = _FILE_COMMANDS[rng.choice(sorted(_FILE_COMMANDS))](rng, path)
    lines = text.splitlines()
    if fault == "empty":
        text = ""
    elif fault == "truncated":
        last = lines[-1]
        lines[-1] = last[:last.rindex(",")]
        text = "\n".join(lines) + "\n"
    else:
        row = rng.randrange(1, len(lines))
        cells = lines[row].split(",")
        cells[rng.randrange(len(cells))] = "abc"
        lines[row] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    return argv, text, fault


def calibrate_cli(seed: int, workdir: Path) -> Iterator[Request]:
    """Seeded mix of one-shot requests, including a share of malformed ones."""
    refs = load_json_gz("simulate.json.gz")
    rng = random.Random(seed)
    path = str(workdir / "input.csv")
    for command in _cycle(rng, CALIBRATE_DECK):
        if command == "simulate":
            xi3 = rng.choice(SIM_XI3_MHZ)
            yield Request(command, simulate_argv(xi3), _expect_csv(refs[str(xi3)]))
        elif command == "synth":
            argv, _, check = _synth(rng, path)
            yield Request(command, argv, check)
        elif command == "probe":
            argv, text, fault = _probe(rng, path)
            files = {} if text is None else {"input.csv": text}
            yield Request(f"probe:{fault}:{argv[0]}", argv, _expect_rejection,
                          files=files, valid=False)
        else:
            argv, text, check = _FILE_COMMANDS[command](rng, path)
            yield Request(command, argv, check, files={"input.csv": text})


WORKLOADS = {
    "search-desk": search_desk,
    "map-rippled": map_rippled,
    "calibrate-cli": calibrate_cli,
}

# Requests in a run's deck: the first requests of the seeded stream, sent
# over and over in rounds for the whole run.  A round takes a few seconds
# (search: each z_nr of both kinds twice, 22 rows; map: 8 lines;
# calibrate-cli: ten shuffled decks of the mix), so every request is timed
# in several rounds.
DECK_SIZES = {"search-desk": 2 * sum(map(len, SEARCH_ZNR_OHM.values())),
              "map-rippled": 8, "calibrate-cli": 10 * len(CALIBRATE_DECK)}


def deck(name: str, seed: int, workdir: Path) -> List[Request]:
    """The requests one run of workload ``name`` sends, each once per round."""
    return list(itertools.islice(WORKLOADS[name](seed, workdir), DECK_SIZES[name]))
