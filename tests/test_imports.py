"""Start-up and run-time guards: no CLI command loads scipy, and desk rows keep their heap.

Importing scipy.signal or scipy.constants takes several times longer than
a one-shot synth, simulate, noise or fit command itself and adds ~74 MB of
resident memory, so kipa runs on numpy alone: peak finding for search and
map is its own ``simulator._peaks`` and its fits run on its own
Levenberg-Marquardt solver.  scipy is a test-only oracle.  Each case runs
in a fresh interpreter, since this test process may have scipy loaded.

``kipa.cli.main`` raises glibc's heap trim threshold, so the temporaries a
desk-search row frees are reused by the next row instead of being handed
back to the OS and faulted in again.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

from kipa.material import HBAR, K_B
from kipa.noise import QubitCalibration, drive_strength, qubit_s21

TWO_PI = 2 * np.pi

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import kipa.cli
argv = json.loads(sys.argv[1])
rc = kipa.cli.main(argv) if argv else 0
print(json.dumps({"rc": rc,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _commands(tmp_path):
    out = str(tmp_path / "out.csv")
    spectra = tmp_path / "spectra.csv"
    spectra.write_text("freq_hz,p_on_dbm,p_off_dbm\n8.4e9,-62.0,-75.0\n")
    shift = tmp_path / "shift.csv"
    shift.write_text("i_dc_A,dfrac\n" + "".join(
        f"{k * 1e-4},{-0.4 * (k * 1e-4 / 3.25e-3) ** 2}\n" for k in range(1, 9)))
    qubit = tmp_path / "qubit.csv"
    cal = QubitCalibration(TWO_PI * 8.4e9, gamma_1e=TWO_PI * 2e6, gamma_phi=TWO_PI * 6e5)
    lines = ["detuning_hz,p_vna_dbm,re_s21,im_s21"]
    for p_dbm in (-95, -85, -75, -65):
        rabi = drive_strength(cal.gamma_1e, 10 ** ((p_dbm - 30 - 82) / 10), cal.omega_q)
        for d_hz in np.linspace(-8e6, 8e6, 21):
            s21 = qubit_s21(cal, TWO_PI * d_hz, rabi)
            lines.append(f"{d_hz},{p_dbm},{s21.real},{s21.imag}")
    qubit.write_text("\n".join(lines) + "\n")
    return {
        "import": [],
        "synth": ["synth", "--set", "epsilon=0.0625", "--set", "z_nr=60ohm",
                  "--set", "z_ki=180ohm", "--out", out],
        "simulate": ["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                     "--xi3", "2.0GHz", "--span", "8.2GHz:8.6GHz:10MHz", "--out", out],
        "noise": ["noise", "--input", str(spectra), "--set", "gs=20dB",
                  "--set", "gsys_eff=75dB", "--out", out],
        "fit-ki-quartic": ["fit-ki", "--input", str(shift), "--set", "model_kind=quartic",
                           "--out", out],
        "fit-ki-clem": ["fit-ki", "--input", str(shift), "--set", "model_kind=clem",
                        "--out", out],
        "fit-qubit": ["fit-qubit", "--input", str(qubit), "--set", "fq=8.4GHz", "--out", out],
        # a desk-search row with records, and one line of the rippled paper-device map
        "search": _search_argv("three-stage", 60, 30, 100) + ["--out", out],
        "map": ["map", "--preset", "paper-device", "--set", "env=paper-env",
                "--set", "policy=xi3", "--set", "fp_span=16900MHz:16900MHz:20MHz",
                "--set", "idc_start=570uA", "--set", "idc_stop=590uA",
                "--set", "idc_step=20uA", "--out", out],
    }


def _search_argv(kind, z14, z12, z_nr):
    return ["search", "--set", f"kind={kind}", "--set", f"z14={z14}ohm:{z14}ohm:10ohm",
            "--set", f"z12={z12}ohm:{z12}ohm:10ohm", "--set", f"znr={z_nr}ohm:{z_nr}ohm:1ohm"]


def _run_probe(probe, *args):
    """The last stdout line of ``probe`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "synth", "simulate", "noise", "fit-ki-quartic",
                                  "fit-ki-clem", "fit-qubit", "search", "map"])
def test_no_scipy_loaded(case, tmp_path):
    result = _run_probe(_PROBE, json.dumps(_commands(tmp_path)[case]))
    assert result["rc"] == 0
    assert result["scipy"] == []
    if case == "search":   # the row qualifies, so its profiles went through peak finding
        assert len((tmp_path / "out.csv").read_text().splitlines()) > 1


_FAULTS = """
import json, os, resource, sys
import kipa.cli
rows = json.loads(sys.argv[1])
faults = []
for _ in range(2):   # the first pass grows the heap, the second reuses it
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for argv in rows:
        assert kipa.cli.main(argv + ["--out", os.devnull]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's trim threshold")
def test_desk_rows_reuse_the_heap_they_free():
    # without the raised threshold each row faults its freed temporaries back
    # in: the second pass read ~2,500 minor faults over these 20 rows, 1 with it
    rows = [_search_argv(kind, z14, z12, z_nr)
            for kind, z_nrs in (("three-stage", (50, 80, 100)), ("conventional", (2, 6)))
            for z_nr in z_nrs for z14, z12 in ((30, 40), (60, 70), (90, 40), (60, 100))]
    result = _run_probe(_FAULTS, json.dumps(rows))
    assert result["faults"][1] < 10 * len(rows), result


def test_physical_constants_match_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
