"""Start-up cost guard: the CLI and the commands that never call scipy load none of it.

Importing scipy.signal or scipy.constants takes several times longer than
a one-shot synth, simulate, noise or fit command itself, so kipa imports
scipy only inside the one function that calls it (peak finding for search
and map), and its fits run on its own numpy solver.  Each case runs in a
fresh interpreter, since this test process may have scipy loaded.
"""
import json
import os
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
    }


@pytest.mark.parametrize("case", ["import", "synth", "simulate", "noise", "fit-ki-quartic",
                                  "fit-ki-clem", "fit-qubit"])
def test_no_scipy_loaded(case, tmp_path):
    argv = _commands(tmp_path)[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["scipy"] == []


def test_physical_constants_match_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
