"""``fit-ki`` and ``fit-qubit`` outputs, byte for byte, against stored golden records.

Each case is a seeded input built with ``test_noise``'s and ``test_material``'s
synthetic-data helpers, run through ``kipa.cli.main``.  The records in
``golden/fit_outputs.json`` hold each case's exit code, stdout and stderr;
``python tests/test_fit_golden.py`` (with ``src`` on PYTHONPATH) rewrites them.
"""
import contextlib
import functools
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kipa import lsq
from kipa.cli import main
from kipa.material import KineticInductorModel
from test_material import CLEM, QUARTIC, _synthetic_shift
from test_noise import TWO_PI, W84, _synthetic_qubit_grid, _wide_sweep

_GOLDEN = Path(__file__).parent / "golden" / "fit_outputs.json"


def _csv(header, rows):
    return header + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                   for row in rows)


def _qubit_csv(rows):
    return _csv("detuning_hz,p_vna_dbm,re_s21,im_s21",
                [(d / TWO_PI, 10.0 * math.log10(p) + 30.0, s.real, s.imag) for d, p, s in rows])


def _shift_csv(data):
    return _csv("i_dc_A,dfrac", data)


def _qubit_cases():
    fq = ["--set", "fq=8.4GHz"]
    for seed in range(20):
        rows, *_ = _wide_sweep(seed)
        yield f"fit-qubit/wide-{seed:02d}", ["fit-qubit", *fq], _qubit_csv(rows)
    # windows 2-6 dip half-widths either side, 3-11 powers, noise 1e-5 to 1e-2
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        gamma_1 = TWO_PI * rng.uniform(1e6, 5e6)
        gamma_phi = gamma_1 * rng.uniform(0.05, 0.5)
        a_in = 10 ** (rng.uniform(-86.0, -76.0) / 10)
        half = rng.uniform(2.0, 6.0) * (gamma_phi + gamma_1 / 2)
        powers = np.linspace(-97.0, rng.uniform(-70.0, -55.0), rng.integers(3, 12))
        rows = _synthetic_qubit_grid(gamma_1, gamma_phi, a_in, W84, powers,
                                     np.linspace(-half, half, rng.integers(11, 42)))
        sigma = 10 ** rng.uniform(-5.0, -2.0)
        rows = [(d, p, s + complex(*rng.normal(0.0, sigma, 2))) for d, p, s in rows]
        yield f"fit-qubit/narrow-{seed:02d}", ["fit-qubit", *fq], _qubit_csv(rows)


def _ki_cases():
    split = ["--set", "l_k0=0.8nH", "--set", "l_geo=0.2nH"]
    # clem: the only law fitted by Levenberg-Marquardt, with and without noise
    for seed in range(16):
        rng = np.random.default_rng(300 + seed)
        model = KineticInductorModel("clem", l_k0=0.8e-9, l_geo=0.2e-9,
                                     i_star_star=rng.uniform(1.3e-3, 2.2e-3))
        currents = np.linspace(rng.uniform(0.0, 0.1e-3), rng.uniform(0.7e-3, 1.2e-3),
                               rng.integers(8, 40))
        noise = 10 ** rng.uniform(-7.0, -4.0) if seed < 12 else 0.0
        data = [(i, y + rng.normal(0.0, noise)) for i, y in _synthetic_shift(model, currents)]
        yield f"fit-ki/clem-{seed:02d}", ["fit-ki", "--set", "model_kind=clem", *split], \
            _shift_csv(data)
    # clem fitted to the other laws' curves, and to rising shifts
    for seed, source in enumerate((QUARTIC, CLEM, QUARTIC, CLEM)):
        rng = np.random.default_rng(320 + seed)
        currents = np.linspace(0.05e-3, rng.uniform(0.9e-3, 1.1e-3), rng.integers(16, 33))
        data = [(i, y + rng.normal(0.0, 1e-5)) for i, y in _synthetic_shift(source, currents)]
        yield f"fit-ki/clem-cross-{seed}", ["fit-ki", "--set", "model_kind=clem", *split], \
            _shift_csv(data)
    for seed in range(2):
        rng = np.random.default_rng(330 + seed)
        data = [(k * 2.5e-4, 0.01 * k + rng.normal(0.0, 1e-3)) for k in range(1, 9)]
        yield f"fit-ki/clem-rising-{seed}", ["fit-ki", "--set", "model_kind=clem", *split], \
            _shift_csv(data)
    # parabolic and quartic: bounded linear least squares
    for seed in range(18):
        rng = np.random.default_rng(340 + seed)
        kind = ("parabolic", "quartic")[seed % 2]
        model = QUARTIC if kind == "quartic" else KineticInductorModel(
            "parabolic", l_k0=0.8e-9, l_geo=0.2e-9, i_star2=rng.uniform(2.5e-3, 4e-3))
        currents = np.linspace(0.05e-3, rng.uniform(0.9e-3, 1.1e-3), rng.integers(16, 33))
        noise = 1e-5 if seed < 14 else 0.0
        data = [(i, y + rng.normal(0.0, noise)) for i, y in _synthetic_shift(model, currents)]
        yield f"fit-ki/{kind}-{seed:02d}", ["fit-ki", "--set", f"model_kind={kind}", *split], \
            _shift_csv(data)


def _run(argv, text, directory):
    """(exit code, stdout, stderr) of ``kipa`` on ``argv`` with ``text`` as its input file."""
    path = Path(directory) / "input.csv"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--input", str(path)])
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


_CASES = [*_qubit_cases(), *_ki_cases()]


@functools.cache
def _golden():
    return json.loads(_GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(key for key, _, _ in _CASES)


@pytest.mark.parametrize("key, argv, text", _CASES, ids=[key for key, _, _ in _CASES])
def test_fit_output_matches_golden(key, argv, text, tmp_path):
    assert _run(argv, text, tmp_path) == _golden()[key]


def test_golden_cases_take_259_model_evaluations(monkeypatch, tmp_path):
    # the solver's iteration path: a change that moves it fails here, not
    # only where a record's twelfth digit moves
    evaluations = 0
    solve = lsq.levenberg_marquardt

    def counted(evaluate, *args, **kwargs):
        def count(*point):
            nonlocal evaluations
            evaluations += 1
            evaluate(*point)
        return solve(count, *args, **kwargs)

    monkeypatch.setattr(lsq, "levenberg_marquardt", counted)
    for _, argv, text in _CASES:
        _run(argv, text, tmp_path)
    assert evaluations == 259


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = {key: _run(argv, text, tmp) for key, argv, text in _CASES}
    _GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {_GOLDEN}", file=sys.stderr)
