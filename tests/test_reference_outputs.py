"""Simulate spectra and map windows byte for byte against the stored references.

The benchmark's own checks allow 1e-9 relative; here every stored text is
held to its exact bytes, through ``kipa.cli.main`` in this process.  The
desk-search records are checked in ``test_search.py``.
"""
import gzip
import json
from pathlib import Path

import pytest

from kipa.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _load(name):
    with gzip.open(REFERENCE / name, "rt") as fh:
        return json.load(fh)


SPECTRA = _load("simulate.json.gz")           # {xi3 in MHz: csv text}
WINDOWS = _load("map-windows.json.gz")        # {"<fp>MHz/<idc>uA": csv text of a 2x2-cell window}
LINE_FPS = range(16800, 17001, 20)            # the map lattice, MHz and uA
LINE_IDCS = range(510, 631, 20)


def _run(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return fh.read()


def _map_argv(fps, idcs):
    """``kipa map`` of the rippled paper device over the MHz and uA lattice ranges given."""
    return ["map", "--preset", "paper-device", "--set", "env=paper-env", "--set", "policy=xi3",
            "--set", f"fp_span={fps[0]}MHz:{fps[-1]}MHz:20MHz",
            "--set", f"idc_start={idcs[0]}uA", "--set", f"idc_stop={idcs[-1]}uA",
            "--set", "idc_step=20uA"]


@pytest.mark.parametrize("xi3", sorted(SPECTRA))
def test_simulate_spectrum_matches_reference(xi3, tmp_path):
    # the seven paper-device spectra of the calibrate-cli workload
    argv = ["simulate", "--preset", "paper-device", "--set", "env=paper-env", "--fp", "16.9GHz",
            "--xi3", f"{xi3}MHz", "--span", "7.9GHz:8.9GHz:1MHz"]
    assert _run(argv, tmp_path) == SPECTRA[xi3]


@pytest.mark.parametrize("key", sorted(WINDOWS))
def test_map_window_matches_reference(key, tmp_path):
    # each stored 2x2-cell window of the rippled paper-device map
    fp, idc = (int(v) for v in key.rstrip("uA").split("MHz/"))
    assert _run(_map_argv((fp, fp + 20), (idc, idc + 20)), tmp_path) == WINDOWS[key]


@pytest.mark.parametrize("fp", LINE_FPS)
def test_seven_bias_map_line_matches_reference(fp, tmp_path):
    # all seven lattice biases at one pump frequency ramp as one engine of
    # seven bias cells; each row must equal the row of the window that holds it,
    # whose corner is at most (16980 MHz, 610 uA)
    rows = []
    for idc in LINE_IDCS:
        window = WINDOWS[f"{min(fp, LINE_FPS[-2])}MHz/{min(idc, LINE_IDCS[-2])}uA"].splitlines()
        rows += [row for row in window[1:]
                 if row.split(",")[:2] == [str(fp * 1_000_000), f"{idc * 1e-6:.12g}"]]
    assert len(rows) == len(LINE_IDCS)
    want = "\n".join([window[0]] + rows) + "\n"
    assert _run(_map_argv((fp, fp), LINE_IDCS), tmp_path) == want
