"""Follows the speed of the shared host the benchmark runs on.

The host runs other tenants' work.  A kipa request and any other code slow
down together, in stretches from under a second to minutes, and the host's
best speed drifts by a fifth within a few minutes, so wall times of the
same request in two runs minutes apart differ by more than the bounds the
benchmark sets.  ``HostProbe`` times a fixed kernel between requests, and
the run scales its speed by how fast the kernel ran, at the same quantile
of the kernel's times as the requests' fastest rounds sit at among theirs.

The kernel uses only numpy and the standard library, never kipa, so no
change to kipa moves it.  It does in about 1.5 ms what kipa's requests do:
builds and runs an argparse parser with subcommands, parses a small CSV,
runs a Python loop over a dict, and multiplies ABCD matrices of a
frequency grid with complex numpy arithmetic.
"""
from __future__ import annotations

import argparse
import csv
import io
import time
from typing import List

import numpy as np

PROBE_RATE = 16           # probes per second of the run, whatever the program's speed
PROBE_BURST = 2           # probes taken back to back when some are due
REFERENCE_S = 1.5e-3      # the kernel's time at that quantile on the baseline host

_GRID = np.linspace(1.0, 2.0, 256) + 0j
_CSV = "\n".join(",".join(repr(0.1 * i + j) for j in range(4)) for i in range(40))


def kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    start = time.perf_counter()
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for n in range(8):
        p = sub.add_parser(f"command{n}")
        for option in ("--config", "--preset", "--out", "--input", "--span"):
            p.add_argument(option)
        p.add_argument("--set", action="append", default=[])
    parser.parse_args(["command3", "--preset", "a", "--set", "key=value"])
    rows = [[float(x) for x in row] for row in csv.reader(io.StringIO(_CSV))]
    table = {str(i): i * 2 for i in range(200)}
    total = sum(table.values()) + sum(map(sum, rows))
    a, b = np.ones_like(_GRID), np.zeros_like(_GRID)
    c, d = np.zeros_like(_GRID), np.ones_like(_GRID)
    for k in range(12):  # a ladder of series impedances
        z = 1j * _GRID * (k + 1.0)
        a, b, c, d = a, a * z + b, c, c * z + d
    float(np.abs((a - d) / (a + d + 1.0)).max() + total)
    return time.perf_counter() - start


class HostProbe:
    """Kernel times taken between the requests of one run.

    Probes are due at PROBE_RATE per second since the start, so a faster
    program does not get more of them; once due they run in bursts of at
    least PROBE_BURST, so that the kernel is as warm in the caches after a
    long request as after a short one.
    """

    def __init__(self):
        self.start = time.perf_counter()
        self.times: List[float] = [kernel()]

    def between(self, requests):
        """Pass requests through, probing the host before each is sent."""
        for item in requests:
            due = int((time.perf_counter() - self.start) * PROBE_RATE) - len(self.times)
            if due > 0:
                self.times.extend(kernel() for _ in range(max(due, PROBE_BURST)))
            yield item

    def at_rounds(self, rounds: float) -> float:
        """Kernel time at the quantile of the fastest of ``rounds`` samples.

        The fastest of R samples lies on average at the 1/(R+1) quantile of
        the distribution they are drawn from, so the kernel is read where the
        requests' fastest rounds are.
        """
        ordered = sorted(self.times)
        return ordered[int(len(ordered) / (rounds + 1.0))]
