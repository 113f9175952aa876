"""Benchmark of the kipa CLI on seeded workloads.

    python3 perfbench/run.py --workload search-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It imports kipa from ``src/`` of that
checkout and calls ``kipa.cli.main`` in this process from one closed-loop
client: the next request is sent when the previous one has returned.  The
seed fixes a deck of requests, which the client sends over and over in
rounds until the time is up; the speed metric counts each request's fastest
round, scaled by the speed of the shared host measured between requests
(``hostprobe.py``).  Every output is checked against the references in
``perfbench/reference`` or against the parameters its input was generated
from.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the workload untraced for half the time, then
replays the same requests with span wrappers on kipa's public functions,
checks that both passes printed identical bytes, and reports per-layer
metrics and the tracing overhead.

The output is a table of metrics, a provenance line, and as the last line
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import hostprobe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WARMUP_REQUESTS = {"search-desk": 4, "map-rippled": 4, "calibrate-cli": 24}
WARMUP_SEED_OFFSET = 1_000_003

# kipa modules in dependency order, for the per-module import times
IMPORT_ORDER = ("errors", "netcore", "material", "pump", "circuits", "synthesis",
                "simulator", "search", "noise", "presets", "cli")

SETUP_SNIPPET = ("import time\nt = time.perf_counter()\nimport kipa.cli\n"
                 "print(time.perf_counter() - t)\n")

# Imports each module in a fresh interpreter without running the package
# __init__ (which imports everything at once), so each import is timed alone.
IMPORT_SNIPPET = """
import importlib, json, sys, time, types
out = {}
t = time.perf_counter(); import numpy; out["numpy"] = time.perf_counter() - t
pkg = types.ModuleType("kipa"); pkg.__path__ = [sys.argv[1]]; sys.modules["kipa"] = pkg
for name in sys.argv[2:]:
    t = time.perf_counter()
    try:
        importlib.import_module("kipa." + name)
    except ModuleNotFoundError as exc:
        if exc.name != "kipa." + name:
            raise
        out[name] = None
        continue
    out[name] = time.perf_counter() - t
print(json.dumps(out))
"""

# name, unit, gated: gated metrics go into the result line and carry a bound
# in BENCHMARK.json.  Latency is printed only: it counts every round, and on
# a shared host whose speed drifts by up to 2x within minutes its spread
# over ten seeds reached 34 %, above the largest bound allowed.
END_TO_END = (
    ("setup_s", "s", True),
    ("throughput_per_s", "1/s", True),
    ("unscaled_per_s", "1/s", False),
    ("probe_us", "us", False),
    ("request_p50_ms", "ms", False),
    ("request_tail_ms", "ms", False),
    ("peak_rss_mb", "MB", True),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ----------------------------------------------------------------- client

@dataclass(slots=True)
class Outcome:
    """What is kept of a sent request.

    No argv, input files or output text: a few small fields per request,
    so the benchmark's own share of ``peak_rss_mb`` barely grows with the
    number of requests a faster program completes.
    """

    key: int                   # position of the request in the deck
    command: str
    valid: bool
    cells: int
    seconds: float
    failure: Optional[str]     # None when the outcome passed its check; names the argv
    digest: bytes              # SHA-256 of exit code, stdout and stderr
    bytes_out: int


class Client:
    """Sends requests to ``kipa.cli.main`` one at a time and checks them."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir

    def send(self, req: workloads.Request, key: int = -1) -> Outcome:
        for name, text in req.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(req.argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # escaped the CLI: a failed request, not a failed run
                rc, escaped = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        stdout, stderr = out.getvalue(), err.getvalue()
        if escaped is not None:
            failure = f"exception escaped the CLI: {escaped}"
        else:
            try:
                failure = req.check(rc, stdout, stderr)
            except (ValueError, KeyError, IndexError) as exc:
                failure = f"unreadable output: {exc}"
        if failure is not None:
            failure = f"{' '.join(req.argv)}: {failure}"
        digest = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}".encode()).digest()
        return Outcome(key, req.command, req.valid, req.cells, seconds, failure,
                       digest, len(stdout.encode()))

    def loop(self, requests, seconds: float) -> List[Outcome]:
        """Send (key, request) pairs until ``seconds`` of wall time have passed."""
        outcomes = []
        start = time.perf_counter()
        for key, req in requests:
            if time.perf_counter() - start >= seconds:
                break
            outcomes.append(self.send(req, key))
        return outcomes


def rounds(deck: List[workloads.Request]):
    """The deck over and over, each request with its position in the deck."""
    while True:
        yield from enumerate(deck)


# ----------------------------------------------------------------- set-up

def load_cli():
    """Import kipa.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "kipa" / "cli.py").is_file():
        raise BenchError(f"no kipa source at {SRC / 'kipa'}")
    sys.path.insert(0, str(SRC))
    try:
        import kipa.cli
    except ImportError as exc:
        raise BenchError(f"cannot import kipa.cli: {exc}") from exc
    if Path(kipa.cli.__file__).resolve().parent != (SRC / "kipa").resolve():
        raise BenchError(f"kipa imported from {kipa.cli.__file__}, not from {SRC}")
    return kipa.cli


def _child(args: List[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure_setup(repeats: int = SETUP_REPEATS) -> List[float]:
    """Seconds to import kipa.cli in a fresh interpreter, once per repeat."""
    return [float(_child(["-c", SETUP_SNIPPET])) for _ in range(repeats)]


def measure_imports(repeats: int = IMPORT_REPEATS) -> dict:
    """Median per-module import milliseconds; None for a module that is gone."""
    runs = [json.loads(_child(["-c", IMPORT_SNIPPET, str(SRC / "kipa"), *IMPORT_ORDER]))
            for _ in range(repeats)]
    out = {}
    for name in ("numpy", *IMPORT_ORDER):
        values = [r[name] for r in runs if r.get(name) is not None]
        out[name] = statistics.median(values) * 1e3 if values else None
    return out


# ----------------------------------------------------------------- metrics

def tail(values: List[float]):
    """(value, percentile label) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def fastest(outcomes: List[Outcome]) -> dict:
    """{deck key: (the valid request's fastest time over its rounds, its outcome)}."""
    best = {}
    for o in outcomes:
        if o.valid and (o.key not in best or o.seconds < best[o.key][0]):
            best[o.key] = (o.seconds, o)
    return best


def end_to_end(outcomes: List[Outcome], setup: List[float], probe: hostprobe.HostProbe) -> dict:
    """Speed from each deck request's fastest round, at the reference host speed.

    Interference from other work on the host only ever slows a request
    down, so the fastest of several rounds estimates what a request costs
    when the host is at its best.  The probe kernel, read at the same
    quantile of its times, says how fast that was in this run, and the
    speed is scaled by probe_s / REFERENCE_S to the baseline host's speed.
    Latencies count every round.
    """
    valid = [o for o in outcomes if o.valid]
    latencies = [o.seconds for o in valid]
    best = fastest(outcomes)
    busy = sum(seconds for seconds, _ in best.values())
    cells = sum(o.cells for _, o in best.values())
    units = cells if cells else len(best)
    raw = units / busy
    rounds = len(valid) / len(best)
    probe_s = probe.at_rounds(rounds)
    tail_s, tail_label = tail(latencies)
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh imports of kipa.cli"),
        "throughput_per_s": (raw * probe_s / hostprobe.REFERENCE_S,
                             f"{'cells' if cells else 'valid requests'} per second at the"
                             f" reference host speed ({raw:.6g} unscaled x probe {probe_s * 1e6:.1f} us"
                             f" / {hostprobe.REFERENCE_S * 1e6:.1f} us)"),
        "unscaled_per_s": (raw, f"{units} {'cells' if cells else 'requests'} in {busy:.3f} s, the"
                           f" fastest round of each of {len(best)} deck requests"
                           f" ({rounds:.1f} rounds)"),
        "probe_us": (probe_s * 1e6, f"host probe kernel at the 1/{rounds + 1:.1f} quantile"
                     f" of {len(probe.times)} probes"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, f"median of {len(latencies)} valid requests"),
        "request_tail_ms": (tail_s * 1e3, tail_label),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "peak resident set of this process"),
    }


def command_shares(outcomes: List[Outcome]) -> list:
    """Table rows: each command's share of the time throughput_per_s divides by."""
    busy = {}
    for seconds, o in fastest(outcomes).values():
        n, total = busy.get(o.command, (0, 0.0))
        busy[o.command] = (n + 1, total + seconds)
    total = sum(seconds for _, seconds in busy.values())
    return [(f"share.{command}", seconds / total, "ratio",
             f"of the fastest-round time; {n} deck requests, {seconds / n * 1e3:.3g} ms each")
            for command, (n, seconds) in sorted(busy.items())]


def per_layer(stats, absent, outcomes: List[Outcome], imports: dict, overhead: float) -> dict:
    """Per-layer metrics from the traced pass: {name: (value or None, unit)}."""
    def calls(name):
        return stats[name].calls if name in stats else 0

    def mean(name, scale):
        st = stats.get(name)
        return st.seconds / st.calls * scale if st and st.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(module):
        return sum(st.self_seconds for n, st in stats.items() if n.startswith(module + "."))

    S11 = "simulator.ReflectionEngine.s11"
    REPORT = "simulator.bandwidth_report"
    SEARCH = "search.search_designs"
    MAIN = "cli.main"
    ROWS = ("noise.power_to_quanta", "noise.added_noise", "noise.system_noise_temperature")
    valid = [o for o in outcomes if o.valid]
    cells = sum(o.cells for o in valid)
    search_cells = sum(o.cells for o in valid if o.command == "search")
    s11 = stats.get(S11)
    report = stats.get(REPORT)
    records = int(stats[SEARCH].notes) if SEARCH in stats else 0
    rows = calls("noise.added_noise")

    metrics = [  # name, unit, span names it needs, value
        ("simulator.s11_evals", "count", [S11], calls(S11)),
        ("simulator.s11_eval_us", "us", [S11], mean(S11, 1e6)),
        ("simulator.steps_per_cell", "count", [S11], ratio(calls(S11), cells)),
        ("simulator.reports", "count", [REPORT], calls(REPORT)),
        ("simulator.report_us", "us", [REPORT], mean(REPORT, 1e6)),
        ("simulator.report_per_step", "ratio", [REPORT, S11], ratio(calls(REPORT), calls(S11))),
        ("simulator.qualified_per_report", "ratio", [REPORT],
         ratio(report.notes, report.calls) if report else 0.0),
        # thread CPU clocks tick more coarsely than perf_counter, so a span
        # that never waits can read a hair above 100 % CPU
        ("simulator.s11_wait_share", "ratio", [S11],
         max(0.0, 1.0 - ratio(s11.cpu, s11.seconds)) if s11 else 0.0),
        ("simulator.engine_builds", "count", ["simulator.ReflectionEngine.__init__"],
         calls("simulator.ReflectionEngine.__init__")),
        ("simulator.engine_build_us", "us", ["simulator.ReflectionEngine.__init__"],
         mean("simulator.ReflectionEngine.__init__", 1e6)),
        ("simulator.gain_spectrum_us", "us", ["simulator.gain_spectrum"],
         mean("simulator.gain_spectrum", 1e6)),
        ("simulator.self_s", "s", [], self_s("simulator")),
        ("search.cells", "count", [], search_cells),
        ("search.records", "count", [SEARCH], records),
        ("search.record_yield", "ratio", [SEARCH], ratio(records, search_cells)),
        ("search.self_s", "s", [SEARCH], self_s("search")),
        ("circuits.idler_admittance_us", "us", ["circuits.idler_admittance"],
         mean("circuits.idler_admittance", 1e6)),
        ("circuits.port_line_abcd_us", "us", ["circuits.port_line_abcd"],
         mean("circuits.port_line_abcd", 1e6)),
        ("circuits.environment_impedance_us", "us", ["circuits.environment_impedance"],
         mean("circuits.environment_impedance", 1e6)),
        ("netcore.input_impedance_calls", "count", ["netcore.input_impedance"],
         calls("netcore.input_impedance")),
        ("netcore.input_impedance_us", "us", ["netcore.input_impedance"],
         mean("netcore.input_impedance", 1e6)),
        ("pump.from_alpha_calls", "count", ["pump.ModulatedInductor.from_alpha"],
         calls("pump.ModulatedInductor.from_alpha")),
        ("cli.parser_ms", "ms", ["cli.build_parser"], mean("cli.build_parser", 1e3)),
        ("cli.emit_ms", "ms", ["cli.emit_results"], mean("cli.emit_results", 1e3)),
        ("cli.bytes_out", "B", [], ratio(sum(o.bytes_out for o in outcomes), len(outcomes))),
        ("cli.self_ms", "ms", [MAIN],
         ratio(stats[MAIN].self_seconds, stats[MAIN].calls) * 1e3 if MAIN in stats else 0.0),
        ("cli.probe_failures", "count", [],
         sum(1 for o in outcomes if not o.valid and o.failure)),
        ("material.fit_ki_ms", "ms", ["material.fit_ki_curve"], mean("material.fit_ki_curve", 1e3)),
        ("material.parse_shift_csv_ms", "ms", ["material.parse_shift_csv"],
         mean("material.parse_shift_csv", 1e3)),
        ("material.kinetic_inductance_calls", "count", ["material.kinetic_inductance"],
         calls("material.kinetic_inductance")),
        ("noise.fit_qubit_ms", "ms", ["noise.fit_qubit_saturation"],
         mean("noise.fit_qubit_saturation", 1e3)),
        ("noise.row_us", "us", list(ROWS),
         ratio(sum(stats[n].seconds for n in ROWS if n in stats), rows) * 1e6),
        ("synthesis.synthesize_us", "us", ["synthesis.synthesize_transformer"],
         mean("synthesis.synthesize_transformer", 1e6)),
    ]
    out = {}
    for name, unit, needs, value in metrics:
        out[name] = (None if any(n in absent for n in needs) else value, unit)
    for module, ms in imports.items():
        out[f"{module}.import_ms"] = (ms, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# ----------------------------------------------------------------- provenance

def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "kipa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------- main

def _print_table(title: str, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit:<6} {note}")


def _failures(outcomes: List[Outcome]) -> List[str]:
    return [o.failure for o in outcomes if o.valid and o.failure]


def _measure(args, client, deck):
    """Untraced pass: the end-to-end metrics."""
    setup = measure_setup()
    probe = hostprobe.HostProbe()
    outcomes = client.loop(probe.between(rounds(deck)), args.seconds)
    metrics = end_to_end(outcomes, setup, probe)
    rows = [(name, metrics[name][0], unit, metrics[name][1]) for name, unit, _ in END_TO_END]
    rows += command_shares(outcomes)
    result = {name: {"value": metrics[name][0], "unit": unit}
              for name, unit, gated in END_TO_END if gated}
    return outcomes, _failures(outcomes), rows, result


def _kept(stream, sent: list):
    for req in stream:
        sent.append(req)
        yield req


def _trace(args, client, deck):
    """Untraced pass for half the time, then the same requests traced."""
    imports = measure_imports()
    sent = []
    untraced = client.loop(_kept(rounds(deck), sent), args.seconds / 2.0)
    recorder = tracer.Recorder()
    recorder.install()
    traced = []
    try:
        for index, (key, req) in enumerate(sent[:len(untraced)]):
            recorder.request = index
            traced.append(client.send(req, key))
    finally:
        recorder.uninstall()
    recorder.write(WORKDIR / f"spans-{args.workload}.tsv")
    busy_b = sum(o.seconds for o in traced)
    best_a = sum(seconds for seconds, _ in fastest(untraced).values())
    best_b = sum(seconds for seconds, _ in fastest(traced).values())
    mismatched = [f"{' '.join(req.argv)}: traced output differs"
                  for (_, req), a, b in zip(sent, untraced, traced) if a.digest != b.digest]
    stats = tracer.stats_by_name([s for s in recorder.spans if s.request is not None])
    layers = per_layer(stats, recorder.absent, traced, imports, best_b / best_a)
    rows = [(name, value, unit, "") for name, (value, unit) in layers.items()]
    rows.append(("trace.untraced_best_s", best_a, "s",
                 f"fastest rounds of the deck requests in {len(untraced)} sends"))
    rows.append(("trace.traced_best_s", best_b, "s", "the same sends, traced"))
    rows += command_shares(untraced)
    _print_self_times(stats, busy_b)
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    failures = _failures(untraced) + _failures(traced) + mismatched
    return untraced + traced, failures, rows, result


def _print_self_times(stats, busy: float):
    rows = sorted(stats.items(), key=lambda kv: -kv[1].self_seconds)
    print(f"== self time by span (share of {busy:.3f} s traced busy time)")
    print(f"  {'span':<40} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6} {'cpu/wall':>8}")
    for name, st in rows:
        print(f"  {name:<40} {st.calls:>9} {st.seconds:>9.3f} {st.self_seconds:>9.3f} "
              f"{100.0 * st.self_seconds / busy:>6.1f} {st.cpu / st.seconds if st.seconds else 0:>8.2f}")


def run(args) -> dict:
    cli = load_cli()
    WORKDIR.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    client = Client(cli, WORKDIR)
    warm = make(args.seed + WARMUP_SEED_OFFSET, WORKDIR)
    for req in itertools.islice(warm, WARMUP_REQUESTS[args.workload]):
        client.send(req)
    deck = workloads.deck(args.workload, args.seed, WORKDIR)
    outcomes, failures, rows, result = (_trace if args.trace else _measure)(args, client, deck)

    valid = [o for o in outcomes if o.valid]
    probes = [o for o in outcomes if not o.valid]
    probe_failed = sum(1 for o in probes if o.failure)
    rows.append(("failed_ratio", len(failures) / len(valid), "ratio",
                 f"{len(failures)} of {len(valid)} valid requests"))
    rows.append(("probe_failed_ratio", probe_failed / len(probes) if probes else 0.0, "ratio",
                 f"{probe_failed} of {len(probes)} malformed-input probes ended"
                 " outside exit codes 1-3"))
    _print_table(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}", rows)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for kind in sorted({o.command for o in probes if o.failure}):
        print(f"  PROBE {kind}: {next(o.failure for o in probes if o.command == kind and o.failure)}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    return {"correct": not failures, "attempted": len(valid), "failed": len(failures),
            "metrics": result}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
