"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that the speed metric counts each
deck request's fastest round, that tracing does not change what the CLI
prints, that a corrupted reference or a wrong exit code counts as a
failure, and that a wrapped name that no longer exists is reported as
absent.  Takes a few seconds.
"""
from __future__ import annotations

import itertools
import sys
import tempfile
import types
import unittest
from pathlib import Path

import hostprobe
import run
import tracer
import workloads

CLI = run.load_cli()


class _Workdir:
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(dir=run.ROOT)
        self.workdir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class SeedTest(_Workdir, unittest.TestCase):
    def _inputs(self, name, seed, n=40):
        stream = workloads.WORKLOADS[name](seed, self.workdir)
        return [(r.command, r.argv, r.files, r.cells) for r in itertools.islice(stream, n)]

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self._inputs(name, 7), self._inputs(name, 7))
                self.assertNotEqual(self._inputs(name, 7), self._inputs(name, 8))

    def test_calibrate_mix_is_the_same_for_every_seed(self):
        deck = len(workloads.CALIBRATE_DECK)
        for seed in (3, 4):
            inputs = self._inputs("calibrate-cli", seed, 5 * deck)
            commands = sorted(c.split(":")[0] for c, *_ in inputs)
            self.assertEqual(commands, sorted(workloads.CALIBRATE_DECK * 5))

    def test_deck_is_the_start_of_the_stream(self):
        for name, size in workloads.DECK_SIZES.items():
            with self.subTest(workload=name):
                deck = workloads.deck(name, 7, self.workdir)
                self.assertEqual([(r.command, r.argv, r.files) for r in deck],
                                 [(c, a, f) for c, a, f, _ in self._inputs(name, 7, size)])
                if name != "calibrate-cli":
                    self.assertEqual(len({tuple(r.argv) for r in deck}), size)


class ThroughputTest(unittest.TestCase):
    def test_each_request_counts_its_fastest_round(self):
        def outcome(key, seconds, cells, valid=True):
            return run.Outcome(key, "search", valid, cells, seconds, None, b"", 0)
        outcomes = [outcome(0, 2.0, 30), outcome(1, 1.0, 25), outcome(2, 9.0, 0, valid=False),
                    outcome(0, 1.5, 30), outcome(1, 3.0, 25), outcome(0, 4.0, 30)]
        probe = hostprobe.HostProbe()
        # five sends of two deck requests: 2.5 rounds, read at the 1/3.5 quantile
        probe.times = [hostprobe.REFERENCE_S * k for k in range(1, 8)]
        metrics = run.end_to_end(outcomes, [1.0, 2.0, 3.0], probe)
        self.assertAlmostEqual(metrics["unscaled_per_s"][0], 55 / 2.5)
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 3.0 * 55 / 2.5)
        self.assertAlmostEqual(metrics["request_p50_ms"][0], 2000.0)
        self.assertEqual(metrics["setup_s"][0], 2.0)


class TraceTest(_Workdir, unittest.TestCase):
    def _requests(self):
        calibrate = workloads.calibrate_cli(11, self.workdir)
        one_cell = workloads.search_argv("three-stage", 80, 60, 50) + [
            "--set", "fp2=8GHz:8GHz:0.25GHz"]
        return [*itertools.islice(calibrate, 40),
                workloads.Request("search", one_cell, lambda rc, out, err: None),
                next(workloads.map_rippled(11, self.workdir))]

    def test_traced_output_is_byte_identical(self):
        client = run.Client(CLI, self.workdir)
        requests = self._requests()
        untraced = [client.send(r) for r in requests]
        recorder = tracer.Recorder()
        recorder.install()
        try:
            traced = [client.send(r) for r in requests]
        finally:
            recorder.uninstall()
        self.assertEqual([o.digest for o in untraced], [o.digest for o in traced])
        self.assertEqual([o.failure for o in untraced if o.valid],
                         [None] * sum(r.valid for r in requests))
        names = {s.name for s in recorder.spans}
        self.assertIn("simulator.ReflectionEngine.s11", names)
        self.assertIn("search.search_designs", names)
        self.assertEqual(recorder.absent, [])
        self.assertFalse(hasattr(CLI.main, "__wrapped__"))

    def test_missing_name_is_absent(self):
        recorder = tracer.Recorder()
        recorder.install([("simulator", "no_such_function", None),
                          ("no_such_module", "main", None)])
        recorder.uninstall()
        self.assertEqual(recorder.absent, ["simulator.no_such_function", "no_such_module.main"])
        layers = run.per_layer({}, ["simulator.ReflectionEngine.s11"], [], {}, 1.0)
        self.assertIsNone(layers["simulator.s11_evals"][0])
        self.assertEqual(layers["synthesis.synthesize_us"][0], 0.0)

    def test_self_time_subtracts_covered_children(self):
        S = tracer.Span
        spans = [S(0, "a", 0.0, 10.0, None, 0, 1, 0.0, None),
                 S(1, "b", 1.0, 4.0, 0, 0, 1, 0.0, None),
                 S(2, "c", 3.0, 6.0, 0, 0, 2, 0.0, None),   # overlaps b on another thread
                 S(3, "d", 8.0, 12.0, 0, 0, 2, 0.0, None)]  # runs past its parent
        own = tracer.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[1], 3.0)


class FailureTest(_Workdir, unittest.TestCase):
    def test_corrupted_reference_fails(self):
        client = run.Client(CLI, self.workdir)
        fp, idc = workloads.MAP_WINDOWS[0]
        cases = ((workloads.map_argv(fp, idc),
                  workloads.load_json_gz("map-windows.json.gz")[workloads.map_key(fp, idc)]),
                 (workloads.simulate_argv(2570),
                  workloads.load_json_gz("simulate.json.gz")["2570"]))
        for argv, want in cases:
            header, first, *rest = want.splitlines()
            fields = first.split(",")
            fields[2] = repr(float(fields[2]) * (1.0 + 1e-6) + 1e-9)
            corrupted = "\n".join([header, ",".join(fields), *rest]) + "\n"
            for reference, fails in ((want, False), (corrupted, True)):
                outcome = client.send(workloads.Request(argv[0], argv,
                                                        workloads._expect_csv(reference)))
                self.assertEqual(outcome.failure is not None, fails, outcome.failure)

    def test_search_reference_covers_the_full_streams(self):
        refs = workloads.load_search_reference()
        records = sum(len(text.splitlines()) - 1 for kind in refs.values()
                      for text in kind.values())
        self.assertEqual(records, 659)

    def test_wrong_exit_code_fails(self):
        valid = next(r for r in workloads.calibrate_cli(5, self.workdir) if r.command == "synth")
        probe = next(r for r in workloads.calibrate_cli(5, self.workdir) if not r.valid)
        for main, req in ((lambda argv: 1, valid), (lambda argv: 0, probe),
                          (lambda argv: 4, probe)):
            client = run.Client(types.SimpleNamespace(main=main), self.workdir)
            self.assertIsNotNone(client.send(req).failure)

    def test_escaped_exception_fails(self):
        def main(argv):
            raise IndexError("list index out of range")
        probe = next(r for r in workloads.calibrate_cli(5, self.workdir) if not r.valid)
        outcome = run.Client(types.SimpleNamespace(main=main), self.workdir).send(probe)
        self.assertIn("IndexError", outcome.failure)
        self.assertIn(" ".join(probe.argv), outcome.failure)
        self.assertFalse(hasattr(outcome, "__dict__"))


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:], verbosity=2)
