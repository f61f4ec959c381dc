"""Quick tests of the benchmark itself: every workload passes its checks at
a tiny size, every oracle rejects a planted wrong answer, and the tracer
puts the package back the way it found it.

    python3 -m unittest discover -s benchmarks -v
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock
from pathlib import Path

import run
import workloads
from tracing import Target, Tracer

jc = run.import_program()


def one_round(workload):
    workload.setup(jc)
    tally = run.Tally()
    run.run_rounds(workload, 0, tally)
    tally.check(workload)
    return tally


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ladder = workloads.Ladder([(61, 5, 1), (1009, 3, 1), (31, 3, 2), (11, 5, 3)])
        cls.ladder_tally = one_round(cls.ladder)
        cls.scan = workloads.ScanL13([79], {79: list(range(1, 13))})
        cls.scan_tally = one_round(cls.scan)
        cls.codec = workloads.Codec(3, [(61, 5, 1, 3), (31, 3, 1, 2), (11, 5, 2, 2), (7, 3, 2, 2)])
        cls.codec_tally = one_round(cls.codec)

    def test_every_workload_passes_its_checks(self):
        for tally in (self.ladder_tally, self.scan_tally, self.codec_tally):
            self.assertEqual((tally.failed, tally.errors, tally.raised), (0, [], []))
            self.assertGreater(tally.attempted, 0)

    def test_perturbed_jacobi_coefficient_is_rejected(self):
        for key in ((61, 5, 1), (1009, 3, 1), (31, 3, 2)):
            out = dict(self.ladder_tally.refs[key])
            out["J"] = (out["J"][0] + 1, *out["J"][1:])
            self.assertTrue(self.ladder.check(key, out), key)

    def test_swapped_class_status_is_rejected(self):
        records = self.scan_tally.refs[79]
        exception = next(r for r in records if r[5] == "exception")
        # one generator of a class flipped: the class disagrees with itself
        flipped = tuple(r[:5] + ("mds", ()) if r is exception else r for r in records)
        self.assertTrue(self.scan.check(79, flipped))
        # a whole class flipped: only the recomputation can tell
        c = exception[4] % 13
        swapped = tuple(r[:5] + ("mds", ()) if r[4] % 13 == c else r for r in records)
        errs = self.scan.check(79, swapped)
        self.assertTrue(errs)
        self.assertTrue(all("recomputed" in e for e in errs))

    def test_wrong_decoded_symbol_is_rejected(self):
        for key, (index, _, errors) in enumerate(self.codec.words):
            out = self.codec_tally.refs[key]
            if self.codec.codes[index][0].l != 5 or out[2] is None:
                continue
            decoded, error = out[2]
            bad = ((decoded[0][0] + 1) % self.codec.codes[index][0].p, *decoded[0][1:])
            wrong = (out[0], out[1], ((bad, *decoded[1:]), error))
            self.assertTrue(self.codec.check(key, wrong), (key, len(errors)))

    def test_missed_single_error_is_rejected(self):
        key = next(k for k, (i, _, errors) in enumerate(self.codec.words)
                   if self.codec.codes[i][0].l == 3 and len(errors) == 1)
        codeword, received, syndrome = self.codec_tally.refs[key]
        zero = tuple((0,) * len(s) for s in syndrome)
        self.assertTrue(self.codec.check(key, (codeword, received, zero)))

    def test_outcomes_count_every_word(self):
        counts = self.codec.outcome_counts(self.codec_tally.refs)
        self.assertEqual(counts["words"], len(self.codec.words))
        # three words per error count over F_61 and two over F_121 have l = 5
        self.assertEqual(counts["corrected"], 5)
        self.assertEqual(counts["beyond_radius"] + counts["miscorrected"], 5)
        # l = 3: every single error is detected, a double error may not be
        self.assertGreaterEqual(counts["detected"], 4)
        self.assertLessEqual(counts["detected"], 8)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(workloads.Ladder.from_seed(7).fields, workloads.Ladder.from_seed(7).fields)
        a, b = workloads.ScanL13.from_seed(7), workloads.ScanL13.from_seed(7)
        self.assertEqual((a.primes, a.sampled), (b.primes, b.sampled))

    def test_ladder_always_holds_the_worked_example(self):
        for seed in range(5):
            fields = workloads.Ladder.from_seed(seed).fields
            self.assertIn((61, 5, 1), fields)
            self.assertEqual(len(fields), 13)

    def test_scan_always_holds_79_with_all_its_classes(self):
        for seed in range(5):
            scan = workloads.ScanL13.from_seed(seed)
            self.assertIn(79, scan.primes)
            self.assertEqual(scan.sampled[79], list(range(1, 13)))


class Tracing(unittest.TestCase):
    def test_install_traces_cross_module_calls_and_restores(self):
        before = (jc.scanner.check_row_subsets, jc.check_row_subsets, jc.CycInt.__mul__)
        tracer = Tracer()
        targets = [Target("codes.check_row_subsets"), Target("cyclotomic.CycInt.__mul__"),
                   Target("fields.no_such_function")]
        with tracer.installed(jc, targets):
            self.assertIsNot(jc.scanner.check_row_subsets, before[0])
            jc.scan(13, 53, 53, generators="first")
            tracer.end_round()
        self.assertEqual((jc.scanner.check_row_subsets, jc.check_row_subsets,
                          jc.CycInt.__mul__), before)
        self.assertEqual(tracer.calls("codes.check_row_subsets"), 1)
        self.assertGreater(tracer.calls("cyclotomic.CycInt.__mul__"), 0)
        self.assertEqual(tracer.calls("fields.no_such_function"), 0)
        self.assertEqual(tracer.self_ms("fields.no_such_function"), 0)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.installed(jc, [Target("scanner.scan"), Target("codes.check_row_subsets")]):
            jc.scan(13, 53, 53, generators="first")
            tracer.end_round()
        by_id = {s[0]: s for s in tracer.spans}
        outer = next(s for s in tracer.spans if s[1] == "scanner.scan")
        inner = next(s for s in tracer.spans if s[1] == "codes.check_row_subsets")
        self.assertEqual(by_id[inner[4]], outer)
        self.assertAlmostEqual(tracer.self_ms("scanner.scan") / 1000,
                               (outer[3] - outer[2]) - (inner[3] - inner[2]), places=6)


class Scaling(unittest.TestCase):
    def test_times_are_scaled_to_the_reference_speed(self):
        class Nap:
            def ops(self):
                return [("nap", lambda: time.sleep(0.01))]

            def plain(self, key, out):
                return out

        # a host at half the reference speed: a 10-ms nap counts as 5 ms
        with mock.patch.object(run, "reference_s", lambda: 2 * run.REFERENCE_S):
            (nap,) = run.run_rounds(Nap(), 0, run.Tally())
        self.assertGreaterEqual(nap, 0.005)
        self.assertLess(nap, 0.01)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        tracer = Tracer()
        tracer.end_round()
        traced = run.per_layer(workloads.ScanL13([79], {79: []}), run.Tally(), tracer, [1.0], [1.0])
        self.assertEqual(set(traced), {m["name"] for m in spec["per_layer"]})
        plain = run.end_to_end([1.0], [1.0], 1024)
        self.assertEqual(set(plain), {m["name"] for m in spec["end_to_end"]})
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


class Command(unittest.TestCase):
    def run_command(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
            capture_output=True, text=True, timeout=170)

    def test_prints_every_end_to_end_metric(self):
        done = self.run_command(run.HERE.parent, "--workload", "scan-l13", "--seed", "1",
                                "--seconds", "0", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 3, 0))
        self.assertEqual(sorted(result["metrics"]),
                         ["latency_ms_p50", "ops_per_s", "peak_rss_mb", "setup_s"])

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "benchmarks",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = self.run_command(tmp, "--workload", "ladder", "--seed", "1",
                                    "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
