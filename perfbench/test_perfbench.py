#!/usr/bin/env python3
"""Self-tests of the FlashSim host-speed benchmark.

    python3 perfbench/test_perfbench.py            # everything
    python3 perfbench/test_perfbench.py Arithmetic # no simulator runs

The smoke tests build the simulator (as run.py does) and make a few
one-run invocations of the benchmark, including one against a tampered
reference that every run must fail.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import perfstats  # noqa: E402
import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(perfstats.median([3, 1, 2]), 2)
        self.assertEqual(perfstats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            perfstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        self.assertEqual(perfstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(perfstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_host_factor(self):
        # A host running 1.5x slow: kernel 0.3 s against a nominal 0.2 s.
        self.assertAlmostEqual(perfstats.host_factor(0.28, 0.32, 0.2),
                               0.2 / 0.3)
        with self.assertRaises(ValueError):
            perfstats.host_factor(0.0, 0.0, 0.2)

    def test_failure_counting(self):
        ref = {"exec_cycles": 10, "state_digest": "0x1"}
        outcomes = [dict(ref), {"exec_cycles": 11, "state_digest": "0x1"},
                    None, dict(ref), {"exec_cycles": 10}]
        self.assertEqual(perfstats.count_failures(ref, outcomes), (5, 3))
        self.assertEqual(perfstats.signature_diff(ref, outcomes[1]),
                         ["exec_cycles"])
        self.assertEqual(perfstats.signature_diff(ref, outcomes[4]),
                         ["state_digest"])

    def test_no_reference_fails_every_run(self):
        self.assertEqual(perfstats.count_failures(None, [{"a": 1}] * 3),
                         (3, 3))

    def test_mismatch_frac(self):
        self.assertEqual(perfstats.mismatch_frac(4, 1), 0.25)
        self.assertEqual(perfstats.mismatch_frac(3, 3), 1.0)
        with self.assertRaises(ValueError):
            perfstats.mismatch_frac(0, 0)

    def test_est_share(self):
        # 100 ns per op, 2M ops, in a 1 s run: 0.2 s of it, a 20% share.
        self.assertAlmostEqual(perfstats.est_share(100.0, 2_000_000, 1.0),
                               0.2)
        self.assertEqual(perfstats.est_share(50.0, 0, 2.0), 0.0)
        with self.assertRaises(ValueError):
            perfstats.est_share(1.0, 1, 0.0)
        self.assertEqual(perfstats.ratio(6, 3), 2.0)
        self.assertEqual(perfstats.ratio(6, 0), 0.0)


class Contract(unittest.TestCase):
    """BENCHMARK.json, when present beside this directory, must name
    exactly what run.py measures."""

    def setUp(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json")
        self.bench = json.loads(path.read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_metric_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.bench["per_layer"]}, run.PER_LAYER)

    def test_references_cover_every_workload(self):
        refs = run.load_references(run.REFERENCES)
        self.assertEqual(sorted(refs["workloads"]), sorted(run.WORKLOADS))


class Smoke(unittest.TestCase):
    """One-run invocations of the real benchmark."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = run.build_dir().parent / "selftest"
        cls.tmp.mkdir(parents=True, exist_ok=True)

    def bench(self, *args):
        record = self.tmp / "record.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--record", str(record), *args],
            capture_output=True, text=True, timeout=900, check=False)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        return result, json.loads(record.read_text())

    def test_end_to_end_matches_reference(self):
        result, record = self.bench("--workload", "radix-4k")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(run.END_TO_END))
        self.assertEqual(result["metrics"]["sim_match_frac"]["value"], 1.0)
        self.assertGreater(result["metrics"]["run_s"]["value"], 0)
        self.assertEqual(record["sim_mismatch_frac"], 0.0)
        self.assertEqual(record["workload"]["app_seed"], 12345)

    def test_tampered_reference_fails_every_run(self):
        refs = run.load_references(run.REFERENCES)
        refs["workloads"]["radix-4k"]["signature"]["state_digest"] = "0x0"
        tampered = self.tmp / "tampered.json"
        tampered.write_text(json.dumps(refs))
        result, record = self.bench("--workload", "radix-4k",
                                    "--reference", str(tampered))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(record["sim_mismatch_frac"], 1.0)

    def test_ledger_splits_the_layers(self):
        result, _ = self.bench("--workload", "mp3d-ideal", "--trace", "1")
        self.assertTrue(result["correct"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(sorted(m), sorted(run.PER_LAYER))
        self.assertEqual(m["ppisa.pairs"], 0)
        self.assertEqual(m["ppisa.est_share"], 0.0)
        self.assertGreater(m["network.messages"], 0)

    def test_missing_sources_exit_nonzero(self):
        # A copy of just this directory has no simulator to build.
        lone = self.tmp / "lone"
        (lone / "perfbench").mkdir(parents=True, exist_ok=True)
        for name in ("run.py", "perfstats.py"):
            (lone / "perfbench" / name).write_text(
                (HERE / name).read_text())
        done = subprocess.run(
            [sys.executable, str(lone / "perfbench" / "run.py"),
             "--workload", "lu-flash", "--seconds", "1"],
            capture_output=True, text=True, timeout=120, check=False,
            cwd=lone)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
