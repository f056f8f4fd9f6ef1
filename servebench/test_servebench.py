"""Tests of the benchmark's contract: every metric BENCHMARK.json names is
emitted with its unit, results are checked, fingerprints gate comparisons and
exact counts are held across runs.

    python3 servebench/run.py --self-test      # builds, then runs these
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def binary():
    return os.path.join(run.build(), "servebench")


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class MetricTables(unittest.TestCase):
    def test_binary_tables_match_benchmark_json(self):
        listed = json.loads(subprocess.check_output([binary(), "--list-metrics"]))
        self.assertEqual(listed["end_to_end"], declared("end_to_end"))
        self.assertEqual(listed["per_layer"], declared("per_layer"))

    def test_every_metric_emitted_with_its_unit(self):
        # A short run of the cheapest workload in both modes; each mode's
        # result line must carry exactly its declared metrics and units.
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.check_output(
                [binary(), "--workload", "hot_zipf", "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace)], text=True, timeout=170)
            rest, fingerprint, exact, result = run.parse_output(out)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, declared(kind))
            for k, v in result["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)
            if kind == "end_to_end":
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)
            for key in compare.HOST_KEYS:
                self.assertIn(key, fingerprint)
            self.assertGreater(exact["decoded_samples"], 0)


class ExactCounts(unittest.TestCase):
    def test_drift_is_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            ledger = os.path.join(d, "exact.json")
            counts = {"mq_decisions_per_image": 10.5, "bytes_out_per_req": 7}
            self.assertEqual(run.check_exact("w/seed1", counts, ledger), [])
            self.assertEqual(run.check_exact("w/seed1", dict(counts), ledger), [])
            moved = dict(counts, bytes_out_per_req=8)
            self.assertEqual(run.check_exact("w/seed1", moved, ledger), ["bytes_out_per_req"])
            self.assertEqual(run.check_exact("w/seed2", moved, ledger), [])


class SourceDigest(unittest.TestCase):
    def test_digest_covers_sources_not_results(self):
        with tempfile.TemporaryDirectory() as d:
            for sub in ("src", "servebench"):
                os.makedirs(os.path.join(d, sub, "results" if sub == "servebench" else "x"))
            with open(os.path.join(d, "src", "x", "a.cpp"), "w") as f:
                f.write("int a;")
            first = run.source_digest(d)
            with open(os.path.join(d, "servebench", "results", "r.json"), "w") as f:
                f.write("{}")
            self.assertEqual(run.source_digest(d), first)
            with open(os.path.join(d, "src", "x", "a.cpp"), "w") as f:
                f.write("int b;")
            self.assertNotEqual(run.source_digest(d), first)


class Compare(unittest.TestCase):
    FP = {"cpu_model": "x", "nproc": 4, "kernel_isa": "avx2", "compiler": "gcc",
          "build_type": "RelWithDebInfo", "obs_tracing": "ON", "commit": "a"}

    def record(self, value, **fp):
        return {"workload": "cold_j2k", "fingerprint": dict(self.FP, **fp),
                "result": {"metrics": {"throughput_rps": {"value": value, "unit": "1/s"}}}}

    def test_fingerprint_difference_blocks_a_verdict(self):
        recs = [self.record(1.0), self.record(1.0, nproc=1)]
        self.assertEqual(compare.fingerprint_diff(recs), ["nproc"])
        self.assertEqual(compare.fingerprint_diff([self.record(1.0), self.record(1.0, commit="b")]),
                         [])

    def test_verdict_uses_the_bound(self):
        bounds = {"throughput_rps": ("higher", 0.1)}
        v = lambda b, h: compare.verdicts([self.record(b)], [self.record(h)], bounds)[0][-1]
        self.assertEqual(v(100.0, 95.0), "same")
        self.assertEqual(v(100.0, 85.0), "worse")
        self.assertEqual(v(100.0, 115.0), "better")


if __name__ == "__main__":
    unittest.main()
