"""Tests of the tracer and of BENCHMARK.json against the metrics reported.

Run with ``python3 -m unittest discover -s perfbench`` from the repository
root (or with pytest).
"""

import json
import sys
import unittest
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import commlat  # noqa: E402
from commlat import classify, corpus, lattice  # noqa: E402


class TracerTest(unittest.TestCase):
    def setUp(self):
        for cache in spans.package_caches():
            cache.cache_clear()
        self.tracer = spans.Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_records_only_inside_an_operation(self):
        classify.analyze(corpus.diamond())
        self.assertEqual(self.tracer.summary()["classify.analyze.self_ms"], 0.0)
        self.tracer.op = 1
        classify.analyze(corpus.chain(4))
        self.tracer.op = None
        metrics = self.tracer.summary()
        self.assertGreater(metrics["classify.analyze.self_ms"], 0.0)
        self.assertGreater(metrics["lattice.is_modular.calls"], 1)
        self.assertEqual(self.tracer.absent, [])

    def test_internal_calls_are_seen_and_self_time_excludes_children(self):
        chain = corpus.chain(4)
        self.tracer.op = 1
        lattice.all_congruences(chain)
        self.tracer.op = None
        metrics = self.tracer.summary()
        # all_congruences calls congruence_generated through its module
        # global, so the wrapper at that binding sees every call.
        self.assertGreater(metrics["lattice.congruence_generated.calls"], 6)
        total = (self.tracer._end[0] - self.tracer._start[0]) * 1e3
        self.assertLess(metrics["lattice.all_congruences.self_ms"], total)

    def test_witness_counts(self):
        self.tracer.op = 1
        classify.analyze(corpus.diamond())
        self.tracer.op = None
        metrics = self.tracer.summary()
        self.assertGreater(metrics["classify.witness.candidates"], 0)
        self.assertGreater(metrics["classify.witness.found_ratio"], 0.0)

    def test_uninstall_restores_every_binding(self):
        self.assertTrue(hasattr(commlat.analyze, "__wrapped__"))
        self.tracer.uninstall()
        self.assertIs(commlat.analyze, classify.analyze)
        self.assertFalse(hasattr(classify.analyze, "__wrapped__"))

    def test_caches_are_found_through_the_tracer(self):
        traced = spans.package_caches()
        self.tracer.uninstall()
        self.assertTrue(traced)
        self.assertEqual(len(traced), len(spans.package_caches()))


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_every_reported_metric(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
            doc = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            spans.per_layer_metrics())
        self.assertEqual(
            {m["name"] for m in doc["end_to_end"]},
            {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"})
        import workloads
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
