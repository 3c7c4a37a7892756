"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root:

    python3 perfbench/selftest.py

The file name does not match pytest's test_*.py pattern and pyproject limits
pytest to tests/, so the repository's test suite never collects these.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import metrics  # noqa: E402
import spherecov as sc  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_totals, self_times_ns  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # op [0, 100) has children a [10, 60) and b [70, 90); a has child c [20, 30).
        t = Tracer()
        op = t.add("op.x", 0, 100)
        a = t.add("layer.a", 10, 60, parent=op)
        t.add("layer.c", 20, 30, parent=a)
        t.add("layer.b", 70, 90, parent=op)
        self.assertEqual(self_times_ns(t.start, t.end, t.parent).tolist(), [30, 40, 10, 20])
        totals = layer_totals(t)
        self.assertEqual(totals["layer.a"]["self_ns"], 40)
        self.assertEqual(totals["op.x"]["calls"], 1)

    def test_layer_metrics_normalisation(self):
        t = Tracer()
        for i in range(4):
            root = t.add("op.x", 1000 * i, 1000 * i + 900)
            t.add("gegenbauer.eval_sequence", 1000 * i, 1000 * i + 500, parent=root, count=10, nbytes=8 * 10 * 3)
        layers = metrics.layer_metrics(layer_totals(t), cycles=2, ops=4)
        self.assertEqual(layers["gegenbauer.eval_sequence.calls"], 2)
        self.assertEqual(layers["gegenbauer.eval_sequence.points"], 20)
        self.assertAlmostEqual(layers["gegenbauer.eval_sequence.self_ms"], 500 / 1e6)
        self.assertAlmostEqual(layers["gegenbauer.eval_sequence.table_mb"], 240 / 2**20)
        self.assertEqual(layers["fields.gram.calls"], 0)

    def test_wrappers_bind_everywhere_and_restore(self):
        import spherecov.cli
        import spherecov.fields
        import spherecov.schoenberg

        original = spherecov.schoenberg.kernel_eval
        t = Tracer()
        t.install()
        try:
            for module in (sc, spherecov.schoenberg, spherecov.fields, spherecov.cli):
                self.assertIsNot(module.kernel_eval, original)
            seq = sc.make_sequence([0.5, 0.5], sc.GegenbauerBasis.from_dimension(2))
            t.active = True
            sc.gram(seq, sc.uniform_sphere_points(2, 5, 0))
            t.active = False
        finally:
            t.uninstall()
        self.assertIs(spherecov.fields.kernel_eval, original)
        self.assertEqual(
            t.names, ["fields.uniform_sphere_points", "fields.gram", "schoenberg.kernel_eval", "gegenbauer.eval_sequence"]
        )
        self.assertEqual(t.parent, [-1, -1, 1, 2])
        self.assertEqual(t.count[1], 25)
        self.assertEqual(t.count[3], 15)


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        value, pct, beyond = metrics.tail(values)
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))

    def test_smallest_sample_count_with_a_tail(self):
        self.assertEqual(metrics.tail(range(11)), (0, 100.0 / 11, 10))

    def test_too_few_samples_uses_the_maximum(self):
        self.assertEqual(metrics.tail([3, 1, 2]), (3, 100.0, 0))

    def test_robust_cycle_time(self):
        records = [{"pos": p, "latency_s": v} for p, v in [(0, 1.0), (1, 2.0), (0, 1.0), (1, 2.0), (0, 9.0), (1, 2.0)]]
        self.assertAlmostEqual(metrics.op_metrics(records, 2)["ops_per_s"], 2 / 3.0)

    def test_reference_scaling(self):
        # Three ops; the host runs at half speed around the second one.
        records = [{"wall_s": w} for w in (1.0, 2.0, 1.0)]
        worker.scale_latencies(records, [10, 10, 30, 10], nominal_s=10e-9)
        self.assertEqual([r["ref_s"] for r in records], [10e-9, 20e-9, 20e-9])
        self.assertEqual([r["latency_s"] for r in records], [1.0, 1.0, 0.5])


class NamesTest(unittest.TestCase):
    def test_names_and_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        declared += [w["name"] for w in bench["workloads"]]
        for name in declared:
            self.assertRegex(name, metrics.NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(declared), len(set(declared)))
        self.assertEqual({m["name"] for m in bench["end_to_end"]}, set(metrics.END_TO_END))
        emitted = set(metrics.layer_units()) | {f"op.{k}.p50_ms" for k in worker.ALL_KINDS}
        self.assertEqual({m["name"] for m in bench["per_layer"]}, emitted)


class PlantedFailureTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="selftest-")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_wrong_certificate_counts_as_failed(self):
        wl = workloads.CertifyWorkload(seed=7, workdir=self.workdir)
        wl.setup()
        planted = wl.ops[0]
        self.assertEqual(planted.kind, "certify_planted")

        def wrong(cycle):
            cert = planted.run(cycle)
            witness = dict(cert.witness, index=cert.witness["index"] + 1)
            return dataclasses.replace(cert, witness=witness)

        wl.ops = [planted, workloads.Op("certify_planted", wrong, planted.check)]
        records = worker.run_loop(wl, range(2))
        failed = sum(1 for r in records if r["error"])
        self.assertEqual((len(records), failed), (4, 2))
        self.assertEqual(metrics.fail_ratio(len(records), failed), 0.5)
        self.assertIn("witness index", records[1]["error"])

    def test_wrong_cli_value_counts_as_failed(self):
        env_before = os.environ.get("PYTHONPATH")
        wl = workloads.CliWorkload(seed=7, workdir=self.workdir, src_dir=SRC)
        wl.setup()
        self.assertEqual(os.environ.get("PYTHONPATH"), env_before)
        good = wl.ops[0].run(0)
        self.assertIsNone(wl.ops[0].check(good, 0))
        x_text, value = good["stdout"].decode().strip().split(",")
        bad = dict(good, stdout=f"{x_text},{float(value) * (1 + 1e-9)!r}\n".encode())
        self.assertIn("differs from the library", wl.ops[0].check(bad, 0))
        self.assertIn("exit code 3", wl.ops[0].check(dict(good, code=3, stderr="boom"), 0))


if __name__ == "__main__":
    unittest.main()
