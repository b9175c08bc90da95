"""Self-tests of the benchmark's correctness checks and span analysis.

    python3 -m unittest discover -s perfbench -p "test_*.py"

``fixtures/`` holds CLI outputs of the seed commit (pass seed 1000 of each
workload). Every check must accept them and reject a deliberately wrong copy.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

FIXTURES = HERE / "fixtures"


def failed(checks) -> list:
    return [name for name, ok, _ in checks if not ok]


class SeedOutputsPass(unittest.TestCase):
    def test_every_workload_accepts_seed_outputs(self):
        for name, workload in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                checks = workload.check(FIXTURES / name)
                self.assertTrue(checks)
                self.assertEqual(failed(checks), [])


class ChecksRejectWrongOutputs(unittest.TestCase):
    def test_cartan_violation(self):
        rows = wl.read_csv(FIXTURES / "tails-small" / "cartan" / "cartan.csv")
        rows[3]["violations"] = "1"
        self.assertEqual(failed(wl.check_cartan(rows)), ["cartan.violations"])

    def test_tail_fraction_increasing_in_k(self):
        rows = wl.read_csv(FIXTURES / "tails-small" / "negtail" / "negtail.csv")
        rows[-1]["fraction"] = str(float(rows[0]["fraction"]) + 0.1)
        self.assertEqual(failed(wl.check_negtail(rows, "negtail")), ["negtail.monotone"])

    def test_contrast_naive_depth_crossed(self):
        rows = wl.read_csv(FIXTURES / "tails-small" / "contrast" / "negtail.csv")
        for row in rows:
            if float(row["k"]) == 2.0:
                row["naive_count"] = "1"
        self.assertIn("contrast.k2", failed(wl.check_contrast(rows)))

    def test_dets_gap(self):
        for label in ("dets_cauchy", "dets_band"):
            doc = wl.read_json(FIXTURES / "routes" / label / "dets.json")
            doc["agreement_gap"] = 1e-3
            self.assertEqual(failed(wl.check_dets(doc, label)), [f"{label}.gap"])

    def test_dets_sign(self):
        doc = wl.read_json(FIXTURES / "routes" / "dets_band" / "dets.json")
        doc["results"]["schur"]["sign"] *= -1
        self.assertEqual(failed(wl.check_dets(doc, "dets_band")), ["dets_band.signs"])

    def test_verify_failed(self):
        doc = wl.read_json(FIXTURES / "routes" / "verify" / "verify_all.json")
        doc["passed"] = False
        self.assertEqual(failed(wl.check_verify(doc)), ["verify.passed"])

    def test_exponents_off_by_ten_stderr(self):
        base = wl.read_json(FIXTURES / "cocycle-long" / "lyapunov" / "lyapunov.json")
        for i in range(2):
            doc = copy.deepcopy(base)
            # move away from the reference, so the shift is never absorbed
            away = 1.0 if doc["gamma"][i] >= wl.GAMMA_REFERENCE[i] else -1.0
            doc["gamma"][i] += away * 10.0 * doc["stderr"][i]
            self.assertIn(f"lyapunov.gamma{i + 1}", failed(wl.check_spectrum(doc)))

    def test_radii_unpaired(self):
        doc = wl.read_json(FIXTURES / "cocycle-long" / "lyapunov" / "lyapunov.json")
        doc["radii"][0] *= 1.01
        self.assertEqual(failed(wl.check_spectrum(doc)), ["lyapunov.radii_pair"])

    def test_convergence_mean_off(self):
        rows = wl.read_csv(FIXTURES / "logdet-long" / "convergence" / "convergence.csv")
        for key in ("mean_small", "mean_large"):
            bad = copy.deepcopy(rows)
            bad[0][key] = str(float(bad[0][key]) + 10.0 * float(bad[0]["gap_se"]))
            self.assertEqual(failed(wl.check_convergence(bad)), [f"convergence.{key}"])


class SpanAnalysis(unittest.TestCase):
    # [id, parent, layer, command, start, end, counts]
    SPANS = [
        [1, None, "cli.command", 0, 0.0, 10.0, None],
        [2, 1, "sampling.kernel", 0, 1.0, 9.0, {"samples": 100, "excluded": 4}],
        # two pool threads drawing at once: busy time 3.5, covered interval 2.5
        [3, 2, "model.draw", 0, 1.0, 3.0, None],
        [4, 2, "model.draw", 0, 2.0, 3.5, None],
        [5, 2, "model.assemble", 0, 5.0, 6.0, None],
        [6, 5, "model.assemble", 0, 5.2, 5.8, None],
    ]

    def test_self_time_uses_covered_interval(self):
        selfs = spans.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[2], 8.0 - 2.5 - 1.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertTrue(all(v >= 0.0 for v in selfs.values()))

    def test_layer_metrics(self):
        m = spans.layer_metrics(self.SPANS)
        self.assertAlmostEqual(m["model.draw_s"], 3.5)
        self.assertEqual(m["model.draw_calls"], 2)
        self.assertAlmostEqual(m["model.assemble_s"], 1.0)
        self.assertEqual(m["model.assemble_calls"], 1)
        self.assertEqual(m["sampling.chunks"], 2)
        self.assertAlmostEqual(m["sampling.factor_self_s"], 4.5)
        self.assertAlmostEqual(m["sampling.kept_fraction"], 0.96)
        self.assertAlmostEqual(m["sampling.us_per_sample"], 8e4)
        self.assertEqual(spans.largest_self_layer(self.SPANS), "sampling.kernel")

    def test_nesting_errors(self):
        self.assertEqual(spans.nesting_errors(self.SPANS), [])
        bad = copy.deepcopy(self.SPANS)
        bad[3][5] = 9.5  # ends after its parent
        self.assertEqual(spans.nesting_errors(bad), [4])


class Harness(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name)
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "routes", "--seed", "1", "--seconds", "1"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_names_every_metric(self):
        import run

        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]), sorted(wl.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
