"""Self-tests of the benchmark: seeded generation, the independent
checker and the per-op deadline.

    python3 -m pytest -q perfbench      (from the repository root)
"""

import copy
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import latcert  # noqa: E402


def report_of(doc):
    op = run.InProcess(latcert, deadline=10.0)
    return run.report_dict(op._build_and_run(doc))


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            spans.per_layer_names(),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for w in spec["workloads"]:
            deadline = workloads.DEADLINE_S[w["name"]]
            self.assertIn(f"deadline {deadline:g} s", w["why"])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.schedule(workload, 7, run.DATA)
                self.assertEqual(first, workloads.schedule(workload, 7, run.DATA))
                self.assertNotEqual(first, workloads.schedule(workload, 8, run.DATA))

    def test_census_is_the_whole_window_with_the_anchor(self):
        window = workloads.census_window()
        dets = [g[0][1] ** 2 - 4 * g[1][1] for g in (d["gram"] for d in window)]
        self.assertTrue(all(0 < d <= workloads.CENSUS_DET_MAX for d in dets))
        self.assertEqual(len(set(map(str, window))), len(window))
        self.assertIn(workloads.ANCHOR_GRAM, [d["gram"] for d in window])

    def test_bitsize_round_covers_every_family(self):
        sched = workloads.bitsize(3, rounds=1)
        ks = [d for d in sched if d.get("isometry") and "degree_bound" not in d]
        self.assertEqual(len(ks), workloads.BITSIZE_K_MAX)
        dets = sorted(-checker.det2(d["gram"]) for d in sched if not d.get("isometry"))
        self.assertLess(dets[0], 10)
        self.assertGreater(dets[-1], 10**11)
        bounds = sorted(d["degree_bound"] for d in sched if "degree_bound" in d)
        self.assertLess(bounds[0], 2 * workloads.DEGREE_LO)
        self.assertGreater(bounds[-1], workloads.DEGREE_HI // 2)


class CheckerTest(unittest.TestCase):
    def assert_rejects_tampering(self, doc, tamper):
        report = report_of(doc)
        self.assertEqual(checker.check_report(doc, report), [])
        bad = copy.deepcopy(report)
        tamper(bad["steps"])
        self.assertNotEqual(checker.check_report(doc, bad), [])

    def test_s2_witness(self):
        doc = {"gram": [[2, 0], [0, -2]], "polarization": [1, 0]}

        def tamper(steps):
            steps[1]["witness"][0]["vector"] = (1, 0)

        self.assert_rejects_tampering(doc, tamper)

    def test_s4_witness(self):
        doc = {
            "gram": workloads.PAPER_GRAM,
            "polarization": [1, 0],
            "isometry": workloads.SIGMA,
            "degree_bound": 32,
        }
        for coords in ([2, 0], [0, 2], [1, 1]):

            def tamper(steps):
                steps[3]["witness"]["coords"] = coords

            self.assert_rejects_tampering(doc, tamper)

    def test_s5_isometry(self):
        doc = {"gram": workloads.ANCHOR_GRAM, "polarization": [1, 0]}

        def identity(steps):
            steps[4]["details"]["isometry"] = [[1, 0], [0, 1]]

        def not_isometry(steps):
            m = steps[4]["details"]["isometry"]
            m[0][0] += 1

        def wrong_order(steps):
            steps[4]["details"]["disc_action_order"] = 2

        for tamper in (identity, not_isometry, wrong_order):
            self.assert_rejects_tampering(doc, tamper)

    def test_cli_exit_code(self):
        self.assertNotEqual(checker.check_cli(["pell", "24"], 1, 0, "(5, 1)\n", {}, {}), [])
        self.assertEqual(checker.check_cli(["pell", "24"], 0, 0, "(5, 1)\n", {}, {}), [])
        self.assertNotEqual(checker.check_cli(["pell", "24"], 0, 0, "(49, 10)\n", {}, {}), [])


class DeadlineTest(unittest.TestCase):
    def test_hang_is_cut_and_next_op_runs(self):
        powers = workloads.sigma_powers(60)
        doc = {"gram": workloads.PAPER_GRAM, "polarization": [1, 0]}
        op = run.InProcess(latcert, deadline=0.05)
        elapsed, outcome, _ = op(dict(doc, isometry=powers[60]))
        self.assertEqual(outcome, "deadline")
        self.assertGreaterEqual(elapsed, 0.05e9)
        _, outcome, problem = op(dict(doc, isometry=powers[1]))
        self.assertEqual((outcome, problem), ("pass", ""))

    def test_hit_is_unanswered_not_failed(self):
        records = [(1, "pass", ""), (2, "unknown", ""), (3, "deadline", ""), (4, "wrong", "x")]
        s = run.summarize(records)
        self.assertEqual((s["failed"], s["deadline_hits"]), (1, 1))
        self.assertEqual((s["answered_share"], s["decided_share"]), (0.5, 0.25))


if __name__ == "__main__":
    unittest.main()
