"""Verdicts of bench/gate.py on synthetic run sets; runs no benchmark.

    python3 bench/gate_test.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]}
TIGHT = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]
WIDE = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]


def scaled(values, factor):
    return [v * factor for v in values]


def run(workload, correct=True, failed=0, attempted=100):
    return {"workload": workload, "correct": correct, "failed": failed, "attempted": attempted}


class Verdict(unittest.TestCase):
    def verdict(self, better, parent, change):
        return gate.judge(better, parent, change)[2]

    def test_identical_sets_are_ok(self):
        sets = {("campaign", "cpu_ms_per_op"): TIGHT, ("campaign", "rate"): WIDE}
        self.assertEqual([r[-1] for r in gate.rows(SPEC, sets, dict(sets), set())], ["ok", "ok"])

    def test_ten_percent_slower_on_tight_runs_is_worse(self):
        self.assertEqual(self.verdict("lower", TIGHT, scaled(TIGHT, 1.10)), "worse")

    def test_ten_percent_slower_inside_a_wide_parent_iqr_is_unresolved(self):
        self.assertEqual(self.verdict("lower", WIDE, scaled(WIDE, 1.10)), "unresolved")

    def test_ten_percent_faster_in_every_pair_is_better(self):
        move, wins, verdict = gate.judge("lower", TIGHT, scaled(TIGHT, 0.90))
        self.assertEqual((wins, verdict), (10, "better"))
        self.assertAlmostEqual(move, -0.10)

    def test_ten_percent_faster_in_eight_of_ten_pairs_is_ok(self):
        change = scaled(TIGHT, 0.90)
        change[0] = change[1] = 120.0
        self.assertEqual(gate.judge("lower", TIGHT, change)[1:], (8, "ok"))

    def test_higher_is_better_is_judged_in_its_own_direction(self):
        self.assertEqual(self.verdict("higher", TIGHT, scaled(TIGHT, 0.90)), "worse")
        self.assertEqual(self.verdict("higher", TIGHT, scaled(TIGHT, 1.10)), "better")
        self.assertAlmostEqual(gate.judge("higher", TIGHT, scaled(TIGHT, 0.90))[0], 0.10)

    def test_incorrect_change_run_fails_its_workload(self):
        parent = [run("campaign"), run("ring1e6")]
        change = [run("campaign", correct=False), run("ring1e6")]
        self.assertEqual(gate.failed(parent, change), {"campaign"})

    def test_higher_failed_share_fails_its_workload(self):
        parent = [run("serve_sweep", failed=1), run("serve_sweep", failed=1)]
        self.assertEqual(gate.failed(parent, [run("serve_sweep", failed=1)] * 2), set())
        self.assertEqual(gate.failed(parent, [run("serve_sweep", failed=1),
                                              run("serve_sweep", failed=2)]), {"serve_sweep"})

    def test_failed_workload_reads_failed_in_every_row(self):
        sets = {("campaign", "cpu_ms_per_op"): TIGHT, ("campaign", "rate"): TIGHT}
        self.assertEqual([r[-1] for r in gate.rows(SPEC, sets, sets, {"campaign"})],
                         ["failed", "failed"])


class NoResult(unittest.TestCase):
    def test_a_side_that_writes_no_result_is_named(self):
        spec = {"command": ["false"], "run_seconds": 1, "workloads": [{"name": "campaign"}]}
        with tempfile.TemporaryDirectory() as tree:
            self.addCleanup(os.chdir, os.getcwd())
            out = {s: os.path.join(tree, s + ".jsonl") for s in gate.SIDES}
            with contextlib.redirect_stdout(io.StringIO()):
                error = gate.run_pairs(spec, {s: tree for s in gate.SIDES}, out)
        self.assertEqual(error, f"no result from the parent side in {tree}, pair 0: "
                                "IndexError('list index out of range')")


if __name__ == "__main__":
    unittest.main()
