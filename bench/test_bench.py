"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -t bench

Takes about a minute: it runs every task once untraced and once traced.
"""

from __future__ import annotations

import dataclasses
import io
import sys
import unittest
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from apolarium import apolar, exact, papersuite  # noqa: E402

SEEDED = ("catalecticant", "partials", "sweet")


def build(workload, seed):
    return workloads.build(workload, seed, run.child_env())


class TracedMatchesUntraced(unittest.TestCase):
    def test_answers_are_identical(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                tasks = build(workload, 3)
                plain = run.run_pass(tasks, workloads.check)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run.run_pass(tasks, workloads.check, tracer,
                                          inprocess=True)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain.failed, 0)
                self.assertEqual(traced.failed, 0)
                self.assertEqual(plain.answers, traced.answers)
                self.assertTrue(tracer.spans)

    def test_uninstall_restores_every_binding(self):
        tracer = tracing.Tracer()
        before = {name: dict(vars(mod)) for name, mod in tracer.modules.items()}
        insert = exact.SparseEchelon.__dict__["insert"]
        runs = [e.run for e in papersuite.ENTRIES]
        tracer.install()
        self.assertIsNot(apolar.apply, before["poly"]["apply"])
        tracer.uninstall()
        for name, mod in tracer.modules.items():
            self.assertEqual(dict(vars(mod)), before[name])
        self.assertIs(exact.SparseEchelon.__dict__["insert"], insert)
        self.assertEqual([e.run for e in papersuite.ENTRIES], runs)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOAD_NAMES:
            a = [t.inputs for t in build(workload, 5)]
            b = [t.inputs for t in build(workload, 5)]
            self.assertEqual(a, b)

    def test_other_seed_other_inputs_same_answers(self):
        for workload in SEEDED:
            with self.subTest(workload=workload):
                one, two = build(workload, 1), build(workload, 2)
                self.assertEqual([t.expected for t in one],
                                 [t.expected for t in two])
                moved = [(a, b) for a, b in zip(one, two) if a.inputs != b.inputs]
                self.assertTrue(moved)
                for a, b in moved:
                    self.assertTrue(workloads.check(a, a.run()), a.name)
                    self.assertTrue(workloads.check(b, b.run()), b.name)


class Checker(unittest.TestCase):
    def test_wrong_expected_value_is_rejected(self):
        task = build("catalecticant", 1)[0]
        answer = task.run()
        self.assertTrue(workloads.check(task, answer))
        wrong = dataclasses.replace(
            task, expected={**task.expected, "rank": task.expected["rank"] + 1})
        self.assertFalse(workloads.check(wrong, answer))
        with redirect_stderr(io.StringIO()) as err:
            result = run.run_pass([task, wrong], workloads.check)
        self.assertEqual(result.failed, 1)
        self.assertIn("wrong answer", err.getvalue())

    def test_refusal_passes_only_with_exit_3(self):
        task = build("cli", 1)[-1]
        self.assertEqual(task.expected["exit"], 3)
        answer = task.run()
        self.assertTrue(workloads.check(task, answer))
        self.assertFalse(workloads.check(task, {**answer, "exit": 0}))


class Tail(unittest.TestCase):
    def test_needs_ten_values_beyond(self):
        self.assertIsNone(run.tail([1.0] * 10))
        pct, value = run.tail([float(i) for i in range(20)])
        self.assertEqual((pct, value), (50.0, 9.0))


if __name__ == "__main__":
    unittest.main()
