#!/usr/bin/env python3
"""Tests of the benchmark's output checks: a real output passes, and the
same output with one flipped byte fails.

Run from the root of a checkout (it builds first, like the benchmark):

    python3 perfbench/test_checks.py
"""

import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK = os.path.join(run.BENCH, "_work", "test")


def flip(data, at=None):
    """data with the byte at [at] (default: the middle) XOR-ed with 1."""
    i = len(data) // 2 if at is None else at
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        cls.spec = os.path.join(WORK, "spec.sc")
        run.gen_specs(WORK, [(cls.spec, 7, 10, 12, 5, 2)])
        cls.errfile = os.path.join(WORK, "stderr.txt")

    @classmethod
    def tearDownClass(cls):
        run.Spawner.stop()

    def cli(self, argv):
        code, out, _, _ = run.run_cli(argv, self.errfile)
        self.assertIn(code, (0, 1))
        return code, out

    def assert_flip_fails(self, record, out):
        """The check passes on [out] and fails on every one-byte flip
        tried (start, middle and end of the output)."""
        path = os.path.join(WORK, "out.txt")
        record = dict(record, label="job", out=path)
        with open(path, "wb") as f:
            f.write(out)
        self.assertEqual(run.verify(WORK, [record]), {})
        for at in (0, len(out) // 2, len(out) - 2):
            with open(path, "wb") as f:
                f.write(flip(out, at))
            self.assertIn("job", run.verify(WORK, [record]), f"flip at {at}")

    def test_refine(self):
        _, out = self.cli(["refine", "-q", "-m", "3", self.spec])
        self.assert_flip_fails({"check": "refine", "spec": self.spec,
                                "model": "3", "mode": "per_tag"}, out)

    def test_lint(self):
        for flags, rec in (([], {}), (["--json"], {"json": True}),
                           (["--flow"], {"flow": True})):
            _, out = self.cli(["lint"] + flags + [run.MEDICAL])
            self.assert_flip_fails(
                dict({"check": "lint", "spec": run.MEDICAL}, **rec), out)

    def test_faults(self):
        _, out = self.cli(["faults", "-m", "2", "--harden", "--seeds", "2",
                           "--base-seed", "5", run.MEDICAL])
        self.assert_flip_fails(
            {"check": "faults", "spec": run.MEDICAL, "model": "2",
             "harden": True, "seeds": 2, "base_seed": 5},
            out)

    def test_litmus(self):
        _, out = self.cli(["litmus", "--seeds", "2", "--faults"])
        self.assert_flip_fails({"check": "litmus", "faults": True,
                                "seeds": 2}, out)

    def test_lint_report_shape(self):
        code, out = self.cli(["lint", run.MEDICAL])
        self.assertEqual(run.lint_ok(code, out, False), "")
        self.assertNotEqual(run.lint_ok(1 - code, out, False), "")
        self.assertNotEqual(run.lint_ok(code, out[:-20], False), "")

    def test_repeated_job_must_repeat_bytes(self):
        out = b"refined program text\n"
        samples = [run.Sample("k", "refine", 0.1, True, out=out),
                   run.Sample("k", "refine", 0.1, True, out=out),
                   run.Sample("k", "refine", 0.1, True, out=flip(out))]
        run.check_digests(samples)
        self.assertEqual([s.ok for s in samples], [True, True, False])

    def test_explore_normalisation_keeps_other_bytes(self):
        served = (b"design-space sweep: 12 candidates, 1 jobs, cache 12 hits"
                  b" / 0 misses (100% hit rate)\nrow 1.0 ok (cached)\n")
        cold = (b"design-space sweep: 12 candidates, 1 jobs, cache 0 hits"
                b" / 12 misses (0% hit rate)\nrow 1.0 ok\n")
        self.assertEqual(run.strip_cache_counters(served),
                         run.strip_cache_counters(cold))
        corrupted = flip(served, len(served) - 12)  # inside "ok"
        self.assertNotEqual(run.strip_cache_counters(corrupted),
                            run.strip_cache_counters(cold))


if __name__ == "__main__":
    unittest.main()
