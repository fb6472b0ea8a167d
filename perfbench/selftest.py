#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds the driver first, ~1 minute per run of
the smoke tests):

    python3 perfbench/selftest.py

Checks that
  * every name BENCHMARK.json declares, and every metric name the driver
    emits, matches [A-Za-z0-9_.-]+;
  * each output check of the driver catches a planted violation (a Collect
    result missing an own handle, a reordered dequeue, a leaked pool block,
    an injected fault) and passes the clean case;
  * a short run of every workload, untraced and traced, is correct and
    reports exactly the declared metrics, and the traced run shows the two
    no-change predictions (no transactions on queue_hp, almost no pool
    allocation on collect_scan);
  * without the library sources next to it, the runner fails without
    printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_bench(workload, trace, cwd=run.ROOT):
    res = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "11", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return res


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def test_declared_names(self):
        names = (self.spec["workloads"] +
                 [n for n, _ in self.spec["end_to_end"]] +
                 [n for n, _ in self.spec["per_layer"]])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME_RE)

    def test_checks_catch_planted_violations(self):
        res = subprocess.run([run.DRIVER, "--selftest"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        lines = [l for l in res.stdout.splitlines() if "selftest" in l]
        self.assertGreaterEqual(len(lines), 10)
        self.assertNotIn("FAILED", res.stdout)

    def test_smoke_all_workloads(self):
        for workload in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res = run_bench(workload, trace)
                    self.assertEqual(res.returncode, 0, res.stderr[-2000:])
                    out = json.loads(res.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(out), ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(out["correct"], res.stdout)
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = self.spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(sorted(out["metrics"]),
                                     sorted(n for n, _ in want))
                    for name, unit in want:
                        self.assertRegex(name, NAME_RE)
                        self.assertEqual(out["metrics"][name]["unit"], unit)
                    m = {k: v["value"] for k, v in out["metrics"].items()}
                    if trace and workload == "queue_hp":
                        self.assertEqual(m["htm.commits_per_op"], 0)
                        self.assertEqual(m["htm.conflict_aborts_per_kop"], 0)
                        self.assertEqual(m["htm.tle_entries_per_kop"], 0)
                    if trace and workload == "collect_scan":
                        self.assertLess(m["mem.allocs_per_op"], 0.05)
                    if not trace:
                        for name, _ in want:
                            self.assertGreater(m[name], 0, name)

    def test_fails_without_sources(self):
        bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for f in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, f)):
                shutil.copy(os.path.join(HERE, f),
                            os.path.join(bare, "perfbench"))
        try:
            res = run_bench(self.spec["workloads"][0], 0, cwd=bare)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
