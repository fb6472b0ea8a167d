#!/usr/bin/env python3
"""Repository benchmark: closed-loop Collect and queue workloads.

Run from the repository root:

    python3 perfbench/run.py --workload collect_scan --seed 1 --seconds 10 --trace 0

Builds perfbench_driver (perfbench/driver.cpp linked against the library
sources in src/) into .bench_build/perfbench, then runs one workload:

  * set-up time: the driver is started SETUP_REPEATS extra times with
    --setup-only; setup_s is the median of those and the measured run's own
    set-up (process spawn to the first operation);
  * the measured run: warm-up, then --seconds of timed closed-loop
    operation. --trace 0 reports the end-to-end metrics, --trace 1 the
    per-layer metrics (spans and counter deltas of the traced slices).

Metric names and units come from BENCHMARK.json. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, printing no result, when the
build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SETUP_REPEATS = 15
RUN_SLACK_S = 60  # driver timeout beyond --seconds (warm-up, teardown)


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources in src/ next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env, timeout=850)
        if res.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_driver(args, timeout):
    """Runs the driver once; returns its final JSON object."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the driver's steady_clock
    res = subprocess.run([DRIVER, "--t0-ns", str(t0)] + args,
                         capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s" %
                         (res.returncode, res.stderr.strip()))
    return json.loads(lines[-1])


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    spec = load_spec()
    if opts.workload not in spec["workloads"]:
        raise BenchError("unknown workload %r" % opts.workload)
    build()

    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    setups, errors = [], []
    for _ in range(SETUP_REPEATS):
        r = run_driver(base + ["--setup-only"], timeout=60)
        setups.append(r["metrics"]["setup_s"])
        errors += r["errors"]
    trace_out = os.path.join(BUILD_DIR, "traces",
                             "%s-seed%d.jsonl" % (opts.workload, opts.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    main_run = run_driver(base + ["--seconds", str(opts.seconds),
                                  "--trace", str(opts.trace),
                                  "--trace-out", trace_out],
                          timeout=opts.seconds + RUN_SLACK_S)
    got = main_run["metrics"]
    setups.append(got["setup_s"])
    got["setup_s"] = statistics.median(setups)
    errors += main_run["errors"]

    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    missing = [n for n, _ in wanted if n not in got]
    if missing:
        raise BenchError("driver did not report: " + ", ".join(missing))
    metrics = {n: {"value": got[n], "unit": u} for n, u in wanted}

    cfg = main_run["config"]
    print("# perfbench %s seed=%d seconds=%g trace=%d" %
          (opts.workload, opts.seed, opts.seconds, opts.trace))
    print("# config " + " ".join("%s=%s" % kv for kv in cfg.items()))
    for n, m in metrics.items():
        print("%-40s %16.6g %s" % (n, m["value"], m["unit"]))
    print("# op latency samples=%d; highest percentile with >=10 samples "
          "beyond it: p%.5f = %.1f ns" %
          (got["op_samples"], 100 * got["op_q_max"], got["op_q_max_ns"]))
    print("# setup_s samples: " + " ".join("%.6f" % s for s in setups))
    print("# failed_frac=%.6g (%d of %d)" %
          (got["failed_frac"], main_run["failed"], main_run["attempted"]))
    if opts.trace:
        print("# spans: " + os.path.relpath(trace_out, ROOT))
    for e in errors:
        print("# CHECK FAILED: " + e)
    correct = not errors and main_run["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": main_run["attempted"],
                      "failed": main_run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        sys.exit(1)
