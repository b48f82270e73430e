#!/usr/bin/env python3
"""Build and run the IChannels sweep benchmark.

Run from the repository root:

    python3 sweepbench/run.py --workload roc_detect --seed 1 \
        --seconds 20 --trace 0

Builds the `sweepbench` driver (and the `ich` library it links) from
source into $CARGO_TARGET_DIR (default .bench_build), runs one workload,
and passes its output through. The driver's last line is the result:
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
This script also checks that the metric names in that line are exactly
the ones BENCHMARK.json declares for the trace mode (end_to_end with
--trace 0, per_layer with --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("roc_detect", "ber_grid_stream", "ber_grid_shard")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the driver; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources under {ROOT}")
    bdir = os.path.join(build_dir, "sweepbench")
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "sweepbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=850).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(bdir, "sweepbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    binary = build(build_dir)

    # The driver measures for --seconds, then finishes its last iteration,
    # the shard reference sweep and the trace write.
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", build_dir],
            stdout=subprocess.PIPE, text=True,
            timeout=args.seconds * 2 + 120)
    except subprocess.TimeoutExpired:
        fail("sweepbench did not finish in time")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"sweepbench exited with {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(want))}")


if __name__ == "__main__":
    main()
