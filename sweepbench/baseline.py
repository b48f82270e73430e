#!/usr/bin/env python3
"""Record a sweepbench baseline: repeated runs per workload, summarized.

Run from the repository root:

    python3 sweepbench/baseline.py --host-tag xeon4 --runs 10 \
        --seed-base 100 --out sweepbench/baselines/xeon4.json

For each workload this runs `sweepbench/run.py` --runs times untraced,
each with its own seed (seed-base, seed-base + 1, ...), then once
traced. It prints, per end-to-end metric, the median and the spread —
the distance between the first and third quartile as a share of the
median, as statistics.quantiles(values, n=4) gives them — and checks
each spread against a third of the metric's BENCHMARK.json bound
(setup_s is reported but not held to it), and the largest
failed_trials_frac (failed / attempted of the result line). The JSON it
writes holds the host description, every run's values and the
summaries.

Every run uses BENCHMARK.json's run_seconds and all of its workloads,
so a recorded point compares with the benchmark's own runs.

With --held-out-seed S it also runs each workload on seed S, a seed
not used while tuning: once untraced and twice traced, and checks that
the deterministic simulator counts of the two traced runs are equal.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that are counts, not times: equal for equal seeds.
DETERMINISTIC = ("common.events_per_trial", "chip.sim_us_per_trial",
                 "chip.ff_fires_per_trial", "chip.ff_suppressions_per_trial",
                 "exp.colstore_bytes_per_record")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"baseline.py: {workload} seed {seed} failed "
                 f"({proc.returncode}):\n{proc.stdout[-3000:]}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"baseline.py: {workload} seed {seed} failed its checks")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["failed_trials_frac"] = result["failed"] / result["attempted"]
    return values


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def host_info(build_dir):
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"model name\s*:\s*(.*)", f.read())
            info["cpu"] = m.group(1).strip() if m else "unknown"
    except OSError:
        info["cpu"] = "unknown"
    cache = os.path.join(build_dir, "sweepbench", "CMakeCache.txt")
    with open(cache) as f:
        text = f.read()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
    info["build_type"] = m.group(1) if m else "unknown"
    m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
    version = subprocess.run([m.group(1) if m else "c++", "--version"],
                             stdout=subprocess.PIPE, text=True).stdout
    info["compiler"] = version.split("\n")[0]
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host-tag", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--held-out-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.runs))

    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads:
        record["workloads"][w] = {}
        if args.held_out_seed is not None:
            s = args.held_out_seed
            untraced = run_once(w, s, seconds, 0)
            traced = [run_once(w, s, seconds, 1) for _ in range(2)]
            repeat = all(traced[0][k] == traced[1][k] for k in DETERMINISTIC)
            steady &= repeat
            print(f"{w:16s} held-out seed {s}: checks passed, "
                  f"deterministic counts {'repeat' if repeat else 'DIFFER'}")
            record["workloads"][w]["held_out"] = {
                "seed": s, "untraced": untraced, "traced": traced,
                "counts_repeat": repeat}
        if not seeds:
            continue
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        e2e = {}
        for name in bounds:
            e2e[name] = summarize([r[name] for r in runs])
            ok = name == "setup_s" or e2e[name]["spread"] < bounds[name] / 3
            steady &= ok
            print(f"{w:16s} {name:18s} median {e2e[name]['median']:12.6g}"
                  f"  spread {e2e[name]['spread']:.4f}"
                  f"  (bound {bounds[name]}){'' if ok else '  WIDE'}")
        failed = max(r["failed_trials_frac"] for r in runs)
        print(f"{w:16s} {'failed_trials_frac':18s} max    {failed:12.6g}")
        traced = run_once(w, seeds[0], seconds, 1)
        record["workloads"][w].update(runs=runs, end_to_end=e2e,
                                      per_layer_seed=seeds[0],
                                      per_layer=traced)

    if args.out:
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                    os.path.join(ROOT, ".bench_build"))
        record = {"host": dict(tag=args.host_tag, **host_info(build_dir)),
                  **record}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
