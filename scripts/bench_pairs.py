#!/usr/bin/env python3
"""Compare two checkouts on one sweepbench workload in alternating pairs.

    scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload roc_detect \\
        --pairs 10 --seconds 30 --seed-base 1

Pair i runs `sweepbench/run.py --seed K+i` of both checkouts, one after
the other; the side that runs first swaps every pair. Each checkout
builds into its own `.bench_build` (CARGO_TARGET_DIR is dropped from the
children's environment so the two builds never share a tree), and one
1 s warm-up run per side does that build before any timed pair.

For every end-to-end metric of BENCHMARK.json (CHANGE_DIR's copy, with
its direction and bound) it prints the parent's and the change's median
[q1, q3], the ratio change/parent, and how many pairs the change won
(ties count for neither side). The verdict column reads:

    gain        at least 10 pairs ran, the change won >= 9/10 of them,
                the medians differ by more than the parent's
                interquartile range, and the change failed no larger
                share of its trials than the parent
    unresolved  either side's IQR/median exceeds the metric's bound, and
                not every change run beats every parent run
    worse       the change's median is worse by more than the bound
    within      none of the above

Exits 1 when any run reports `correct: false` or fails to produce a
result line, 0 otherwise (a "worse" verdict is reported, not enforced).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(xs):
    """(q1, median, q3) by the inclusive method; all equal for one run."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def run_once(checkout, workload, seed, seconds):
    """One sweepbench run; returns its result-line object (or None)."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, os.path.join(checkout, "sweepbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
        print(f"bench_pairs: {checkout} seed {seed}: no result line "
              f"(exit {proc.returncode})\n{tail}", file=sys.stderr)
        return None
    return result


def failure_rate(failed, attempted):
    return failed / attempted if attempted else 0.0


def verdict(metric, parent, change, wins, pairs, more_failed):
    """more_failed: the change failed a larger share of its trials."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = p_med - c_med if lower else c_med - p_med
    if (pairs >= 10 and wins * 10 >= pairs * 9 and gap > p_q3 - p_q1
            and not more_failed):
        return "gain"
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if spread > bound and not all_better:
        return "unresolved"
    if p_med and -gap / p_med > bound:
        return "worse"
    return "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    for checkout in sides.values():
        if not os.path.isfile(os.path.join(checkout, "sweepbench",
                                           "run.py")):
            ap.error(f"{checkout}: no sweepbench/run.py")
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    ok = True
    for name, checkout in sides.items():
        if run_once(checkout, args.workload, args.seed_base, 1) is None:
            print(f"bench_pairs: {name} warm-up failed", file=sys.stderr)
            return 1

    values = {"parent": [], "change": []}
    failed = {"parent": [0, 0], "change": [0, 0]}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        row = {}
        for name in order:
            result = run_once(sides[name], args.workload, seed, args.seconds)
            if result is None or not result.get("correct", False):
                print(f"bench_pairs: {name} seed {seed}: correct is not "
                      f"true", file=sys.stderr)
                ok = False
                continue
            failed[name][0] += result["failed"]
            failed[name][1] += result["attempted"]
            row[name] = {k: v["value"] for k, v in result["metrics"].items()}
        if len(row) == 2:
            for name in row:
                values[name].append(row[name])
        print(f"pair {i + 1}/{args.pairs} seed {seed} first={order[0]}: "
              + "  ".join(f"{n} trials_per_s="
                          f"{row[n].get('trials_per_s', float('nan')):.1f}"
                          for n in ("parent", "change") if n in row),
              file=sys.stderr, flush=True)

    pairs = len(values["parent"])
    if pairs == 0:
        print("bench_pairs: no complete pair", file=sys.stderr)
        return 1
    print(f"workload {args.workload}: {pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
    for name in ("parent", "change"):
        bad, total = failed[name]
        print(f"  {name}: {bad}/{total} trials failed  ({sides[name]})")
    more_failed = (failure_rate(*failed["change"]) >
                   failure_rate(*failed["parent"]))
    if more_failed:
        print("  the change failed a larger share of its trials than the "
              "parent: no metric is marked gain")
    print(f"{'metric':<18} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6}  verdict")
    for m in metrics:
        key = m["name"]
        parent = [r[key] for r in values["parent"]]
        change = [r[key] for r in values["change"]]
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        ratio = c_med / p_med if p_med else float("nan")
        cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
                 for q1, med, q3 in ((p_q1, p_med, p_q3),
                                     (c_q1, c_med, c_q3))]
        print(f"{key:<18} {cells[0]:>30} {cells[1]:>30} {ratio:>7.3f} "
              f"{f'{wins}/{pairs}':>6}  "
              f"{verdict(m, parent, change, wins, pairs, more_failed)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
