#!/usr/bin/env python3
"""Validate BENCH_*.json perf reports emitted by bench/perf_kernel and
bench/perf_sweep (via the src/exp JSON reporter).

Fails (exit 1) on malformed JSON, an empty sweep, missing/empty metric
summaries, or non-finite values — so the CI perf-smoke job catches a
silently broken benchmark even though it never gates on absolute speed.

Usage:
    check_bench_json.py [--require METRIC]... [--min-ratio M:F]...
                        [--max-spread M:R]... FILE...

Every --require METRIC must appear in at least one point of every FILE,
with a finite mean and count >= 1.

Every --min-ratio METRIC:FLOOR is a coarse perf-regression guard: the
metric must appear in at least one point of every FILE, and every point
that reports it must have mean >= FLOOR. Floors are committed well below
locally measured values so shared-runner noise never trips them; a trip
means the speedup mechanism itself regressed.

Every --max-spread METRIC:RATIO is a shape check: across the points of
each FILE, the largest mean of METRIC over the smallest must be <= RATIO.
It gates a rate that must not depend on the swept parameter (e.g. the
column store's spill rate across chunk_records, which a quadratic buffer
growth makes tens of times slower at the largest setting). A ratio, not
an absolute rate, so it holds on any runner.
"""

import argparse
import json
import math
import sys

SUMMARY_KEYS = ("count", "mean", "stddev", "min", "max", "p50", "p90",
                "p99")


def fail(path, msg):
    print(f"check_bench_json: {path}: {msg}", file=sys.stderr)
    return False


def check_summary(path, metric, summary):
    for key in SUMMARY_KEYS:
        if key not in summary:
            return fail(path, f"metric '{metric}' missing '{key}'")
        value = summary[key]
        if value is None or not isinstance(value, (int, float)):
            return fail(
                path, f"metric '{metric}' has non-numeric '{key}': "
                f"{value!r} (NaN/Inf serialize to null)")
        if not math.isfinite(value):
            return fail(path, f"metric '{metric}' has non-finite '{key}'")
    if summary["count"] < 1:
        return fail(path, f"metric '{metric}' has count < 1")
    return True


def parse_metric_value(spec):
    metric, sep, value = spec.rpartition(":")
    if not sep or not metric:
        raise argparse.ArgumentTypeError(
            f"expected METRIC:NUMBER, got {spec!r}")
    try:
        return metric, float(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"not a number after ':': {spec!r}") from e


def check_file(path, required, min_ratios, max_spreads):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or malformed JSON: {e}")

    if not isinstance(doc, dict) or not doc.get("scenario"):
        return fail(path, "missing 'scenario'")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        return fail(path, "empty or missing 'points'")

    seen = set()
    means = {metric: [] for metric, _ in max_spreads}
    ok = True
    for i, point in enumerate(points):
        metrics = point.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            ok = fail(path, f"point {i} has no metrics")
            continue
        for name, summary in metrics.items():
            seen.add(name)
            ok = check_summary(path, name, summary) and ok
            if name in means:
                means[name].append(summary.get("mean"))
            for metric, floor in min_ratios:
                if name != metric:
                    continue
                mean = summary.get("mean")
                if isinstance(mean, (int, float)) and mean < floor:
                    ok = fail(
                        path, f"point {i}: '{metric}' mean {mean:.3f} "
                        f"below committed floor {floor}")

    for metric in required:
        if metric not in seen:
            ok = fail(path, f"required metric '{metric}' absent")
    for metric, _ in min_ratios:
        if metric not in seen:
            ok = fail(path, f"--min-ratio metric '{metric}' absent")
    for metric, limit in max_spreads:
        vals = means[metric]
        if len(vals) < 2 or not all(
                isinstance(v, (int, float)) and v > 0 for v in vals):
            ok = fail(path, f"--max-spread metric '{metric}' needs a "
                      "positive mean in at least two points")
            continue
        spread = max(vals) / min(vals)
        print(f"check_bench_json: {path}: '{metric}' max/min "
              f"{spread:.2f} across {len(vals)} points")
        if spread > limit:
            ok = fail(path, f"'{metric}' max/min {spread:.2f} exceeds "
                      f"--max-spread {limit}: it depends on the swept "
                      "parameter")
    if ok:
        print(f"check_bench_json: {path}: OK "
              f"({doc['scenario']}, {len(points)} points, "
              f"{len(seen)} metrics)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--require", action="append", default=[],
                        metavar="METRIC",
                        help="metric that must be present in every file")
    parser.add_argument("--min-ratio", action="append", default=[],
                        metavar="METRIC:FLOOR", type=parse_metric_value,
                        help="regression floor: every point reporting "
                             "METRIC must have mean >= FLOOR")
    parser.add_argument("--max-spread", action="append", default=[],
                        metavar="METRIC:RATIO", type=parse_metric_value,
                        help="shape check: max/min of METRIC's per-point "
                             "means must be <= RATIO")
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args()

    ok = True
    for path in args.files:
        ok = check_file(path, args.require, args.min_ratio,
                        args.max_spread) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
