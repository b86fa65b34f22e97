#!/usr/bin/env python3
"""Guard the bench-smoke timings against order-of-magnitude regressions.

Compares a merged bench_results.json (tools/merge_bench_json.py) against
the checked-in baselines (bench/baselines.json, same shape).  Smoke-mode
timings on shared CI runners are noisy, so the check is deliberately
generous: a timing fails only when it exceeds threshold x baseline
(default 2.5x), and baselines below the floor (default 0.05 s) are skipped
outright — the guard exists to catch accidental algorithmic regressions
(a solver quietly falling back to a reference path), not scheduler jitter.

Only keys present in the baselines are compared, and only keys that look
like timings (ending in "_s" or named "wall_s"); rate/count metrics ride
along in the artifact for the perf trajectory but are not gated.  A
baselined bench or timing missing from the results is an error: renaming a
metric must be accompanied by a baseline update.

A bench entry may carry a "floors" map overriding the global floor for
named timings — the way to gate sub-50 ms metrics that are stable enough
to guard (e.g. a per-batch p99 latency measured over hundreds of batches):

    "bench_policy_server": {
        "metrics": {"e15.pair.batch_p99_s": 0.004},
        "floors": {"e15.pair.batch_p99_s": 0.0}
    }

Usage:
    check_bench_regression.py --results build/bench_results.json \
        [--baselines bench/baselines.json] [--threshold 2.5] [--min-baseline-s 0.05]
"""
import argparse
import json
import pathlib
import sys


def is_timing(key: str) -> bool:
    return key == "wall_s" or key.endswith("_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", type=pathlib.Path, required=True)
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent
                        / "bench" / "baselines.json")
    parser.add_argument("--threshold", type=float, default=2.5,
                        help="fail when timing > threshold x baseline")
    parser.add_argument("--min-baseline-s", type=float, default=0.05,
                        help="skip timings whose baseline is below this")
    args = parser.parse_args()

    results = json.loads(args.results.read_text())
    baselines = json.loads(args.baselines.read_text())

    # Smoke-mode timings and full-mode timings differ by orders of
    # magnitude; comparing across modes only produces noise.
    if results.get("smoke") != baselines.get("smoke"):
        print(f"error: results smoke={results.get('smoke')} but baselines "
              f"smoke={baselines.get('smoke')} — run the benches in the "
              f"baselines' mode (bench-smoke sets CAV_BENCH_SMOKE=1) or "
              f"regenerate the baselines", file=sys.stderr)
        return 1

    failures = []
    compared = 0
    skipped = 0
    rows = []
    for bench, base_entry in sorted(baselines.get("benches", {}).items()):
        result_entry = results.get("benches", {}).get(bench)
        if result_entry is None:
            failures.append(f"{bench}: present in baselines but missing from results")
            continue
        base_metrics = dict(base_entry.get("metrics", {}))
        if base_entry.get("wall_s") is not None:
            base_metrics["wall_s"] = base_entry["wall_s"]
        result_metrics = dict(result_entry.get("metrics", {}))
        if result_entry.get("wall_s") is not None:
            result_metrics["wall_s"] = result_entry["wall_s"]

        floors = base_entry.get("floors", {})
        for key, base_value in sorted(base_metrics.items()):
            if not is_timing(key):
                continue
            # Presence first: a sub-floor timing is not compared, but a
            # missing one still fails, or a renamed metric would pass.
            current = result_metrics.get(key)
            if current is None:
                failures.append(f"{bench}.{key}: baselined timing missing from results")
                continue
            floor = floors.get(key, args.min_baseline_s)
            if base_value is None or base_value < floor:
                skipped += 1
                continue
            compared += 1
            ratio = current / base_value
            status = "FAIL" if ratio > args.threshold else "ok"
            rows.append((bench, key, base_value, current, ratio, status))
            if ratio > args.threshold:
                failures.append(
                    f"{bench}.{key}: {current:.3f}s vs baseline {base_value:.3f}s "
                    f"({ratio:.2f}x > {args.threshold}x)")

    if rows:
        width = max(len(f"{b}.{k}") for b, k, *_ in rows)
        print(f"{'timing'.ljust(width)}  {'baseline':>9}  {'current':>9}  {'ratio':>6}")
        for bench, key, base_value, current, ratio, status in rows:
            print(f"{f'{bench}.{key}'.ljust(width)}  {base_value:>8.3f}s  "
                  f"{current:>8.3f}s  {ratio:>5.2f}x  {status}")
    print(f"\ncompared {compared} timings "
          f"(threshold {args.threshold}x, {skipped} below the {args.min_baseline_s}s floor)")

    if failures:
        print("\nregression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
