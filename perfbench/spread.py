#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and tracing overhead.

    python3 perfbench/spread.py --workloads city campaign serve \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--overhead]

Runs perfbench/run.py once per (seed, workload), seeds in the outer loop so
the workloads interleave, and prints for each workload and end-to-end
metric the median and the quartile spread (Q3 - Q1) / median, with the
quartiles from statistics.quantiles(values, n=4).  With --overhead every
run is traced instead, and the table compares each end-to-end metric the
traced run measured against the medians of an untraced set given with
--untraced (a JSON file this script wrote with --save).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    if not result["correct"] or result["failed"]:
        print(f"  CHECK FAILED {workload} seed {seed}: {detail['check_failures']}")
    e2e = {k: v["value"] for k, v in detail["end_to_end"].items()}
    return e2e, result, detail["steal_share"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=["city", "campaign", "serve"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--overhead", action="store_true", help="traced runs")
    parser.add_argument("--untraced", help="JSON from an untraced --save, for --overhead")
    parser.add_argument("--save", help="write the per-run values here")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trace = 1 if args.overhead else 0

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            e2e, result, steal = run_once(w, seed, seconds, trace)
            runs[w].append({"seed": seed, "e2e": e2e, "steal": steal,
                            "correct": result["correct"], "failed": result["failed"]})
            print(f"{w:9s} seed {seed:<8d} steal {steal:.3f} " +
                  " ".join(f"{k}={v:.6g}" for k, v in e2e.items()), flush=True)

    baseline = json.loads(Path(args.untraced).read_text()) if args.untraced else None
    print("\nworkload  metric          median          spread   " +
          ("untraced median  overhead" if baseline else ""))
    for w, rs in runs.items():
        for metric in rs[0]["e2e"]:
            values = [r["e2e"][metric] for r in rs]
            med, spr = spread(values) if len(values) >= 2 else (values[0], float("nan"))
            line = f"{w:9s} {metric:15s} {med:<15.6g} {spr:7.2%}"
            if baseline and w in baseline:
                base = statistics.median(r["e2e"][metric] for r in baseline[w])
                line += f"  {base:<15.6g} {(med - base) / base:+.2%}"
            print(line)
        print(f"{w:9s} failed ops: {sum(r['failed'] for r in rs)}, "
              f"median steal share {statistics.median(r['steal'] for r in rs):.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
