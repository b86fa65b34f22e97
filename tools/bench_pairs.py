#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in interleaved pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload campaign \
        [--pairs 10] [--seed 1] [--seconds 30] [--out runs.jsonl]

Runs `python3 perfbench/run.py` in each checkout, pair after pair, with the
same workload, seed and seconds; even pairs run the parent first, odd pairs
the change.  Every run's result line is kept (printed, and appended to
--out as JSON lines).  For each end-to-end metric of the change's
BENCHMARK.json (read, never written) it prints each side's median and
quartiles, the change's wins (ties count for neither), the relative change
of the medians, and a verdict:

  gain          at least ten pairs ran, the change wins at least nine
                tenths of them, and the medians differ, in its favour, by
                more than the parent's interquartile range;
  within bound  the change's median is no worse than the parent's by more
                than the metric's bound;
  worse         it is worse by more than the bound;
  unresolved    the parent's interquartile range, relative to its median,
                is at least the bound, so the runs cannot show either,
                unless every change run reads better (within bound) or
                worse (worse, past the bound) than every parent run.

After the runs it prints where a fixed list of hot functions sits in each
side's perfbench binary (`nm -C <checkout>/.bench_build/perfbench`): each
address mod 64, and "moved" where that cache-line offset differs between
the sides.  A change that moves the run path's code can shift a metric
although no instruction on that path changed, so read a small difference
next to this report.

Exits 1 if any run fails, is not "correct", or reports failed operations.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN = "gain"
WITHIN = "within bound"
WORSE = "worse"
UNRESOLVED = "unresolved"
MIN_PAIRS_FOR_GAIN = 10

# The functions perfbench's city and campaign runs spend their cycles in,
# as `nm -C` names them (without the parameter list).
HOT_SYMBOLS = (
    "cav::sim::Simulation::decide_for",
    "cav::sim::Simulation::decide_all",
    "cav::sim::Simulation::refresh_tracks",
    "cav::sim::UavAgent::step",
    "cav::sim::AdsbSensor::observe",
    "cav::sim::PairwiseMonitors::replay_slot",
    "cav::acasx::LogicTable::action_costs",
)
CACHE_LINE = 64


def quartiles(values):
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better):
    """Pairs the change reads better in; equal readings count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """The verdict for one metric over paired runs (parent[i] with change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)  # positive: the change is better
    if (len(parent) >= MIN_PAIRS_FOR_GAIN and wins(parent, change, better) >= 0.9 * len(parent)
            and gain > p_q3 - p_q1):
        return GAIN
    worse_by = -gain / abs(p_med) if p_med else (0.0 if gain >= 0 else float("inf"))
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if spread >= bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return WITHIN
        if worse_by > bound and max(sign * c for c in change) < min(sign * p for p in parent):
            return WORSE
        return UNRESOLVED
    return WORSE if worse_by > bound else WITHIN


def parse_nm(text):
    """{symbol: address} for the text symbols of `nm -C` output named in
    HOT_SYMBOLS; split-off parts ("[clone .cold]") do not count."""
    found = {}
    for line in text.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) != 3 or fields[1] not in ("T", "t") or "[clone" in fields[2]:
            continue
        name = fields[2].split("(", 1)[0]
        if name in HOT_SYMBOLS and name not in found:
            found[name] = int(fields[0], 16)
    return found


def read_placement(checkout):
    """parse_nm() of the checkout's perfbench binary, or None without one."""
    binary = checkout / ".bench_build" / "perfbench"
    try:
        proc = subprocess.run(["nm", "-C", str(binary)], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return parse_nm(proc.stdout) if proc.returncode == 0 else None


def placement_rows(parent, change):
    """(symbol, parent offset, change offset, moved) per hot symbol: each
    address mod CACHE_LINE, None where a side lacks the symbol."""
    rows = []
    for symbol in HOT_SYMBOLS:
        p = parent.get(symbol)
        c = change.get(symbol)
        p_off = None if p is None else p % CACHE_LINE
        c_off = None if c is None else c % CACHE_LINE
        rows.append((symbol, p_off, c_off, p_off is not None and c_off is not None and p_off != c_off))
    return rows


def placement_report(parent, change):
    """Print placement_rows() of two parse_nm() results."""
    print(f"\nhot functions, address mod {CACHE_LINE}")
    print(f"{'symbol':<44} {'parent':>6} {'change':>6}")
    for symbol, p_off, c_off, moved in placement_rows(parent, change):
        cells = ["-" if off is None else str(off) for off in (p_off, c_off)]
        print(f"{symbol:<44} {cells[0]:>6} {cells[1]:>6}  {'moved' if moved else ''}".rstrip())


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def report(runs, spec):
    """Print the per-metric table."""
    n = len(runs)
    print(f"\n{n} pairs; medians with [q1, q3]")
    print(f"{'metric':<15} {'parent':<34} {'change':<34} {'wins':<6} {'change':<9} verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        pq, cq = quartiles(parent), quartiles(change)
        rel = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        call = verdict(parent, change, metric["better"], metric["bound"])
        p_cell = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
        c_cell = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
        won = wins(parent, change, metric["better"])
        print(f"{name:<15} {p_cell:<34} {c_cell:<34} {won:>2}/{n:<3} {rel:+8.1%}  {call}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = []
    healthy = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, args.workload, args.seed, args.seconds)
            ok = result is not None and result.get("correct") is True and result.get("failed") == 0
            healthy &= ok
            record = {"pair": pair, "side": side, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "result": result}
            print(json.dumps(record), flush=True)
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps(record) + "\n")
            results[side] = result
        if all(r is not None for r in results.values()):
            runs.append(results)
    if runs:
        report(runs, spec)
    placements = [read_placement(args.parent), read_placement(args.change)]
    if None in placements:
        print("\nbench_pairs: no placement report (nm or a perfbench binary is missing)")
    else:
        placement_report(*placements)
    if not healthy:
        print("bench_pairs: a run failed, was not correct, or had failed operations",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
