#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload city|campaign|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
library, the fleet worker and the benchmark binary from source into
.bench_build/ (build output goes to stderr); later calls only re-check the
build.  Every run's full record (result, host facts, per-layer self time)
is written to .bench_out/.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("city", "campaign", "serve")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                   "--target", "perfbench", "cav_worker"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_identity():
    """The git commit when the tree is a git checkout; always a digest of
    the sources the benchmark builds, which identifies a plain copy too."""
    sha = ""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    OUT_DIR.mkdir(exist_ok=True)
    binary = BUILD_DIR / "perfbench"
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT_DIR)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")

    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    metrics = result["metrics"]
    want = expected_metrics(args.trace)
    if want is not None and set(metrics) != want:
        fail(f"metrics {sorted(set(metrics) ^ want)} missing or unexpected")
    if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in metrics.values()):
        fail("a metric is not a finite number")

    sha, digest = source_identity()
    host = {
        "nproc": detail.get("nproc"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER") + " " + detail.get("compiler", ""),
        "cxx_flags": detail.get("cxx_flags", "").strip(),
        "build_type": detail.get("build_type"),
        "git_sha": sha or None,
        "source_sha256": digest,
        "steal_share": detail.get("steal_share"),
    }
    record = {"args": vars(args), "host": host, "detail": detail, "result": result}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
