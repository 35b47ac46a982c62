#!/usr/bin/env python3
"""Builds the kcbench binary from this checkout and runs one workload.

    python3 kcbench/run.py --workload core-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The binary is built (CMake, optimized)
into .bench_build/ on first use; build output goes to stderr. The last
line of stdout is the result JSON: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics of BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1). The exit code is non-zero when the
build fails, a correctness gate fails, or a metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "kcbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(cfg, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "kcbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes (self-test only)")
    ap.add_argument("--inject", default="",
                    help="feed the named correctness gate a wrong answer")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # The program's CPKC_* overrides (workers, reclaimer, WAL engine,
    # tracing) are cleared: the benchmark runs the program's defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPKC_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited with {proc.returncode}")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got or got[name]["unit"] != unit:
            log(f"metric {name} ({unit}) missing or with another unit")
            return 5
    result["metrics"] = {name: got[name] for name in want}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
