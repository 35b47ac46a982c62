#!/usr/bin/env python3
"""Reduced-size self-test of the kcbench benchmark.

    python3 kcbench/selftest.py        (from the root of a checkout)

Checks, on small inputs, that every workload:
  * exits 0 and emits every metric of BENCHMARK.json with its unit, both
    untraced (end-to-end metrics) and traced (per-layer metrics);
  * fails with the right gate named when that gate is fed a wrong answer
    (--inject): a corrupted expected coreness, an off-by-one replayed edge
    count or acked count, an op the program refuses, a read checked against
    a floor above its session cursor, a replica level that disagrees.
Exits non-zero if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

GATES = {
    "core-batch": ["coreness", "edge_count", "acked"],
    "cluster-ryw": ["coreness", "edge_count", "acked", "failed_ops", "ryw",
                    "replica"],
}


def run(workload, trace=0, inject=""):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload, gates in GATES.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(workload, trace)
            lines = p.stdout.strip().splitlines()
            ok = p.returncode == 0 and bool(lines)
            if ok:
                result = json.loads(lines[-1])
                metrics = result["metrics"]
                ok = (result["correct"] is True and result["failed"] == 0 and
                      result["attempted"] >= 1 and
                      all(m["name"] in metrics and
                          metrics[m["name"]]["unit"] == m["unit"]
                          for m in spec[key]) and
                      len(metrics) == len(spec[key]))
            check(ok, f"{workload} trace={trace}: exit 0, correct, every "
                      f"{key} metric with its unit")
            if not ok:
                print(p.stderr[-2000:], file=sys.stderr)
        for gate in gates:
            p = run(workload, 0, gate)
            fired = any(line.split()[1:4] == ["gate", gate, "FAIL"]
                        for line in p.stderr.splitlines()
                        if line.startswith("kcbench: gate"))
            check(p.returncode != 0 and fired,
                  f"{workload}: injected wrong answer fails gate {gate}")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
