#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload run.py knows (the gated ones in BENCHMARK.json and
the informational serve_net_mixed) at tiny sizes (128x128 captures, two
locations, a second of load), untraced and traced, through
perfbench/run.py, and
checks that each run is correct with nothing failed, that every metric
BENCHMARK.json declares is present with its unit and a finite value,
and that the traced run's Chrome trace parses. Takes about a minute
after the build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    trace_path = os.path.join(build_dir, "smoke-trace.json")
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            if trace:
                cmd += ["--trace-out", trace_path]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                problems.append(f"{what}: outputs not correct")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{what}: failed {result['failed']} of "
                                f"{result['attempted']}")
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{what}: metric {m['name']} missing or "
                                    f"unit differs")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{what}: metric {m['name']} not finite")
            if trace:
                try:
                    with open(trace_path) as f:
                        events = json.load(f)["traceEvents"]
                    if not events:
                        problems.append(f"{what}: trace has no spans")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{what}: trace does not parse ({e})")
                if os.path.exists(trace_path):
                    os.remove(trace_path)
            print(f"smoke: {what}: ok" if not problems else
                  f"smoke: {what}: {problems[-1]}", flush=True)
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "all workloads ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
