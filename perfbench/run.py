#!/usr/bin/env python3
"""Build and run the Earth+ end-to-end benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds the `perfbench` target (Release) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset; later runs rebuild incrementally.
The benchmark writes its archives and trace under a per-run directory
inside the build directory and removes it before exiting. The last
line of stdout is the benchmark's JSON result; everything else goes
before it or to stderr. Exits non-zero, without a result, when the
build or the run fails or the result does not name exactly the metrics
BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve_cold", "serve_net_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (first time) and build the benchmark; path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes")
    ap.add_argument("--trace-out", help="copy the traced run's trace here")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    if args.trace_out and args.trace:
        src = os.path.join(work_dir, "trace.json")
        if os.path.exists(src):
            shutil.copyfile(src, args.trace_out)
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        log("benchmark printed no JSON result")
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            log("metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(got))}, "
                f"extra {sorted(set(got) - set(declared))}, units "
                f"{sorted(k for k in got if k in declared and got[k] != declared[k])}")
            return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
