#!/usr/bin/env python3
"""Machine-readable perf gate for the codec benchmarks.

Diffs a fresh BENCH_<bench>.json (produced by `bench_<bench> --json
<path>`) against the checked-in baseline and fails CI when a row
regressed by more than the allowed margin. Four benches are gated,
each with its own preset (select with --bench):

codec_kernels (default)
    Per-kernel throughput. Because CI runners and developer machines
    differ wildly in absolute MB/s, the metric is the *speedup ratio*
    of each vector level over the scalar level measured in the same
    file on the same machine — a property of the kernel code, not of
    the host. Only the compute-bound lifting kernels are gated (see
    GATED_KERNELS); the quantizers and pixel conversions saturate DRAM
    already at scalar width, so their ratio tracks the host's memory
    bandwidth and stays informational. Hard floors apply on top (e.g.
    "9/7 lifting must stay >= 2x scalar under AVX2", "the PCLMULQDQ
    CRC-32 fold must stay >= 4x the slicing-by-8 twin") whenever the
    fresh run contains that dispatch level.

tile_coder
    End-to-end `tile_encode`/`tile_decode` jobs per workload (dense,
    sparse_delta). The entropy stage dominates these rows
    and runs the same scalar code at every dispatch level, so a
    speedup-over-scalar ratio would hide a uniformly slower coder;
    the gate is therefore *absolute MB/s* against the checked-in
    baseline. Absolute numbers are host-sensitive: regenerate the
    baseline (--rebaseline) when the perf host changes, and expect to
    re-baseline rather than loosen the margin after intentional
    changes.

ground_serving
    Warm multi-client tile-serving throughput from
    bench_ground_serving's Zipfian load generator. The metric is the
    row's absolute "qps" field (queries/sec — higher is better, same
    comparison as MB/s); latency percentiles ride along in the JSON
    as informational fields. Host-sensitive like tile_coder: hosted
    CI widens the margin via GROUND_SERVING_MAX_REGRESSION.

ground_net
    Open-loop loopback serving latency from
    `bench_ground_serving --net`: a Poisson arrival process at fixed
    rates below capacity, measured from scheduled send time to
    response receipt (so queueing delay counts). The metric is the
    row's "p99_ms" and LOWER is better. Only the fixed-rate rows are
    gated; the deliberately-overloaded row demonstrates shedding and
    stays informational. Host-sensitive; hosted CI widens the margin
    via GROUND_NET_MAX_REGRESSION: a row fails when its fresh p99
    exceeds baseline * (1 + margin).

`--absolute` forces the absolute metric for any bench (same-machine
comparisons only).

Re-baselining (after an intentional perf change, on a quiet machine):

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
    ./build/bench_codec_kernels --reps 21 --json /tmp/fresh.json
    python3 ci/perf_gate.py --fresh /tmp/fresh.json --rebaseline
    for i in 1 2 3; do
        ./build/bench_tile_coder --reps 21 --json /tmp/tc_$i.json
        ./build/bench_ground_serving --json /tmp/gs_$i.json
        ./build/bench_ground_serving --net --json /tmp/gn_$i.json
    done
    python3 ci/perf_gate.py --bench tile_coder --rebaseline \
        --fresh /tmp/tc_1.json --fresh /tmp/tc_2.json --fresh /tmp/tc_3.json
    python3 ci/perf_gate.py --bench ground_serving --rebaseline \
        --fresh /tmp/gs_1.json --fresh /tmp/gs_2.json --fresh /tmp/gs_3.json
    python3 ci/perf_gate.py --bench ground_net --rebaseline \
        --fresh /tmp/gn_1.json --fresh /tmp/gn_2.json --fresh /tmp/gn_3.json
    git add ci/BENCH_*.baseline.json

(For ground_net, min-merging keeps each row's best-case p99 — the
stable floor — and the gate allows fresh runs up to that floor plus
the margin.)

`--fresh` is repeatable: multiple files are merged by taking each
row's *minimum* MB/s. For an absolute-metric baseline that is the
point — whole-run throughput swings (frequency scaling, scheduling)
survive a per-rep median, so a single run's median is not a floor;
the min over a few independent runs is. (--rebaseline also applies
the per-bench gated-row filter for you.)
"""

import argparse
import json
import sys

# name:level:minimum speedup over scalar. dwt97_fwd >= 2x under AVX2 is
# the repo's headline guarantee (see docs/BENCHMARKS.md). The crc32
# floor keeps the carry-less-multiply fold ahead of the slicing-by-8
# twin it replaces (~10x on a 4 MiB buffer; 4x leaves room for a host
# whose memory bandwidth caps the fold).
DEFAULT_FLOORS = ["dwt97_fwd:avx2:2.0", "dwt97_inv:avx2:2.0",
                  "crc32:avx2:4.0"]
# Kernels whose speedup-over-scalar is a property of the code, not of
# the host's memory bandwidth — the only rows worth gating at 25%.
GATED_KERNELS = ["dwt97_fwd", "dwt97_inv"]

BENCHES = {
    "codec_kernels": {
        "baseline": "ci/BENCH_codec_kernels.baseline.json",
        "absolute": False,
        "floors": DEFAULT_FLOORS,
        # Gated rows on rebaseline: exact kernel names.
        "gated": lambda name: name in GATED_KERNELS,
    },
    "tile_coder": {
        "baseline": "ci/BENCH_tile_coder.baseline.json",
        "absolute": True,
        "floors": [],
        # Every end-to-end row is compute-bound in the entropy stage.
        "gated": lambda name: name.startswith(("tile_encode/",
                                               "tile_decode/")),
    },
    "ground_serving": {
        "baseline": "ci/BENCH_ground_serving.baseline.json",
        "absolute": True,
        "metric": "qps",
        "floors": [],
        "gated": lambda name: name.startswith("zipf_serving/"),
    },
    "ground_net": {
        "baseline": "ci/BENCH_ground_net.baseline.json",
        "absolute": True,
        "metric": "p99_ms",
        "lower_is_better": True,
        "floors": [],
        # Fixed-rate open-loop rows only: the overload row sheds by
        # design (its p99 measures the shed path) and the arrival
        # process at saturation is host-dependent — informational.
        "gated": lambda name: name.startswith("net_serving/open/"),
    },
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", []):
        key = (r["name"], r.get("params", {}).get("level", ""))
        rows[key] = r
    return rows


def load_min(paths, metric):
    """Merge runs, keeping each row's minimum-metric measurement."""
    merged = {}
    for path in paths:
        for key, row in load(path).items():
            if key not in merged or \
                    row.get(metric, 0.0) < merged[key].get(metric, 0.0):
                merged[key] = row
    return merged


def speedups(rows):
    """(name, level) -> mb_per_s relative to the scalar row of name."""
    out = {}
    for (name, level), row in rows.items():
        scalar = rows.get((name, "scalar"))
        if not scalar or scalar["mb_per_s"] <= 0:
            continue
        out[(name, level)] = row["mb_per_s"] / scalar["mb_per_s"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", choices=sorted(BENCHES), default="codec_kernels",
                    help="which bench preset to gate (default: "
                         "codec_kernels)")
    ap.add_argument("--baseline", default=None,
                    help="override the preset's baseline path")
    ap.add_argument("--fresh", required=True, action="append",
                    help="BENCH_*.json from this build; repeatable "
                         "(rows merge by minimum MB/s — see the "
                         "re-baselining notes)")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional drop in the median metric "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--absolute", action="store_true",
                    help="gate on raw MB/s instead of speedup-over-"
                         "scalar (same-machine comparisons only; "
                         "default for --bench tile_coder)")
    ap.add_argument("--floor", action="append", default=None,
                    metavar="NAME:LEVEL:RATIO",
                    help="hard speedup floor; repeatable "
                         f"(codec_kernels default: {' '.join(DEFAULT_FLOORS)})")
    ap.add_argument("--rebaseline", action="store_true",
                    help="overwrite the baseline with the fresh results "
                         "and exit 0")
    args = ap.parse_args()

    cfg = BENCHES[args.bench]
    baseline_path = args.baseline or cfg["baseline"]
    absolute = args.absolute or cfg["absolute"]
    metric_key = cfg.get("metric", "mb_per_s")

    if len(args.fresh) > 1 and not absolute:
        # Min-merging MB/s across runs would pair a scalar minimum
        # from one run with a vector minimum from another, producing
        # speedup ratios no single run measured.
        print("perf_gate: multiple --fresh files are only meaningful "
              "for absolute-metric benches (the ratio metric needs "
              "scalar and vector rows from the same run)")
        return 2

    fresh = load_min(args.fresh, metric_key)
    if args.rebaseline:
        with open(args.fresh[0]) as src:
            doc = json.load(src)
        doc["results"] = [r for r in fresh.values()
                          if cfg["gated"](r["name"])]
        with open(baseline_path, "w") as dst:
            json.dump(doc, dst, indent=2)
            dst.write("\n")
        print(f"perf_gate: re-baselined {baseline_path} from "
              f"{' '.join(args.fresh)} ({len(doc['results'])} gated "
              "rows)")
        return 0
    base = load(baseline_path)

    failures = []
    skipped = 0

    # Metrics only compare across identical workloads: a fresh run with
    # a different --edge (or layer/dwt-level count) measures a
    # different working set and must not be diffed against this
    # baseline.
    for key in sorted(set(base) & set(fresh)):
        bp = {k: v for k, v in base[key].get("params", {}).items()
              if k != "level"}
        fp = {k: v for k, v in fresh[key].get("params", {}).items()
              if k != "level"}
        if bp != fp:
            print(f"perf_gate: workload mismatch for {key[0]}: baseline "
                  f"params {bp} vs fresh {fp}; rerun the bench with "
                  "default sizes or re-baseline")
            return 1

    lower_is_better = cfg.get("lower_is_better", False)
    if absolute:
        metric_name = metric_key if metric_key != "mb_per_s" else "MB/s"
        base_metric = {k: r[metric_key] for k, r in base.items()}
        fresh_metric = {k: r.get(metric_key, 0.0)
                        for k, r in fresh.items()}
    else:
        metric_name = "speedup-over-scalar"
        base_metric = speedups(base)
        fresh_metric = speedups(fresh)

    for key, expected in sorted(base_metric.items()):
        name, level = key
        if key not in fresh_metric:
            # This host does not support the level (or the row was
            # removed — the golden tests catch that separately).
            skipped += 1
            continue
        got = fresh_metric[key]
        if lower_is_better:
            allowed = expected * (1.0 + args.max_regression)
            failed = got > allowed
            bound = "allowed<="
        else:
            allowed = expected * (1.0 - args.max_regression)
            failed = got < allowed
            bound = "allowed>="
        status = "REGRESSED" if failed else "ok"
        print(f"perf_gate: {name:<26} {level:<7} {metric_name} "
              f"baseline={expected:8.2f} fresh={got:8.2f} "
              f"{bound}{allowed:8.2f}  {status}")
        if failed:
            cmp = ">" if lower_is_better else "<"
            failures.append(
                f"{name}@{level}: {metric_name} {got:.2f} {cmp} "
                f"{allowed:.2f} (baseline {expected:.2f}, "
                f"{args.max_regression:.0%} margin)")

    fresh_speedups = speedups(fresh) if metric_key == "mb_per_s" else {}
    for floor in (args.floor if args.floor is not None
                  else cfg["floors"]):
        name, level, ratio = floor.rsplit(":", 2)
        ratio = float(ratio)
        key = (name, level)
        if key not in fresh_speedups:
            print(f"perf_gate: floor {floor} skipped "
                  f"(level '{level}' not present on this host)")
            continue
        got = fresh_speedups[key]
        status = "ok" if got >= ratio else "BELOW FLOOR"
        print(f"perf_gate: floor {name:<26} {level:<7} "
              f"required>={ratio:.2f}x got={got:.2f}x  {status}")
        if got < ratio:
            failures.append(
                f"{name}@{level}: speedup {got:.2f}x below the "
                f"{ratio:.2f}x floor")

    if skipped:
        print(f"perf_gate: {skipped} baseline row(s) not measurable on "
              "this host (dispatch level unavailable); skipped")
    if failures:
        print("perf_gate: FAILED")
        for f in failures:
            print(f"  - {f}")
        print("perf_gate: if this change is intentional, re-baseline "
              "(see ci/perf_gate.py docstring)")
        return 1
    print("perf_gate: all rows within "
          f"{args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
