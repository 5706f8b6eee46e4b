#!/usr/bin/env bash
# CI check driver. Usage: ci/check.sh [mode]
#
#   build   configure, build, run the full ctest suite
#   bench   smoke-run the end-to-end benches, emit BENCH_*.json
#   perf    run the gated benches (codec kernels, tile coder, ground
#           serving, ground net) against their checked-in baselines
#           (ci/perf_gate.py)
#   asan    ASan+UBSan build of the byte-level parser suites
#   tsan    TSan build of the concurrent archive/serving/codec suites
#   chaos   fault-injection sweep: failpoint + crash-consistency +
#           net-fault suites plus the progressive-stream truncation
#           fuzz and the stream mutation fuzz across several
#           EARTHPLUS_CHAOS_SEED values, plus the
#           chaos probe with its recovery-counter gate — and the same
#           suites again under ASan
#   coverage instrumented (--coverage) build + full ctest, gcov line
#           coverage emitted as a JSON artifact, and a gate failing
#           when src/codec line coverage drops below the recorded
#           baseline (ci/coverage_gate.py)
#   docs    API-doc check (Doxygen when installed + doc-comment lint +
#           docs/OBSERVABILITY.md's metric inventory matched against
#           the metrics registered under src/, both ways)
#   all     everything above, in that order (default)
#
# Environment:
#   BUILD_DIR      build tree (default: build)
#   SAN_BUILD_DIR  ASan build tree (default: build-asan)
#   TSAN_BUILD_DIR TSan build tree (default: $BUILD_DIR-tsan)
#   ARTIFACTS_DIR  where BENCH_*.json land (default: $BUILD_DIR/bench-json)
#   CMAKE_ARGS     extra configure arguments (e.g. -DEARTHPLUS_WERROR=ON)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-all}"
BUILD_DIR="${BUILD_DIR:-build}"
SAN_BUILD_DIR="${SAN_BUILD_DIR:-build-asan}"
ARTIFACTS_DIR="${ARTIFACTS_DIR:-$BUILD_DIR/bench-json}"

configure_and_build() {
    # shellcheck disable=SC2086
    cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS:-}
    cmake --build "$BUILD_DIR" -j
}

run_tests() {
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j
}

run_benches() {
    mkdir -p "$ARTIFACTS_DIR"
    # Smoke the end-to-end engine: the bench prints a thread-count sweep
    # (1, 2, 4, default) with wall-clock and speedup per row. Speedup on
    # single-core CI runners is naturally ~1x; the table is
    # informational, the run itself must succeed.
    if [ -x "$BUILD_DIR/bench_fig16_runtime" ]; then
        "$BUILD_DIR/bench_fig16_runtime" --benchmark_min_time=0.05
    else
        echo "bench_fig16_runtime not built (google-benchmark missing); skipped"
    fi

    # Smoke the ground-segment serving path: queries/sec and cache hit
    # rate vs. thread count (informational; the run must succeed). The
    # JSON lands in the artifacts dir for the perf trajectory, and the
    # run also dumps the telemetry snapshot plus a sample Chrome trace
    # (both uploaded as CI artifacts and validated below).
    "$BUILD_DIR/bench_ground_serving" \
        --json "$ARTIFACTS_DIR/BENCH_ground_serving.json" \
        --metrics-json "$ARTIFACTS_DIR/telemetry_snapshot.json" \
        --trace-json "$ARTIFACTS_DIR/telemetry_trace.json"

    # Smoke the serving daemon and the loopback EPT path: --selftest
    # binds an ephemeral port, handshakes, round-trips pixels over the
    # wire from a synthetic archive it writes to (and removes from) a
    # temp directory, and shuts down cleanly. The
    # open-loop bench JSON records the latency trajectory (the gated
    # run lives in perf mode).
    "$BUILD_DIR/earthplus_tile_serverd" --selftest
    "$BUILD_DIR/bench_ground_serving" --net \
        --json "$ARTIFACTS_DIR/BENCH_ground_net.json"

    # Smoke the end-to-end tile coder (dense / sparse-delta / lossless
    # at every dispatch level). The gated run lives in perf mode; this
    # one just records the trajectory from the default build type, and
    # the metrics snapshot of its per-stage codec histograms.
    "$BUILD_DIR/bench_tile_coder" --reps 3 \
        --json "$ARTIFACTS_DIR/BENCH_tile_coder.json" \
        --metrics-json "$ARTIFACTS_DIR/telemetry_tile_coder.json"

    # Smoke the progressive rate-control mode: the PSNR-vs-budget
    # rate-distortion rows plus the truncateStream throughput row.
    # Informational (recorded, not gated): PSNR is deterministic and
    # the cut is memcpy-class; ci/BENCH_tile_coder_progressive.json
    # records the reference curve.
    "$BUILD_DIR/bench_tile_coder" --progressive --reps 3 \
        --json "$ARTIFACTS_DIR/BENCH_tile_coder_progressive.json"

    # Telemetry artifact gate: the snapshot must parse with the
    # documented shape and the trace must be valid Chrome trace-event
    # JSON with >= 1 complete event per instrumented subsystem, and
    # must hold the codec's per-stage spans.
    python3 ci/trace_check.py \
        --metrics "$ARTIFACTS_DIR/telemetry_snapshot.json" \
        --trace "$ARTIFACTS_DIR/telemetry_trace.json" \
        --require-span codec.transform \
        --require-span codec.entropy_chunk
    python3 ci/trace_check.py \
        --metrics "$ARTIFACTS_DIR/telemetry_tile_coder.json"
}

run_perf_gate() {
    mkdir -p "$ARTIFACTS_DIR"
    # Gated numbers must come from an optimization level matching the
    # checked-in baseline: pin Release (the CMakeLists default is
    # RelWithDebInfo, whose -O2 auto-vectorizes the scalar reference
    # differently and skews every speedup-over-scalar ratio). A
    # dedicated tree keeps this from thrashing $BUILD_DIR's cache.
    local perf_dir="${PERF_BUILD_DIR:-${BUILD_DIR}-perf}"
    # shellcheck disable=SC2086
    cmake -B "$perf_dir" -S . ${CMAKE_ARGS:-} -DCMAKE_BUILD_TYPE=Release
    cmake --build "$perf_dir" -j --target bench_codec_kernels
    # Per-kernel throughput at every dispatch level, as machine-readable
    # JSON (uploaded as a CI artifact), then the regression gate: fail
    # on >25% drop in speedup-over-scalar vs the checked-in baseline,
    # or on the 9/7 lifting kernel dipping below 2x under AVX2.
    # 21 reps keeps the medians stable enough for the 25% gate margin
    # on noisy shared runners.
    "$perf_dir/bench_codec_kernels" --reps 21 \
        --json "$ARTIFACTS_DIR/BENCH_codec_kernels.json"
    python3 ci/perf_gate.py \
        --baseline ci/BENCH_codec_kernels.baseline.json \
        --fresh "$ARTIFACTS_DIR/BENCH_codec_kernels.json"

    # End-to-end tile-coder gate: absolute MB/s floors against the
    # checked-in baseline (the entropy stage runs the same scalar code
    # at every level, so a relative metric would hide a uniformly
    # slower coder). Absolute numbers are host-sensitive: the default
    # 25% margin assumes a host comparable to the baseline machine;
    # hosted CI widens it via TILE_CODER_MAX_REGRESSION because shared
    # runners vary severalfold in single-thread throughput. See the
    # ci/perf_gate.py docstring for re-baselining.
    # Distinct filename so 'all' mode doesn't clobber the bench-mode
    # smoke artifact (which records the default build type).
    cmake --build "$perf_dir" -j --target bench_tile_coder
    "$perf_dir/bench_tile_coder" --reps 21 \
        --json "$ARTIFACTS_DIR/BENCH_tile_coder.release.json"
    python3 ci/perf_gate.py --bench tile_coder \
        --max-regression "${TILE_CODER_MAX_REGRESSION:-0.25}" \
        --fresh "$ARTIFACTS_DIR/BENCH_tile_coder.release.json"

    # Ground-serving gate: warm multi-client q/s from the Zipfian load
    # generator, absolute like the tile coder (and equally
    # host-sensitive — hosted CI widens the margin via
    # GROUND_SERVING_MAX_REGRESSION).
    cmake --build "$perf_dir" -j --target bench_ground_serving
    "$perf_dir/bench_ground_serving" \
        --json "$ARTIFACTS_DIR/BENCH_ground_serving.release.json"
    python3 ci/perf_gate.py --bench ground_serving \
        --max-regression "${GROUND_SERVING_MAX_REGRESSION:-0.25}" \
        --fresh "$ARTIFACTS_DIR/BENCH_ground_serving.release.json"

    # Open-loop loopback serving gate: p99 latency at fixed
    # below-capacity arrival rates must not grow past baseline *
    # (1 + margin) (lower is better — the ground_net preset in
    # ci/perf_gate.py; the overload row is informational). Network
    # latency tails are noisy, so the fresh side is a min-merge of
    # three runs against a min-merged baseline, with a wide default
    # margin that hosted CI widens further via
    # GROUND_NET_MAX_REGRESSION.
    for i in 1 2 3; do
        "$perf_dir/bench_ground_serving" --net \
            --json "$ARTIFACTS_DIR/BENCH_ground_net.release.$i.json"
    done
    python3 ci/perf_gate.py --bench ground_net \
        --max-regression "${GROUND_NET_MAX_REGRESSION:-0.5}" \
        --fresh "$ARTIFACTS_DIR/BENCH_ground_net.release.1.json" \
        --fresh "$ARTIFACTS_DIR/BENCH_ground_net.release.2.json" \
        --fresh "$ARTIFACTS_DIR/BENCH_ground_net.release.3.json"
    cp "$ARTIFACTS_DIR/BENCH_ground_net.release.1.json" \
       "$ARTIFACTS_DIR/BENCH_ground_net.release.json"
}

run_tsan() {
    # TSan configuration: the sharded archive's per-shard locking, the
    # tile server's request coalescing and its background prefetcher
    # must be race-free under concurrent serveBatch + append — and the
    # codec's parallel encode/decode (tile jobs, each with its own
    # range coder, pasting disjoint reconstruction rectangles) must be
    # race-free under concurrent encodes — and the
    # telemetry layer's sharded counters/histograms and trace buffers
    # must be race-free under concurrent recording — and the EPT
    # serving front's event-loop/pool handoff (serveAsync completions
    # crossing to the loop thread over the wake pipe) must be
    # race-free under pipelined load — and the tile geometry every
    # coder of one shape shares read-only must be race-free while the
    # golden streams replay at every pool width. Scoped to the suites
    # that contain the concurrency tests.
    local tsan_dir="${TSAN_BUILD_DIR:-${BUILD_DIR}-tsan}"
    # shellcheck disable=SC2086
    cmake -B "$tsan_dir" -S . ${CMAKE_ARGS:-} \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
    cmake --build "$tsan_dir" -j \
          --target ground_test parallel_test codec_test telemetry_test \
                   net_test progressive_test golden_stream_test
    EARTHPLUS_THREADS=4 ctest --test-dir "$tsan_dir" \
          --output-on-failure \
          -R 'ground_test|parallel_test|codec_test|telemetry_test|net_test|progressive_test|golden_stream_test'
}

run_chaos() {
    # The deterministic fault-injection sweep. crash_consistency_test
    # kills the workload at EVERY injected write boundary and verifies
    # no acknowledged record is lost; EARTHPLUS_CHAOS_SEED varies the
    # payload contents across runs without changing the boundary
    # structure, so a few seeds buy coverage cheaply.
    # The stream-prefix fuzz rides along: each seed cuts EPC4 streams
    # short at a different set of offsets and asserts every prefix
    # fails with a typed error instead of a crash — and so does the
    # stream mutation fuzz, whose seed picks the length-word rewrites
    # and byte flips it feeds tryDeserialize(), and which decodes every
    # mutant the walker accepts and every tile-fair cut of it.
    configure_and_build
    cmake --build "$BUILD_DIR" -j \
          --target failpoint_test crash_consistency_test net_test \
                   progressive_test stream_fuzz_test earthplus_chaos_probe
    for seed in 1 7 1234; do
        echo "chaos: seed $seed"
        EARTHPLUS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" \
            --output-on-failure \
            -R 'failpoint_test|crash_consistency_test|net_test|progressive_test|stream_fuzz_test'
    done

    # The chaos probe drives the archive's recovery paths (torn tail,
    # failing fsync) and dumps the registry; the counter gate proves
    # the recovery metrics actually moved.
    mkdir -p "$ARTIFACTS_DIR"
    "$BUILD_DIR/earthplus_chaos_probe" \
        --metrics-json "$ARTIFACTS_DIR/telemetry_chaos.json"
    python3 ci/trace_check.py \
        --metrics "$ARTIFACTS_DIR/telemetry_chaos.json" \
        --require-counter archive.tail_truncated \
        --require-counter archive.fsync_failures

    # The same fault paths under ASan: injected faults love to expose
    # use-after-free in error-path cleanup.
    # shellcheck disable=SC2086
    cmake -B "$SAN_BUILD_DIR" -S . ${CMAKE_ARGS:-} \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    cmake --build "$SAN_BUILD_DIR" -j \
          --target failpoint_test crash_consistency_test progressive_test \
                   stream_fuzz_test
    ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure \
          -R 'failpoint_test|crash_consistency_test|progressive_test|stream_fuzz_test'
}

run_coverage() {
    # Line-coverage build: gcc's --coverage (gcov) on a Debug tree,
    # full ctest so every suite contributes counts, then the gate:
    # src/codec line coverage must not drop below the recorded
    # baseline (ci/COVERAGE_codec.baseline.json — regenerate with
    # ci/coverage_gate.py --rebaseline after intentional changes).
    local cov_dir="${COVERAGE_BUILD_DIR:-${BUILD_DIR}-coverage}"
    # shellcheck disable=SC2086
    cmake -B "$cov_dir" -S . ${CMAKE_ARGS:-} \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="--coverage" \
          -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build "$cov_dir" -j
    ctest --test-dir "$cov_dir" --output-on-failure -j
    mkdir -p "$ARTIFACTS_DIR"
    python3 ci/coverage_gate.py \
        --build-dir "$cov_dir" \
        --baseline ci/COVERAGE_codec.baseline.json \
        --report "$ARTIFACTS_DIR/coverage_codec.json"
}

run_docs() {
    python3 ci/docs_check.py
}

run_asan() {
    # ASan+UBSan configuration: the byte-level parsers (downlink
    # packets, archive file format, codec streams, EPT wire frames)
    # and the SIMD kernels
    # must be sanitizer-clean on both their happy paths and their
    # corruption-recovery paths. The range decoder's zero-run path
    # reads the byte stream directly, so its own suite runs here too.
    # Scoped to the suites that exercise those parsers so CI time
    # stays bounded.
    # shellcheck disable=SC2086
    cmake -B "$SAN_BUILD_DIR" -S . ${CMAKE_ARGS:-} \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    cmake --build "$SAN_BUILD_DIR" -j \
          --target ground_test uplink_planner_test codec_test simd_test \
                   golden_stream_test net_test progressive_test \
                   stream_fuzz_test rangecoder_test
    ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure \
          -R 'ground_test|uplink_planner_test|codec_test|simd_test|golden_stream_test|net_test|progressive_test|stream_fuzz_test|rangecoder_test'
}

case "$MODE" in
build)
    configure_and_build
    run_tests
    ;;
bench)
    configure_and_build
    run_benches
    ;;
perf)
    run_perf_gate
    ;;
asan)
    run_asan
    ;;
tsan)
    run_tsan
    ;;
chaos)
    run_chaos
    ;;
coverage)
    run_coverage
    ;;
docs)
    run_docs
    ;;
all)
    configure_and_build
    run_tests
    run_benches
    run_perf_gate
    run_asan
    run_tsan
    run_chaos
    run_coverage
    run_docs
    ;;
*)
    echo "usage: ci/check.sh [build|bench|perf|asan|tsan|chaos|coverage|docs|all]" >&2
    exit 2
    ;;
esac

echo "ci/check.sh: $MODE checks passed"
