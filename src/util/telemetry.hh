/**
 * @file
 * Process-wide telemetry: a metrics registry (counters, gauges,
 * log-bucketed histograms), RAII trace spans with Chrome-trace
 * export, and a JSON snapshot of everything.
 *
 * Every subsystem with a hot path records into this layer — the codec
 * pipeline stages, the tile server's serve path, the thread pool, the
 * background queue and the sharded archive — so queueing behavior and
 * tail latency are observable without ad-hoc per-subsystem stats.
 * docs/OBSERVABILITY.md holds the metric naming scheme, the overhead
 * model, and the trace-viewing workflow.
 *
 * Design constraints, in order:
 *
 *  1. **Bounded record cost.** Metrics always record: counters and
 *     gauges are one relaxed fetch_add on a thread-sharded,
 *     cache-line-padded cell; histograms add one steady_clock read
 *     (paid by the caller) plus bucket math on integers. A TraceSpan
 *     whose tracing flag is off costs one relaxed load and a branch.
 *  2. **Exact totals.** Counter/gauge/histogram updates never drop or
 *     approximate: concurrent adds sum exactly (tests pin this).
 *     Histograms log-bucket the *distribution* (16 sub-buckets per
 *     octave, <= ~6.3% relative bucket width) but count and sum are
 *     exact.
 *  3. **Monotonic.** Registry objects only accumulate. Callers that
 *     need a window (the tile server's StatsView since resetStats)
 *     subtract a baseline snapshot instead of clearing.
 *
 * Environment: EARTHPLUS_TRACE=1 starts with tracing enabled (default
 * off; setTracing() toggles it at run time).
 */

#ifndef EARTHPLUS_UTIL_TELEMETRY_HH
#define EARTHPLUS_UTIL_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace earthplus::telemetry {

namespace detail {

/** Master tracing switch; relaxed-checked by every TraceSpan. */
extern std::atomic<bool> tracingOn;

/**
 * Small dense id of the calling thread, used to pick a metric cell.
 * Monotonically assigned on first use per thread; never reused, so
 * two live threads never share an id (cells are chosen id mod cell
 * count, so *cache-line* sharing only starts beyond the cell count).
 */
uint32_t threadSlot();

/** One cache-line-padded atomic cell of a sharded counter/gauge. */
struct alignas(64) PaddedCell
{
    std::atomic<int64_t> v{0};
};

/** Record one complete span into the calling thread's trace buffer. */
void emitSpan(const char *name, const char *cat, uint64_t startNs,
              uint64_t endNs);

} // namespace detail

/** True when span tracing is enabled (default off). */
inline bool
tracingEnabled()
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

/**
 * Toggle span tracing process-wide. The first enable stamps the trace
 * epoch all exported timestamps are relative to.
 */
void setTracing(bool enabled);

/** Monotonic nanoseconds (steady_clock), the unit every *_ns metric
 *  and span timestamp uses. */
inline uint64_t
nowNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Monotonic event counter on thread-sharded padded atomics: add() is
 * one relaxed fetch_add with no cross-thread cache-line contention up
 * to kCells concurrent threads; value() sums the cells.
 *
 * Obtain instances from counter(name) — references stay valid for the
 * process lifetime.
 */
class Counter
{
  public:
    /** Number of thread-sharded cells (power of two). */
    static constexpr uint32_t kCells = 16;

    /** Add `n` events. */
    void
    add(uint64_t n = 1)
    {
        cells_[detail::threadSlot() & (kCells - 1)].v.fetch_add(
            static_cast<int64_t>(n), std::memory_order_relaxed);
    }

    /** Sum of all adds so far. */
    uint64_t
    value() const
    {
        int64_t total = 0;
        for (const auto &cell : cells_)
            total += cell.v.load(std::memory_order_relaxed);
        return static_cast<uint64_t>(total);
    }

  private:
    detail::PaddedCell cells_[kCells];
};

/**
 * Signed level gauge (queue depths, bytes outstanding): add()
 * positive or negative deltas on thread-sharded cells, value() is the
 * net sum. Like every registry object it only accumulates deltas;
 * there is deliberately no set().
 */
class Gauge
{
  public:
    /** Apply a delta. */
    void
    add(int64_t delta)
    {
        cells_[detail::threadSlot() & (Counter::kCells - 1)].v.fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Net sum of all deltas so far. */
    int64_t
    value() const
    {
        int64_t total = 0;
        for (const auto &cell : cells_)
            total += cell.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    detail::PaddedCell cells_[Counter::kCells];
};

/**
 * Immutable copy of a Histogram's state. Supports quantile extraction
 * and subtraction, so a caller can report percentiles over a window
 * (samples since a baseline snapshot) while the underlying histogram
 * stays monotonic.
 */
class HistogramSnapshot
{
  public:
    /** Samples in the snapshot. */
    uint64_t count() const { return count_; }

    /** Exact sum of all sample values. */
    uint64_t sum() const { return sum_; }

    /** Mean sample value (0 when empty). */
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Value at quantile `q` in [0, 1] (nearest-rank), as the midpoint
     * of the log bucket holding that rank — within half the bucket's
     * <= ~6.3% relative width of the exact order statistic. 0 when
     * empty.
     */
    double quantile(double q) const;

    /** This snapshot minus an earlier `base` of the same histogram. */
    HistogramSnapshot since(const HistogramSnapshot &base) const;

  private:
    friend class Histogram;

    std::vector<uint64_t> counts_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

/**
 * Log-bucketed histogram of unsigned samples (latencies in
 * nanoseconds, sizes in bytes).
 *
 * Buckets: values below 16 map to exact unit buckets; above, each
 * power-of-two octave splits into 16 linear sub-buckets, so the
 * relative bucket width never exceeds 1/16 and quantiles extracted
 * from bucket midpoints sit within ~3.2% of the exact order
 * statistic. The full uint64_t range is covered — nothing clamps.
 *
 * record() is wait-free: one relaxed fetch_add into a thread-sharded
 * bucket array plus one into the shard's sum cell. count/sum are
 * exact; only the distribution is bucketed.
 */
class Histogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBucketBits buckets per octave. */
    static constexpr int kSubBucketBits = 4;
    /** Total bucket count for the uint64_t value range. */
    static constexpr uint32_t kBuckets =
        ((64 - kSubBucketBits) << kSubBucketBits) +
        (1u << kSubBucketBits);
    /** Thread shards (power of two); merged on snapshot(). */
    static constexpr uint32_t kShards = 4;

    /** Largest relative error of a bucket-midpoint quantile. */
    static constexpr double kMaxRelativeError =
        0.5 / (1 << kSubBucketBits);

    /** Bucket index holding value `v`. */
    static uint32_t
    bucketIndex(uint64_t v)
    {
        if (v < (1u << kSubBucketBits))
            return static_cast<uint32_t>(v);
        int exp = 63 - __builtin_clzll(v);
        return static_cast<uint32_t>(
            ((exp - kSubBucketBits + 1) << kSubBucketBits) +
            ((v >> (exp - kSubBucketBits)) -
             (1u << kSubBucketBits)));
    }

    /** Midpoint value of bucket `b` (its representative). */
    static double midpoint(uint32_t b);

    /** Record one sample. */
    void
    record(uint64_t v)
    {
        Shard &shard =
            shards_[detail::threadSlot() & (kShards - 1)];
        shard.buckets[bucketIndex(v)].fetch_add(
            1, std::memory_order_relaxed);
        shard.sum.fetch_add(v, std::memory_order_relaxed);
    }

    /** Samples recorded so far (exact). */
    uint64_t count() const;

    /** Exact sum of all samples. */
    uint64_t sum() const;

    /** Merge the shards into an immutable snapshot. */
    HistogramSnapshot snapshot() const;

    /** quantile() on a fresh snapshot (see HistogramSnapshot). */
    double
    quantile(double q) const
    {
        return snapshot().quantile(q);
    }

  private:
    struct Shard
    {
        std::atomic<uint64_t> buckets[kBuckets] = {};
        std::atomic<uint64_t> sum{0};
    };

    Shard shards_[kShards];
};

/**
 * Registry lookup: the process-wide counter named `name`, created on
 * first use. The reference stays valid for the process lifetime, so
 * hot paths resolve it once (function-local static) and add through
 * the pointer. Names are dotted lowercase paths —
 * docs/OBSERVABILITY.md spells out the scheme.
 */
Counter &counter(const std::string &name);

/** Registry lookup for a Gauge (see counter()). */
Gauge &gauge(const std::string &name);

/** Registry lookup for a Histogram (see counter()). */
Histogram &histogram(const std::string &name);

/**
 * One JSON object with every registered metric:
 *
 *   {"counters": {name: value, ...},
 *    "gauges": {name: value, ...},
 *    "histograms": {name: {"count": n, "sum": s, "mean": m,
 *                          "p50": ..., "p90": ..., "p99": ...,
 *                          "p999": ..., "max": ...}, ...}}
 *
 * Histogram values are in the histogram's native unit (nanoseconds
 * for *_ns names). Benches dump this next to their --json rows and
 * ci/trace_check.py asserts it parses.
 */
std::string snapshotJson();

/**
 * RAII scoped trace span: construction stamps the start, destruction
 * emits one Chrome complete event ("ph":"X") into the calling
 * thread's trace buffer. When tracing is disabled both ends reduce to
 * a relaxed load and a branch.
 *
 * `name` and `cat` must be string literals (or otherwise outlive the
 * trace collector): spans store the pointers, not copies. `cat` names
 * the subsystem ("codec", "ground", "archive", "pool", "bg") — the CI
 * trace check keys on it.
 */
class TraceSpan
{
  public:
    /** Open a span named `name` under subsystem category `cat`. */
    TraceSpan(const char *name, const char *cat)
    {
        if (tracingEnabled()) {
            name_ = name;
            cat_ = cat;
            startNs_ = nowNanos();
        }
    }

    /** Close the span and emit it (if it was armed). */
    ~TraceSpan()
    {
        if (name_)
            detail::emitSpan(name_, cat_, startNs_, nowNanos());
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    uint64_t startNs_ = 0;
};

/**
 * RAII latency sampler: records the scope's wall time in nanoseconds
 * into `hist` on destruction.
 */
class ScopedTimer
{
  public:
    /** Start timing into `hist` (histogram of nanoseconds). */
    explicit ScopedTimer(Histogram &hist)
        : hist_(&hist), startNs_(nowNanos())
    {
    }

    /** Stop and record. */
    ~ScopedTimer() { hist_->record(nowNanos() - startNs_); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram *hist_;
    uint64_t startNs_;
};

/**
 * Serialize every span recorded since the last clearTrace() as Chrome
 * trace-event JSON ({"traceEvents": [...]}) — loadable in Perfetto or
 * chrome://tracing. Timestamps are microseconds since the trace
 * epoch; thread attribution comes from per-thread buffer ids.
 */
std::string traceJson();

/** traceJson() written to `path`; false on I/O failure. */
bool writeTrace(const std::string &path);

/** Discard every recorded span (buffers stay registered). */
void clearTrace();

/**
 * Spans dropped because a thread's buffer hit its cap (also counted
 * by the "telemetry.trace_dropped" registry counter).
 */
uint64_t traceDropped();

} // namespace earthplus::telemetry

#endif // EARTHPLUS_UTIL_TELEMETRY_HH
