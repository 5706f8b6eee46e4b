/**
 * @file
 * Shared pieces of the end-to-end benchmark: run configuration, sample
 * sets, per-layer call timing, digests and the metric report.
 *
 * The benchmark measures every layer from the outside: it times its
 * own calls into each module's public functions (LayerCall), reads the
 * telemetry registry for counts, and, in a traced run, wraps each call
 * in a telemetry::TraceSpan named after the metric it feeds, so the
 * spans already inside the library nest under it (see report.cc for
 * the self-time computation).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/telemetry.hh"

namespace perfbench {

/** Input sizes of one run (`full` for measuring, `tiny` for smoke). */
struct Sizes
{
    int imageSize = 512;       ///< Capture edge, pixels.
    int locations = 4;         ///< Sentinel-like locations A..D.
    /** Simulated days of the ingest workload, from day 60 (spring, as
     *  the figure benches start: weather is seasonal). */
    double ingestDays = 365.0;
    /** Simulated days behind the serve archive, from day 150: a summer
     *  slice, so most captures are clear enough to download. */
    double serveDays = 60.0;
    /** Set-ups per run (setup_s is their median). The ingest set-up
     *  takes well under a second, so it repeats more often. */
    int ingestSetupRepeats = 5;
    int serveSetupRepeats = 3;
    int verifySample = 48;     ///< Queries re-served bit for bit.
};

/** Command-line configuration of one run. */
struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for archives and the trace (run.py removes it). */
    std::string workDir;
    Sizes sizes;
};

/** Wall seconds on the steady clock. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** 64-bit FNV-1a over `len` bytes, chained from `h`. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** A set of samples with nearest-rank percentiles. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    void append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    size_t count() const { return v_.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank percentile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    std::vector<double> v_;
};

/**
 * Latency samples stamped with their time in the phase (seconds), for
 * quantiles that resist a rare stall: windowed() takes the quantile in
 * each window of the phase and reports the median over windows.
 */
class TimedSamples
{
  public:
    void add(double atSec, double v) { v_.push_back({atSec, v}); }
    void append(const TimedSamples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    size_t count() const { return v_.size(); }
    /** All values, unstamped. */
    Samples all() const;
    /**
     * Median over `windowSec` windows holding at least `minPerWindow`
     * samples of each window's `q` quantile; the plain quantile when
     * no window holds enough.
     */
    double windowed(double windowSec, double q, size_t minPerWindow) const;

  private:
    std::vector<std::pair<double, double>> v_;
};

/**
 * Per-layer call timings of one run (milliseconds), by metric name.
 * Thread-safe.
 */
class Layers
{
  public:
    /** Record one call's wall time under `name` (milliseconds). */
    void addTime(const std::string &name, double ms);
    /** Merge a thread-local sample set into `name`. */
    void addTimes(const std::string &name, const Samples &ms);
    /** Samples of `name` (empty when never recorded). */
    Samples times(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Samples> times_;
};

/**
 * Times one call into a layer: wall time lands in `layers` under the
 * span's name, and the call is a trace span of category `cat` when
 * tracing is on. `name` and `cat` must be string literals.
 */
class LayerCall
{
  public:
    LayerCall(Layers &layers, const char *name, const char *cat)
        : layers_(layers), name_(name), span_(name, cat),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~LayerCall()
    {
        layers_.addTime(name_, elapsedMs());
    }

    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    LayerCall(const LayerCall &) = delete;
    LayerCall &operator=(const LayerCall &) = delete;

  private:
    Layers &layers_;
    const char *name_;
    earthplus::telemetry::TraceSpan span_;
    std::chrono::steady_clock::time_point start_;
};

/** Values of named registry counters, to take deltas over a phase. */
class CounterSnapshot
{
  public:
    /** Read every counter in `names` now. */
    explicit CounterSnapshot(const std::vector<std::string> &names);
    /** Counter `name` now minus at construction. */
    double delta(const std::string &name) const;

  private:
    std::map<std::string, uint64_t> base_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints. */
struct Report
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    /** Why `correct` is false (printed to stderr). */
    std::vector<std::string> errors;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        perLayer.push_back({name, value, unit});
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            errors.push_back(what);
        }
    }
    void note(const std::string &line) { notes.push_back(line); }
};

/** Peak resident set size of this process in MB (getrusage maxrss). */
double peakRssMb();

/** Fixed-notation formatting with `digits` decimals. */
std::string fmt(double v, int digits = 3);

/** 16-digit hex of a digest. */
std::string hex64(uint64_t v);

/**
 * Collects trace spans across flushes: each flush() parses the spans
 * the library recorded since the previous flush and clears its
 * buffers, so long runs never hit the per-thread span cap. Spans are
 * kept across flushes, so a parent and its children nest even when
 * they were flushed apart.
 */
class TraceCollector
{
  public:
    /** Parse and clear what the library buffered so far. */
    void flush();
    /** Discard what the library buffered so far. */
    static void discard();
    /** Spans parsed so far. */
    size_t spanCount() const { return spans_.size(); }

    /**
     * Per span name: mean self milliseconds per span (duration minus
     * the time its direct children on the same thread cover), and the
     * span count.
     */
    std::map<std::string, std::pair<double, size_t>> selfTimes() const;

    /** Durations (ms) of every span named `name`. */
    Samples durations(const std::string &name) const;

    /**
     * Summed duration (ms) of the spans among [from, to) (in parse
     * order) named in `names` that have no parent on their thread: the
     * top-level calls of a timed phase.
     */
    double rootMs(const std::vector<std::string> &names, size_t from,
                  size_t to) const;

  private:
    struct Span
    {
        uint32_t name = 0;
        uint32_t cat = 0;
        uint32_t tid = 0;
        double startUs = 0.0;
        double durUs = 0.0;
    };
    uint32_t intern(const std::string &s);
    /** For each span, the index of its parent (or -1). */
    std::vector<int64_t> parents() const;

    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> ids_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
