#include "util/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace earthplus::telemetry {

namespace detail {

namespace {

bool
envFlag(const char *name, bool dflt)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    return !(v[0] == '0' && v[1] == '\0');
}

} // anonymous namespace

std::atomic<bool> tracingOn{envFlag("EARTHPLUS_TRACE", false)};

uint32_t
threadSlot()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

} // namespace detail

// ----------------------------------------------------------- histogram

double
Histogram::midpoint(uint32_t b)
{
    if (b < (1u << kSubBucketBits))
        return static_cast<double>(b);
    uint32_t unit = b >> kSubBucketBits;
    uint32_t sub = b & ((1u << kSubBucketBits) - 1);
    int exp = static_cast<int>(unit) + kSubBucketBits - 1;
    double lower = std::ldexp(1.0, exp) +
                   std::ldexp(static_cast<double>(sub),
                              exp - kSubBucketBits);
    double width = std::ldexp(1.0, exp - kSubBucketBits);
    return lower + width / 2.0;
}

uint64_t
Histogram::count() const
{
    return snapshot().count();
}

uint64_t
Histogram::sum() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.sum.load(std::memory_order_relaxed);
    return total;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.counts_.assign(kBuckets, 0);
    for (const Shard &shard : shards_) {
        snap.sum_ += shard.sum.load(std::memory_order_relaxed);
        for (uint32_t b = 0; b < kBuckets; ++b) {
            uint64_t c = shard.buckets[b].load(std::memory_order_relaxed);
            snap.counts_[b] += c;
            snap.count_ += c;
        }
    }
    return snap;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Nearest-rank: the smallest value whose cumulative count reaches
    // ceil(q * n), matching sorted[ceil(q*n) - 1] on a sorted sample.
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t cum = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
        cum += counts_[b];
        if (cum >= rank)
            return Histogram::midpoint(static_cast<uint32_t>(b));
    }
    return Histogram::midpoint(
        static_cast<uint32_t>(counts_.size() - 1));
}

HistogramSnapshot
HistogramSnapshot::since(const HistogramSnapshot &base) const
{
    HistogramSnapshot out;
    out.counts_.assign(counts_.size(), 0);
    for (size_t b = 0; b < counts_.size(); ++b) {
        uint64_t before =
            b < base.counts_.size() ? base.counts_[b] : 0;
        uint64_t delta =
            counts_[b] >= before ? counts_[b] - before : 0;
        out.counts_[b] = delta;
        out.count_ += delta;
    }
    out.sum_ = sum_ >= base.sum_ ? sum_ - base.sum_ : 0;
    return out;
}

// ------------------------------------------------------------ registry

namespace {

/**
 * The process-wide metric registry. Deliberately leaked (never
 * destroyed): metric objects must outlive every thread that might
 * still record into them during static destruction, and a telemetry
 * layer has no meaningful teardown.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

/** Format a double as a JSON number (never NaN/inf). */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // anonymous namespace

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::string
snapshotJson()
{
    // Hold the registry lock only to walk the maps; the metric reads
    // are lock-free so concurrent recording is never stalled.
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::ostringstream out;
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : r.counters) {
        out << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
            << "\": " << c->value();
        first = false;
    }
    out << (first ? "},\n" : "\n  },\n");
    out << "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : r.gauges) {
        out << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
            << "\": " << g->value();
        first = false;
    }
    out << (first ? "},\n" : "\n  },\n");
    out << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : r.histograms) {
        HistogramSnapshot snap = h->snapshot();
        out << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
            << "\": {\"count\": " << snap.count()
            << ", \"sum\": " << snap.sum()
            << ", \"mean\": " << jsonNum(snap.mean())
            << ", \"p50\": " << jsonNum(snap.quantile(0.5))
            << ", \"p90\": " << jsonNum(snap.quantile(0.9))
            << ", \"p99\": " << jsonNum(snap.quantile(0.99))
            << ", \"p999\": " << jsonNum(snap.quantile(0.999))
            << ", \"max\": " << jsonNum(snap.quantile(1.0)) << "}";
        first = false;
    }
    out << (first ? "}\n" : "\n  }\n") << "}\n";
    return out.str();
}

// ------------------------------------------------------------- tracing

namespace {

/** One recorded complete event. */
struct TraceEvent
{
    const char *name;
    const char *cat;
    uint64_t startNs;
    uint64_t durNs;
};

struct TraceBuffer;

/**
 * Global trace state: the registered per-thread buffers, events
 * rescued from exited threads, and the export epoch. Leaked for the
 * same static-destruction reason as the metric registry.
 */
struct Collector
{
    std::mutex mutex;
    std::vector<TraceBuffer *> buffers;
    /** (events, tid) pairs flushed by exiting threads. */
    std::vector<std::pair<std::vector<TraceEvent>, uint32_t>> orphans;
    std::atomic<uint32_t> nextTid{1};
    /** Nanosecond timestamp all exported "ts" values are relative
     *  to; stamped by the first setTracing(true). */
    std::atomic<uint64_t> epochNs{0};
};

Collector &
collector()
{
    static Collector *c = new Collector;
    return *c;
}

/** Spans kept per thread before new ones are dropped (counted). */
constexpr size_t kMaxEventsPerThread = 1u << 16;

/**
 * Per-thread span buffer. Appends lock only the buffer's own mutex
 * (uncontended except against an in-progress export); thread exit
 * moves the events into the collector's orphan list so no span is
 * lost when a pool worker dies before the trace is written.
 */
struct TraceBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    uint32_t tid;
    std::atomic<uint64_t> dropped{0};

    TraceBuffer()
    {
        Collector &c = collector();
        tid = c.nextTid.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(c.mutex);
        c.buffers.push_back(this);
    }

    ~TraceBuffer()
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        {
            std::lock_guard<std::mutex> mine(mutex);
            if (!events.empty())
                c.orphans.emplace_back(std::move(events), tid);
        }
        c.buffers.erase(
            std::remove(c.buffers.begin(), c.buffers.end(), this),
            c.buffers.end());
    }
};

TraceBuffer &
localBuffer()
{
    thread_local TraceBuffer buffer;
    return buffer;
}

} // anonymous namespace

void
setTracing(bool enabled)
{
    if (enabled) {
        uint64_t expected = 0;
        collector().epochNs.compare_exchange_strong(
            expected, nowNanos(), std::memory_order_relaxed);
    }
    detail::tracingOn.store(enabled, std::memory_order_relaxed);
}

namespace detail {

void
emitSpan(const char *name, const char *cat, uint64_t startNs,
         uint64_t endNs)
{
    TraceBuffer &buffer = localBuffer();
    {
        std::lock_guard<std::mutex> lock(buffer.mutex);
        if (buffer.events.size() < kMaxEventsPerThread) {
            buffer.events.push_back(
                TraceEvent{name, cat, startNs, endNs - startNs});
            return;
        }
    }
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    counter("telemetry.trace_dropped").add(1);
}

} // namespace detail

std::string
traceJson()
{
    Collector &c = collector();
    uint64_t epoch = c.epochNs.load(std::memory_order_relaxed);
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const TraceEvent &e, uint32_t tid) {
        uint64_t rel = e.startNs >= epoch ? e.startNs - epoch : 0;
        out << (first ? "\n" : ",\n") << "{\"name\":\""
            << jsonEscape(e.name) << "\",\"cat\":\""
            << jsonEscape(e.cat) << "\",\"ph\":\"X\",\"ts\":"
            << jsonNum(static_cast<double>(rel) / 1000.0)
            << ",\"dur\":"
            << jsonNum(static_cast<double>(e.durNs) / 1000.0)
            << ",\"pid\":1,\"tid\":" << tid << "}";
        first = false;
    };
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        for (TraceBuffer *buffer : c.buffers) {
            std::lock_guard<std::mutex> own(buffer->mutex);
            for (const TraceEvent &e : buffer->events)
                emit(e, buffer->tid);
        }
        for (const auto &[events, tid] : c.orphans)
            for (const TraceEvent &e : events)
                emit(e, tid);
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
}

bool
writeTrace(const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << traceJson();
    return static_cast<bool>(f);
}

void
clearTrace()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    for (TraceBuffer *buffer : c.buffers) {
        std::lock_guard<std::mutex> own(buffer->mutex);
        buffer->events.clear();
    }
    c.orphans.clear();
}

uint64_t
traceDropped()
{
    Collector &c = collector();
    uint64_t total = 0;
    std::lock_guard<std::mutex> lock(c.mutex);
    for (TraceBuffer *buffer : c.buffers)
        total += buffer->dropped.load(std::memory_order_relaxed);
    return total;
}

} // namespace earthplus::telemetry
