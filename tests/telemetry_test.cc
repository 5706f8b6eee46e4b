// Telemetry layer: exact concurrent aggregation, log-bucket quantile
// accuracy against a sorted reference, span nesting and thread
// attribution in exported traces, and tracing on/off toggling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hh"
#include "util/telemetry.hh"

using namespace earthplus;
using namespace earthplus::telemetry;

namespace {

/** Restores the tracing switch on scope exit. */
struct ToggleGuard
{
    bool tracing = tracingEnabled();
    ~ToggleGuard() { setTracing(tracing); }
};

/** Nearest-rank order statistic of a sorted sample. */
uint64_t
referenceQuantile(const std::vector<uint64_t> &sorted, double q)
{
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::max<size_t>(rank, 1);
    return sorted[rank - 1];
}

/** First value of `"key":<number>` after `from` in `json`, or -1. */
long long
numberAfter(const std::string &json, const std::string &key,
            size_t from = 0)
{
    size_t pos = json.find("\"" + key + "\":", from);
    if (pos == std::string::npos)
        return -1;
    pos += key.size() + 3;
    return std::atoll(json.c_str() + pos);
}

} // namespace

TEST(Counter, ConcurrentAddsSumExactly)
{
    Counter &c = counter("test.counter.concurrent");
    uint64_t before = c.value();
    constexpr int kThreads = 8;
    constexpr int kAdds = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value() - before,
              static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(Gauge, ConcurrentDeltasNetExactly)
{
    Gauge &g = gauge("test.gauge.concurrent");
    int64_t before = g.value();
    constexpr int kThreads = 6;
    constexpr int kOps = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&g, t] {
            // Half the threads push up by 2 and down by 1 per op, the
            // other half the reverse: net = kOps * (threads up - down).
            int64_t up = t % 2 == 0 ? 2 : 1;
            int64_t down = t % 2 == 0 ? 1 : 2;
            for (int i = 0; i < kOps; ++i) {
                g.add(up);
                g.add(-down);
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(g.value() - before, 0);
}

TEST(Histogram, ConcurrentRecordsCountAndSumExactly)
{
    Histogram &h = histogram("test.hist.concurrent");
    uint64_t beforeCount = h.count();
    uint64_t beforeSum = h.sum();
    constexpr int kThreads = 8;
    constexpr int kRecords = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h] {
            for (int i = 0; i < kRecords; ++i)
                h.record(static_cast<uint64_t>(i % 1000) + 1);
        });
    for (auto &t : threads)
        t.join();
    uint64_t perThreadSum = 0;
    for (int i = 0; i < kRecords; ++i)
        perThreadSum += static_cast<uint64_t>(i % 1000) + 1;
    EXPECT_EQ(h.count() - beforeCount,
              static_cast<uint64_t>(kThreads) * kRecords);
    EXPECT_EQ(h.sum() - beforeSum, kThreads * perThreadSum);
}

TEST(Histogram, BucketIndexAndMidpointRoundTrip)
{
    // Every bucket's midpoint must map back into that bucket, and
    // indices must be monotone in the value.
    for (uint32_t b = 0; b < Histogram::kBuckets; ++b) {
        double mid = Histogram::midpoint(b);
        if (mid < 1e18) { // representable exactly enough in double
            EXPECT_EQ(Histogram::bucketIndex(
                          static_cast<uint64_t>(mid)),
                      b)
                << "bucket " << b;
        }
    }
    uint32_t prev = 0;
    for (uint64_t v :
         {uint64_t(0), uint64_t(1), uint64_t(15), uint64_t(16),
          uint64_t(17), uint64_t(1000), uint64_t(1) << 20,
          (uint64_t(1) << 20) + 1, uint64_t(1) << 40,
          ~uint64_t(0)}) {
        uint32_t b = Histogram::bucketIndex(v);
        EXPECT_GE(b, prev);
        EXPECT_LT(b, Histogram::kBuckets);
        prev = b;
    }
}

TEST(Histogram, QuantilesMatchSortedReference)
{
    Histogram &h = histogram("test.hist.quantiles");
    ASSERT_EQ(h.count(), 0u) << "needs a fresh histogram name";
    Rng rng(0x7e1e);
    std::vector<uint64_t> samples;
    // Log-uniform spread across six decades: exercises many octaves.
    for (int i = 0; i < 20000; ++i) {
        double exponent = rng.uniform(0.0, 6.0);
        uint64_t v =
            static_cast<uint64_t>(std::pow(10.0, exponent)) + 1;
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        double ref =
            static_cast<double>(referenceQuantile(samples, q));
        double got = h.quantile(q);
        // The bucket holding the reference rank has <= 1/16 relative
        // width; the midpoint sits within half of that, plus one unit
        // of slack for the tiny-value buckets.
        double tol = ref / 16.0 + 1.0;
        EXPECT_NEAR(got, ref, tol) << "q=" << q;
    }
}

TEST(Histogram, SnapshotDeltaWindows)
{
    Histogram &h = histogram("test.hist.delta");
    for (int i = 0; i < 100; ++i)
        h.record(1000);
    HistogramSnapshot base = h.snapshot();
    for (int i = 0; i < 50; ++i)
        h.record(2000000);
    HistogramSnapshot delta = h.snapshot().since(base);
    EXPECT_EQ(delta.count(), 50u);
    EXPECT_EQ(delta.sum(), 50u * 2000000);
    // The window holds only the 2e6 samples; p50 must sit there, not
    // at the 1000 the full histogram is dominated by.
    EXPECT_NEAR(delta.quantile(0.5), 2000000.0, 2000000.0 / 16.0);
    EXPECT_NEAR(h.quantile(0.5), 1000.0, 1000.0 / 16.0 + 1.0);
}

TEST(Telemetry, SnapshotJsonContainsRegisteredMetrics)
{
    counter("test.snapshot.counter").add(7);
    gauge("test.snapshot.gauge").add(3);
    histogram("test.snapshot.hist").record(1234);
    std::string json = snapshotJson();
    EXPECT_NE(json.find("\"test.snapshot.counter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test.snapshot.gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.snapshot.hist\""), std::string::npos);
    // Structural sanity: balanced braces, object at top level.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, SpansNestAndAttributeThreads)
{
    ToggleGuard guard;
    setTracing(true);
    clearTrace();
    {
        TraceSpan outer("test.outer", "test");
        TraceSpan inner("test.inner", "test");
    }
    std::thread([] {
        TraceSpan span("test.worker", "test");
    }).join();
    setTracing(false);
    std::string json = traceJson();

    size_t outerPos = json.find("\"name\":\"test.outer\"");
    size_t innerPos = json.find("\"name\":\"test.inner\"");
    size_t workerPos = json.find("\"name\":\"test.worker\"");
    ASSERT_NE(outerPos, std::string::npos);
    ASSERT_NE(innerPos, std::string::npos);
    ASSERT_NE(workerPos, std::string::npos);

    // Same thread for the nested pair, a different one for the
    // spawned thread (its events were orphan-flushed at exit).
    long long outerTid = numberAfter(json, "tid", outerPos);
    long long innerTid = numberAfter(json, "tid", innerPos);
    long long workerTid = numberAfter(json, "tid", workerPos);
    EXPECT_EQ(outerTid, innerTid);
    EXPECT_NE(workerTid, outerTid);

    // The inner span closed before the outer: its duration is no
    // larger (both are emitted as complete "X" events).
    long long outerDur = numberAfter(json, "dur", outerPos);
    long long innerDur = numberAfter(json, "dur", innerPos);
    EXPECT_LE(innerDur, outerDur);

    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(json.find("\"traceEvents\""), 1u);
}

TEST(Trace, DisabledSpansEmitNothing)
{
    ToggleGuard guard;
    setTracing(true);
    clearTrace();
    setTracing(false);
    {
        TraceSpan span("test.silent", "test");
    }
    EXPECT_EQ(traceJson().find("test.silent"), std::string::npos);
}
