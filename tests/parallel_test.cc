/**
 * @file
 * Unit tests for the thread-pool work-scheduling substrate: submit,
 * parallelFor coverage and exception propagation, deterministic
 * parallelMap/orderedReduce, nesting and its fan-out counters, and the
 * global-pool knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/parallel.hh"
#include "util/telemetry.hh"

using namespace earthplus::util;

TEST(ThreadPool, SubmitReturnsFutureResult)
{
    ThreadPool pool(4);
    auto f = pool.submit([] { return 21 * 2; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SingleLanePoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::thread::id caller = std::this_thread::get_id();
    auto f = pool.submit([caller] {
        return std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(f.get());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const int64_t n = 10007; // prime, exercises ragged chunking
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallelFor(5, 5, [&](int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(5, 6, [&](int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](int64_t i) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, [&](int64_t) {
        pool.parallelFor(0, 8, [&](int64_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    ThreadPool pool(4);
    auto out = parallelMap(pool, 1000,
                           [](size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 1000u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, OrderedReduceConsumesInIncreasingOrder)
{
    ThreadPool pool(4);
    std::vector<size_t> consumed;
    orderedReduce(
        pool, 257, [](size_t i) { return i * i; },
        [&](size_t i, size_t v) {
            EXPECT_EQ(v, i * i);
            consumed.push_back(i);
        });
    ASSERT_EQ(consumed.size(), 257u);
    for (size_t i = 0; i < consumed.size(); ++i)
        ASSERT_EQ(consumed[i], i);
}

TEST(ThreadPool, GlobalPoolResizes)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3);
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
    EXPECT_EQ(ThreadPool::global().threadCount(),
              ThreadPool::defaultThreadCount());
}

namespace {

uint64_t
fanOuts()
{
    return earthplus::telemetry::counter("pool.parallel_for.fanout").value();
}

uint64_t
serialRegions()
{
    return earthplus::telemetry::counter("pool.parallel_for.serial").value();
}

} // namespace

TEST(ThreadPool, ParallelForCountsFanOuts)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    auto body = [&](int64_t) { count.fetch_add(1); };

    // Multi-lane pool, real range: fans out.
    uint64_t fan0 = fanOuts();
    uint64_t serial0 = serialRegions();
    pool.parallelFor(0, 100, body);
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(fanOuts() - fan0, 1u);
    EXPECT_EQ(serialRegions() - serial0, 0u);

    // Empty and single-iteration ranges are no parallel region at
    // all, but a single iteration still executes.
    count.store(0);
    fan0 = fanOuts();
    serial0 = serialRegions();
    pool.parallelFor(3, 3, body);
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(3, 4, body);
    EXPECT_EQ(count.load(), 1);
    EXPECT_EQ(fanOuts() - fan0, 0u);
    EXPECT_EQ(serialRegions() - serial0, 0u);

    // Single-lane pool: a serial region.
    ThreadPool serial(1);
    count.store(0);
    fan0 = fanOuts();
    serial0 = serialRegions();
    serial.parallelFor(0, 100, body);
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(fanOuts() - fan0, 0u);
    EXPECT_EQ(serialRegions() - serial0, 1u);

    // Nested regions (inside an iteration of a fanned-out loop) run
    // serially: one fan-out for the outer loop, one serial region per
    // inner loop.
    fan0 = fanOuts();
    serial0 = serialRegions();
    pool.parallelFor(0, 8, [&](int64_t) {
        pool.parallelFor(0, 8, [](int64_t) {});
    });
    EXPECT_EQ(fanOuts() - fan0, 1u);
    EXPECT_EQ(serialRegions() - serial0, 8u);
}

TEST(ThreadPool, SingleIterationDoesNotBlockNestedFanOut)
{
    // A one-item parallelFor is not a parallel region: work nested
    // inside it (the chunk fan-out of a lone coded tile) must still
    // reach the pool instead of silently serializing.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    uint64_t fan0 = fanOuts();
    uint64_t serial0 = serialRegions();
    pool.parallelFor(0, 1, [&](int64_t) {
        pool.parallelFor(0, 64, [&](int64_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(fanOuts() - fan0, 1u);
    EXPECT_EQ(serialRegions() - serial0, 0u);
}

TEST(ThreadPool, ParallelForCompletesWhileWorkersAreParked)
{
    // Helper jobs are detached: a parallelFor whose helpers never get
    // scheduled — here the pool's only worker is parked on a future
    // that THIS thread will fulfil afterwards — must still complete
    // via the caller's own drain. The tile server relies on this to
    // fan decode work while holding coalescing claims.
    ThreadPool pool(2); // one worker thread besides the caller
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::promise<void> parked;
    pool.submit([&parked, opened] {
        parked.set_value();
        opened.wait();
    });
    parked.get_future().wait(); // worker is now committed to the gate
    std::atomic<int> count{0};
    pool.parallelFor(0, 100, [&](int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
    gate.set_value(); // release the worker so the pool can shut down
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
}

// --------------------------------------------------- background queue

TEST(BackgroundQueue, ExecutesPostedTasksAndDrains)
{
    BackgroundQueue queue(8);
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(queue.post([&ran] { ran.fetch_add(1); }));
    queue.drain();
    EXPECT_EQ(ran.load(), 5);
}

TEST(BackgroundQueue, DropsWhenFullInsteadOfBlocking)
{
    BackgroundQueue queue(2);
    // Park the worker on a gate so the queue depth is deterministic.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::atomic<bool> started{false};
    ASSERT_TRUE(queue.post([opened, &started] {
        started.store(true);
        opened.wait();
    }));
    while (!started.load())
        std::this_thread::yield();

    // Worker busy, queue empty: exactly maxDepth more posts fit.
    std::atomic<int> ran{0};
    EXPECT_TRUE(queue.post([&ran] { ran.fetch_add(1); }));
    EXPECT_TRUE(queue.post([&ran] { ran.fetch_add(1); }));
    EXPECT_FALSE(queue.post([&ran] { ran.fetch_add(1); })); // dropped

    gate.set_value();
    queue.drain();
    EXPECT_EQ(ran.load(), 2);
}

TEST(BackgroundQueue, SurvivesThrowingTasks)
{
    BackgroundQueue queue(4);
    std::atomic<int> ran{0};
    EXPECT_TRUE(queue.post([] {
        throw std::runtime_error("best-effort task failure");
    }));
    EXPECT_TRUE(queue.post([&ran] { ran.fetch_add(1); }));
    queue.drain();
    // The throwing task was contained; later tasks still run.
    EXPECT_EQ(ran.load(), 1);
}

TEST(BackgroundQueue, TasksRunInsideAnInlineRegion)
{
    // Background tasks must not fan work into the pool (they could
    // deadlock against foreground jobs waiting on their results), so
    // the worker thread counts as a nested parallel region.
    BackgroundQueue queue(4);
    std::atomic<bool> nested{false};
    queue.post([&nested] {
        nested.store(ThreadPool::onWorkerThread());
    });
    queue.drain();
    EXPECT_TRUE(nested.load());
}
