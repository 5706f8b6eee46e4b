/**
 * @file
 * Work-scheduling substrate: a fixed thread pool with futures-based
 * task submission, a blocking parallelFor, and deterministic
 * ordered-map/reduce helpers.
 *
 * This is the concurrency engine underneath the tile-granular pipeline:
 * the codec encodes every coded (band, tile) pair as one
 * orderedReduce() job, the systems layer fans per-band cloud removal,
 * change detection and scoring out, and the simulation layer fans whole
 * (location, system) runs across a constellation. All of them share one
 * process-wide pool (ThreadPool::global()) sized by the
 * EARTHPLUS_THREADS environment variable (default: hardware
 * concurrency).
 *
 * Determinism: parallelMap() writes result i into slot i and
 * orderedReduce() consumes results in index order, so the output of a
 * parallel run is byte-identical to a serial run regardless of thread
 * count or scheduling — the property the codec's golden test guards.
 *
 * Nesting: a parallel region entered from inside a pool worker (e.g.
 * the codec's tile loop reached from a per-location job) executes inline
 * on the calling thread instead of re-entering the pool, so nested
 * parallelism can never deadlock the fixed-size pool. A one-item
 * range is not a parallel region, so work nested inside it still
 * reaches the pool.
 */

#ifndef EARTHPLUS_UTIL_PARALLEL_HH
#define EARTHPLUS_UTIL_PARALLEL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace earthplus::util {

/**
 * Fixed-size worker pool.
 *
 * A pool with threadCount() == 1 runs every task inline on the calling
 * thread; no worker threads are spawned, which makes single-threaded
 * runs exactly the serial code path (useful for debugging and for the
 * speedup baselines in bench_fig16).
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count (clamped to >= 1). 1 means fully
     *        inline execution with no worker threads.
     */
    explicit ThreadPool(int threads);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of execution lanes (callers count as one at 1). */
    int threadCount() const { return threads_; }

    /** True when the calling thread is one of this pool's workers. */
    static bool onWorkerThread();

    /**
     * Submit one task; returns a future for its result.
     *
     * Tasks submitted from a worker thread of this pool run inline
     * (completed future) to avoid queue-wait deadlocks.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        if (threads_ <= 1 || onWorkerThread()) {
            (*task)();
            return fut;
        }
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Run body(i) for every i in [begin, end), blocking until all
     * iterations finish. The calling thread participates, so progress
     * is guaranteed even when every worker is busy elsewhere — helper
     * jobs are detached: one that the pool never gets around to
     * scheduling is simply a no-op once the caller has drained the
     * range, so completion never waits on a parked worker.
     *
     * Iterations are distributed dynamically in chunks of `grain`
     * (0 = pick automatically). The body must not assume any
     * particular execution order; use parallelMap()/orderedReduce()
     * when results must be assembled deterministically.
     *
     * A range of exactly one iteration runs the body directly WITHOUT
     * entering a nested-region scope: a lone item is not a parallel
     * region, and parallelism nested inside it (a one-job
     * core::runSimulationsBatch, whose encodes still spread tiles
     * across the pool) must still be able to reach the pool.
     *
     * The first exception thrown by any iteration is rethrown on the
     * calling thread after the loop drains.
     */
    void parallelFor(int64_t begin, int64_t end,
                     const std::function<void(int64_t)> &body,
                     int64_t grain = 0);

    /**
     * The process-wide pool, created on first use with
     * defaultThreadCount() lanes.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of `threads` lanes. Intended
     * for benchmarks sweeping thread counts; must not race with tasks
     * in flight on the old pool.
     */
    static void setGlobalThreads(int threads);

    /** EARTHPLUS_THREADS when set (>= 1), else hardware concurrency. */
    static int defaultThreadCount();

  private:
    /** Queued task plus its submission stamp for the wait histogram. */
    struct Job
    {
        std::function<void()> fn;
        uint64_t enqueueNs = 0;
    };

    void enqueue(std::function<void()> job);
    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    std::deque<Job> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Bounded single-worker queue for best-effort background tasks.
 *
 * ThreadPool::submit() is the wrong tool for optional work kicked off
 * from inside a pool job: submission from a worker thread executes
 * inline, which would serialize the optional work into the latency
 * path that tried to offload it. A BackgroundQueue owns one dedicated
 * thread; post() never executes inline and never blocks — when the
 * queue is at capacity the task is dropped (post() returns false so
 * the caller can count it), which is the right failure mode for hints
 * (the ground tile server's prefetch and refine warmups are the
 * canonical user: a dropped warmup only costs a future cache miss).
 *
 * Tasks execute as a nested parallel region (onWorkerThread() is true
 * inside them): background work runs its parallel regions inline
 * rather than competing with (or deadlocking against) the pool's
 * foreground jobs.
 *
 * Destruction stops the worker after the task in flight finishes;
 * queued-but-unstarted tasks are discarded.
 */
class BackgroundQueue
{
  public:
    /** @param maxDepth Tasks held before post() starts dropping. */
    explicit BackgroundQueue(size_t maxDepth = 16);

    ~BackgroundQueue();

    BackgroundQueue(const BackgroundQueue &) = delete;
    BackgroundQueue &operator=(const BackgroundQueue &) = delete;

    /**
     * Enqueue a task for the worker thread.
     *
     * @return False when the queue was full and the task was dropped.
     */
    bool post(std::function<void()> task);

    /** Block until the queue is empty and the worker is idle. */
    void drain();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::deque<std::function<void()>> queue_;
    size_t maxDepth_;
    bool stop_ = false;
    bool busy_ = false;
    std::thread worker_;
};

/**
 * Deterministic parallel map: out[i] = fn(i) for i in [0, n), computed
 * in parallel, returned in index order. R must be default- and
 * move-constructible.
 */
template <typename Fn>
auto
parallelMap(ThreadPool &pool, size_t n, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, size_t>>
{
    using R = std::invoke_result_t<Fn &, size_t>;
    std::vector<R> out(n);
    pool.parallelFor(0, static_cast<int64_t>(n), [&](int64_t i) {
        out[static_cast<size_t>(i)] = fn(static_cast<size_t>(i));
    });
    return out;
}

/** parallelMap() on the global pool. */
template <typename Fn>
auto
parallelMap(size_t n, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, size_t>>
{
    return parallelMap(ThreadPool::global(), n, std::forward<Fn>(fn));
}

/**
 * Deterministic ordered reduce: produce(i) runs in parallel for every
 * i in [0, n); consume(i, result) then runs serially on the calling
 * thread in strictly increasing index order. This is how the codec
 * assembles per-tile entropy chunks into byte-identical streams.
 *
 * Lanes claim one item at a time: an item is a whole job (a codec
 * tile, tens to hundreds of microseconds), so single-item chunks keep
 * the lanes' finishing times close at negligible claiming cost.
 */
template <typename Produce, typename Consume>
void
orderedReduce(ThreadPool &pool, size_t n, Produce &&produce,
              Consume &&consume)
{
    using R = std::invoke_result_t<Produce &, size_t>;
    std::vector<R> results(n);
    pool.parallelFor(
        0, static_cast<int64_t>(n),
        [&](int64_t i) {
            results[static_cast<size_t>(i)] =
                produce(static_cast<size_t>(i));
        },
        1);
    for (size_t i = 0; i < n; ++i)
        consume(i, std::move(results[i]));
}

/** orderedReduce() on the global pool. */
template <typename Produce, typename Consume>
void
orderedReduce(size_t n, Produce &&produce, Consume &&consume)
{
    orderedReduce(ThreadPool::global(), n, std::forward<Produce>(produce),
                  std::forward<Consume>(consume));
}

} // namespace earthplus::util

#endif // EARTHPLUS_UTIL_PARALLEL_HH
