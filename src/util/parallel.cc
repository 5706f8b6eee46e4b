#include "util/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace earthplus::util {

namespace {

/**
 * Pool/queue metrics, resolved once. Registry entries are process-wide
 * and leaked, so the references stay valid for the program's lifetime.
 */
struct PoolMetrics
{
    telemetry::Gauge &queueDepth =
        telemetry::gauge("pool.queue_depth");
    telemetry::Histogram &taskWaitNs =
        telemetry::histogram("pool.task_wait_ns");
    telemetry::Counter &tasks = telemetry::counter("pool.tasks");
    telemetry::Counter &fanouts =
        telemetry::counter("pool.parallel_for.fanout");
    telemetry::Counter &serials =
        telemetry::counter("pool.parallel_for.serial");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics m;
    return m;
}

/** BackgroundQueue metrics; same lifetime story as PoolMetrics. */
struct BgMetrics
{
    telemetry::Gauge &queueDepth = telemetry::gauge("bg.queue_depth");
    telemetry::Counter &tasks = telemetry::counter("bg.tasks");
    telemetry::Counter &dropped = telemetry::counter("bg.dropped");
};

BgMetrics &
bgMetrics()
{
    static BgMetrics m;
    return m;
}

/**
 * Depth of parallel regions on the current thread: > 0 inside a pool
 * worker's lifetime or while a thread is executing parallelFor
 * iterations. Nested regions run inline instead of re-entering the
 * pool.
 */
thread_local int tlsParallelDepth = 0;

struct DepthGuard
{
    DepthGuard() { ++tlsParallelDepth; }
    ~DepthGuard() { --tlsParallelDepth; }
};

std::mutex gGlobalMutex;
std::unique_ptr<ThreadPool> gGlobalPool;

} // anonymous namespace

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1))
{
    // Lane 0 is the calling thread; spawn the remaining lanes.
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::onWorkerThread()
{
    return tlsParallelDepth > 0;
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    Job entry;
    entry.fn = std::move(job);
    entry.enqueueNs = telemetry::nowNanos();
    poolMetrics().queueDepth.add(1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(entry));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    DepthGuard depth; // everything a worker runs counts as nested
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        PoolMetrics &m = poolMetrics();
        m.queueDepth.add(-1);
        m.taskWaitNs.record(telemetry::nowNanos() - job.enqueueNs);
        m.tasks.add();
        telemetry::TraceSpan span("pool.task", "pool");
        job.fn();
    }
}

namespace {

/**
 * Shared state of one parallelFor invocation. Helpers hold it via
 * shared_ptr, so a helper the pool schedules only after the caller
 * has already returned finds the range exhausted and exits without
 * ever touching the (by then destroyed) caller stack — the body is
 * copied in here, never borrowed.
 */
struct ForState
{
    std::function<void(int64_t)> body;
    std::atomic<int64_t> next{0};
    int64_t end = 0;
    int64_t grain = 1;
    std::atomic<bool> firstError{false};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable cv;
    int active = 0; ///< Helpers currently inside drainFor().
};

void
drainFor(ForState &s)
{
    DepthGuard depth;
    for (;;) {
        int64_t i0 = s.next.fetch_add(s.grain);
        if (i0 >= s.end)
            return;
        int64_t i1 = std::min(i0 + s.grain, s.end);
        try {
            for (int64_t i = i0; i < i1; ++i)
                s.body(i);
        } catch (...) {
            if (!s.firstError.exchange(true))
                s.error = std::current_exception();
            s.next.store(s.end); // cancel remaining chunks
            return;
        }
    }
}

} // anonymous namespace

void
ThreadPool::parallelFor(int64_t begin, int64_t end,
                        const std::function<void(int64_t)> &body,
                        int64_t grain)
{
    int64_t count = end - begin;
    if (count <= 0)
        return;

    // A lone iteration is not a parallel region: run it directly with
    // no depth marker, so parallelism nested inside it still reaches
    // the pool.
    if (count == 1) {
        body(begin);
        return;
    }

    // A multi-iteration region is a "pool.parallel_for" span whether
    // it fans out or degrades to the serial path — single-lane hosts
    // still show the region in traces.
    telemetry::TraceSpan span("pool.parallel_for", "pool");

    // Serial path: single-lane pool or nested region.
    if (threads_ <= 1 || tlsParallelDepth > 0) {
        poolMetrics().serials.add();
        DepthGuard depth;
        for (int64_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    poolMetrics().fanouts.add();

    if (grain <= 0)
        grain = std::max<int64_t>(
            1, count / (static_cast<int64_t>(threads_) * 4));

    auto state = std::make_shared<ForState>();
    state->body = body;
    state->next.store(begin);
    state->end = end;
    state->grain = grain;

    // One detached helper per extra lane (bounded by the chunk count).
    // The caller drains chunks itself, so by the time its own drain
    // returns the range is exhausted; it then waits only for helpers
    // that actually STARTED draining. A helper the pool never ran —
    // every worker parked on futures only this thread will fulfil,
    // the scenario behind the tile server's coalesced decode — runs
    // later as a no-op instead of deadlocking the caller, which is
    // why completion never depends on helper scheduling.
    int64_t chunks = (count + grain - 1) / grain;
    int helpers = static_cast<int>(
        std::min<int64_t>(threads_ - 1, chunks - 1));
    for (int i = 0; i < helpers; ++i) {
        enqueue([state] {
            {
                std::lock_guard<std::mutex> lock(state->mutex);
                ++state->active;
            }
            drainFor(*state);
            {
                std::lock_guard<std::mutex> lock(state->mutex);
                --state->active;
            }
            state->cv.notify_all();
        });
    }
    drainFor(*state);
    {
        // Any helper that claimed work incremented `active` before its
        // first chunk claim; once our own drain saw the range
        // exhausted, helpers arriving later cannot claim anything, so
        // waiting for active == 0 covers every body() in flight.
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv.wait(lock, [&] { return state->active == 0; });
    }
    if (state->firstError.load())
        std::rethrow_exception(state->error);
}

BackgroundQueue::BackgroundQueue(size_t maxDepth)
    : maxDepth_(std::max<size_t>(maxDepth, 1)),
      worker_([this] { workerLoop(); })
{
}

BackgroundQueue::~BackgroundQueue()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        // Unstarted tasks are best-effort: discard (and keep the depth
        // gauge honest about the tasks that will never run).
        bgMetrics().queueDepth.add(
            -static_cast<int64_t>(queue_.size()));
        queue_.clear();
    }
    cv_.notify_all();
    idleCv_.notify_all(); // wake drain()ers blocked on idleness
    worker_.join();
}

bool
BackgroundQueue::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_)
            return false;
        if (queue_.size() >= maxDepth_) {
            bgMetrics().dropped.add();
            return false;
        }
        queue_.push_back(std::move(task));
    }
    bgMetrics().queueDepth.add(1);
    cv_.notify_one();
    return true;
}

void
BackgroundQueue::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] {
        return (queue_.empty() && !busy_) || stop_;
    });
}

void
BackgroundQueue::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            busy_ = true;
        }
        bgMetrics().queueDepth.add(-1);
        bgMetrics().tasks.add();
        // Tasks are best-effort by contract: an escaping exception
        // must not terminate the process via the worker thread. They
        // also run as a nested parallel region (see the class docs).
        try {
            DepthGuard depth;
            telemetry::TraceSpan span("bg.task", "bg");
            task();
        } catch (const std::exception &e) {
            warn("background task failed: %s", e.what());
        } catch (...) {
            warn("background task failed with a non-standard exception");
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            busy_ = false;
        }
        idleCv_.notify_all();
    }
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(gGlobalMutex);
    if (!gGlobalPool)
        gGlobalPool = std::make_unique<ThreadPool>(defaultThreadCount());
    return *gGlobalPool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    EP_ASSERT(threads >= 1, "thread count %d must be >= 1", threads);
    std::lock_guard<std::mutex> lock(gGlobalMutex);
    gGlobalPool = std::make_unique<ThreadPool>(threads);
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("EARTHPLUS_THREADS")) {
        int n = std::atoi(env);
        if (n >= 1)
            return n;
        warn("ignoring invalid EARTHPLUS_THREADS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

} // namespace earthplus::util
