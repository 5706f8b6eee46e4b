#include "serve.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "net/client.hh"
#include "net/server.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace earthplus;
using ground::ServeError;
using ground::TileQuery;
using ground::TileResult;

namespace {

/** A uniformly placed rectangle of the query edge. */
void
placeRect(TileQuery &q, int imageSize, Rng &rng)
{
    int edge = std::min(kQueryEdge, imageSize);
    q.width = edge;
    q.height = edge;
    q.x0 = static_cast<int>(rng.uniformInt(0, imageSize - edge));
    q.y0 = static_cast<int>(rng.uniformInt(0, imageSize - edge));
}

/** Uniform (location, band, day) over the archived history. */
TileQuery
uniformQuery(const Domain &d, Rng &rng)
{
    TileQuery q;
    q.locationId = d.locations[static_cast<size_t>(rng.uniformInt(
        0, static_cast<int64_t>(d.locations.size()) - 1))];
    q.band = static_cast<int>(rng.uniformInt(0, d.bands - 1));
    const std::vector<double> &days = d.days.at(q.locationId);
    q.day = rng.uniform(days.front(), days.back());
    placeRect(q, d.imageSize, rng);
    return q;
}

bool
samePixels(const raster::Plane &a, const raster::Plane &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

/**
 * The serve_net_mixed query stream: Zipf(1.1) over locations, 75%
 * forward day-walks per location, otherwise a jump to a recent capture
 * day (the k-th newest, k exponential with mean 6), uniform band,
 * 25% of queries with quality = 25. Held-back captures join a
 * location's days once the writer has landed them.
 */
class MixedGenerator
{
  public:
    MixedGenerator(const Domain &d, uint64_t seed) : d_(d), rng_(seed)
    {
        double total = 0.0;
        for (size_t i = 0; i < d.locations.size(); ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
        for (size_t g = 0; g < d.heldCaptures.size(); ++g)
            held_[d.heldCaptures[g].first].push_back(
                {g, d.heldCaptures[g].second});
    }

    /** Next query given that the first `landed` held captures landed. */
    TileQuery
    next(size_t landed, bool &quality)
    {
        TileQuery q;
        double u = rng_.uniform();
        size_t li = 0;
        while (li + 1 < cdf_.size() && u > cdf_[li])
            ++li;
        q.locationId = d_.locations[li];
        const std::vector<double> &base = d_.days.at(q.locationId);
        const auto &held = held_[q.locationId];
        size_t nHeld = 0;
        while (nHeld < held.size() && held[nHeld].first < landed)
            ++nHeld;
        size_t n = base.size() + nHeld;
        auto it = cursor_.find(q.locationId);
        size_t idx;
        if (it != cursor_.end() && it->second + 1 < n &&
            rng_.bernoulli(0.75)) {
            idx = it->second + 1;
        } else {
            size_t back = static_cast<size_t>(rng_.exponential(1.0 / 6.0));
            idx = n - 1 - std::min(back, n - 1);
        }
        cursor_[q.locationId] = idx;
        q.day = idx < base.size() ? base[idx] : held[idx - base.size()].second;
        q.band = static_cast<int>(rng_.uniformInt(0, d_.bands - 1));
        placeRect(q, d_.imageSize, rng_);
        quality = rng_.bernoulli(0.25);
        if (quality)
            q.quality = 25;
        return q;
    }

  private:
    const Domain &d_;
    Rng rng_;
    std::vector<double> cdf_;
    std::map<int, std::vector<std::pair<size_t, double>>> held_;
    std::map<int, size_t> cursor_;
};

} // namespace

Domain
domainOf(const ground::Archive &archive, int imageSize, int bands)
{
    Domain d;
    d.imageSize = imageSize;
    d.bands = bands;
    std::map<int, std::set<double>> days;
    for (const auto &[loc, band] : archive.keys())
        if (band == 0)
            for (const auto &[id, meta] : archive.chainEntries(loc, band))
                days[loc].insert(meta.captureDay);
    for (const auto &[loc, set] : days) {
        d.locations.push_back(loc);
        d.days[loc] = std::vector<double>(set.begin(), set.end());
    }
    return d;
}

uint64_t
pixelDigest(const raster::Plane &p, uint64_t h)
{
    int32_t dims[2] = {p.width(), p.height()};
    h = fnv1a(dims, sizeof dims, h);
    return fnv1a(p.data().data(), p.size() * sizeof(float), h);
}

ColdResult
runColdClients(ground::TileServer &server, const Domain &domain,
               uint64_t seed, double seconds, int clients, Layers &layers,
               const std::function<void()> &tick)
{
    struct PerClient
    {
        uint64_t completed = 0;
        uint64_t failed = 0;
        TimedSamples ms;
        std::vector<Served> sample;
        uint64_t digest = fnv1a(nullptr, 0);
    };
    // Every 97th result is kept for verification, up to this many.
    constexpr size_t kSamplePerClient = 64;
    std::vector<PerClient> per(static_cast<size_t>(clients));
    std::atomic<bool> go{false};
    double start = 0.0, deadline = 0.0;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            PerClient &me = per[static_cast<size_t>(c)];
            Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c));
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (uint64_t i = 0; nowSec() < deadline; ++i) {
                TileQuery q = uniformQuery(domain, rng);
                TileResult r;
                double t0 = nowSec();
                {
                    telemetry::TraceSpan span("ground.serve_call", "ground");
                    r = server.serve(q);
                }
                double t1 = nowSec();
                me.ms.add(t1 - start, (t1 - t0) * 1000.0);
                if (!r.ok()) {
                    ++me.failed;
                    continue;
                }
                ++me.completed;
                if (i < kDigestQueries)
                    me.digest = pixelDigest(r.pixels, me.digest);
                if (i % 97 == 0 && me.sample.size() < kSamplePerClient)
                    me.sample.push_back({q, std::move(r.pixels)});
            }
        });
    double t0 = nowSec();
    start = t0;
    deadline = t0 + seconds;
    go.store(true, std::memory_order_release);
    while (tick && nowSec() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        tick();
    }
    for (auto &t : threads)
        t.join();

    ColdResult out;
    out.wallSec = nowSec() - t0;
    out.digest = fnv1a(nullptr, 0);
    for (PerClient &p : per) {
        out.completed += p.completed;
        out.failed += p.failed;
        out.ms.append(p.ms);
        out.digest = fnv1a(&p.digest, sizeof p.digest, out.digest);
        for (Served &s : p.sample)
            out.sample.push_back(std::move(s));
    }
    layers.addTimes("ground.serve_call", out.ms.all());
    return out;
}

OpenLoopResult
runOpenLoop(net::TileClient &client, const Domain &domain,
            const OpenLoopOptions &opt, Layers &layers)
{
    OpenLoopResult out;
    if (!client.connected() && !client.reconnect()) {
        out.failed = 1;
        return out;
    }

    // The Poisson schedule, fixed before the phase starts.
    std::vector<uint64_t> sched;
    Rng arrivals(opt.seed ^ 0xa221a1ULL);
    for (double t = arrivals.exponential(opt.rate);
         opt.replay ? sched.size() < opt.replay->size() : t < opt.seconds;
         t += arrivals.exponential(opt.rate))
        sched.push_back(static_cast<uint64_t>(t * 1e9));
    const size_t n = sched.size();
    out.sent = n;
    if (n == 0)
        return out;

    std::vector<TileQuery> queries(n);
    std::vector<uint8_t> quality(n, 0);
    std::vector<int64_t> latencyNs(n, -1);
    std::vector<uint64_t> serveNs(n, 0);
    std::vector<uint8_t> status(n, 0);
    std::vector<double> lateMs(n, 0.0);
    std::vector<raster::Plane> kept(n);
    std::atomic<size_t> landed{0};

    // Writer: held captures (all bands of one capture back to back) at
    // an even pace over the first 80% of the phase.
    std::vector<std::vector<const HeldRecord *>> groups;
    if (opt.held && opt.writable) {
        for (const HeldRecord &r : *opt.held) {
            if (groups.empty() ||
                groups.back().front()->meta.captureDay != r.meta.captureDay ||
                groups.back().front()->meta.locationId != r.meta.locationId)
                groups.emplace_back();
            groups.back().push_back(&r);
        }
    }

    const uint64_t start = telemetry::nowNanos() + 2'000'000;
    std::thread writer([&] {
        double interval = groups.empty()
                              ? 0.0
                              : 0.8 * opt.seconds * 1e9 /
                                    static_cast<double>(groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
            uint64_t due = start + static_cast<uint64_t>(g * interval);
            uint64_t now = telemetry::nowNanos();
            if (due > now)
                std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            for (const HeldRecord *r : groups[g]) {
                LayerCall call(layers, "archive.append", "archive");
                opt.writable->append(r->meta, r->payload);
            }
            out.appends += groups[g].size();
            landed.store(g + 1, std::memory_order_release);
        }
    });
    std::thread receiver([&] {
        for (size_t got = 0; got < n; ++got) {
            TileResult r;
            uint64_t id = 0;
            if (!client.receive(r, &id) || id == 0 || id > n)
                return;
            size_t idx = static_cast<size_t>(id - 1);
            latencyNs[idx] = static_cast<int64_t>(telemetry::nowNanos()) -
                             static_cast<int64_t>(start + sched[idx]);
            serveNs[idx] = r.serveNs;
            status[idx] = static_cast<uint8_t>(r.error);
            if (opt.sampleEvery > 0 && idx % opt.sampleEvery == 0 && r.ok())
                kept[idx] = std::move(r.pixels);
        }
    });

    std::atomic<bool> done{false};
    std::thread ticker([&] {
        while (opt.tick && !done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
            opt.tick();
        }
    });
    std::unique_ptr<MixedGenerator> gen;
    if (!opt.replay)
        gen = std::make_unique<MixedGenerator>(domain, opt.seed);
    for (size_t i = 0; i < n; ++i) {
        // Sleep to just short of the deadline, then yield: oversleep
        // would count as latency, and spinning would starve the server
        // on a small host.
        uint64_t due = start + sched[i];
        for (;;) {
            uint64_t now = telemetry::nowNanos();
            if (now >= due)
                break;
            if (due - now > 300'000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now - 300'000));
            else
                std::this_thread::yield();
        }
        bool q = false;
        if (gen) {
            queries[i] = gen->next(landed.load(std::memory_order_acquire), q);
        } else {
            queries[i] = (*opt.replay)[i];
            q = queries[i].quality >= 0;
        }
        quality[i] = q ? 1 : 0;
        lateMs[i] = static_cast<double>(telemetry::nowNanos() - due) / 1e6;
        if (!client.send(queries[i], static_cast<uint64_t>(i + 1)))
            break;
    }
    receiver.join();
    writer.join();
    done.store(true, std::memory_order_release);
    ticker.join();
    out.wallSec = static_cast<double>(telemetry::nowNanos() - start) / 1e9;

    for (size_t i = 0; i < n; ++i) {
        out.lateMs.add(lateMs[i]);
        auto err = static_cast<ServeError>(status[i]);
        if (latencyNs[i] < 0) {
            ++out.failed;
            continue;
        }
        if (err == ServeError::Shed) {
            ++out.shed;
            ++out.failed;
            continue;
        }
        if (err != ServeError::None && err != ServeError::Truncated) {
            ++out.failed;
            continue;
        }
        ++out.completed;
        double ms = static_cast<double>(latencyNs[i]) / 1e6;
        out.latencyMs.add(static_cast<double>(sched[i]) / 1e9, ms);
        out.wireMs.add(std::max(0.0, ms - static_cast<double>(serveNs[i]) / 1e6));
        if (quality[i])
            out.qualityMs.add(ms);
        if (!kept[i].empty()) {
            out.sample.push_back({queries[i], std::move(kept[i])});
            out.sampleIndex.push_back(i);
        }
    }
    if (out.failed > 0 && !client.connected())
        client.reconnect();
    return out;
}

SaturationResult
runSaturation(net::TileClient &client, const Domain &domain, double seconds,
              int window, uint64_t seed)
{
    SaturationResult out;
    if (!client.connected() && !client.reconnect()) {
        out.failed = 1;
        return out;
    }
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> received{0};
    std::atomic<bool> done{false};
    std::atomic<bool> broken{false};
    std::atomic<uint64_t> bad{0};
    std::thread receiver([&] {
        uint64_t got = 0;
        for (;;) {
            if (done.load(std::memory_order_acquire) &&
                got >= sent.load(std::memory_order_acquire))
                return;
            if (got >= sent.load(std::memory_order_acquire)) {
                std::this_thread::yield();
                continue;
            }
            TileResult r;
            if (!client.receive(r)) {
                broken.store(true);
                return;
            }
            if (!r.ok())
                bad.fetch_add(1);
            received.store(++got, std::memory_order_release);
        }
    });
    MixedGenerator gen(domain, seed);
    const size_t allLanded = domain.heldCaptures.size();
    const double t0 = nowSec(), deadline = t0 + seconds;
    uint64_t n = 0;
    while (nowSec() < deadline && !broken.load()) {
        if (n - received.load(std::memory_order_acquire) >=
            static_cast<uint64_t>(window)) {
            // Window full: back off rather than spin on a core the
            // server needs.
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            continue;
        }
        bool quality = false;
        if (!client.send(gen.next(allLanded, quality), n + 1))
            break;
        sent.store(++n, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
    receiver.join();
    double wall = nowSec() - t0;
    uint64_t got = received.load();
    out.sent = n;
    out.failed = (n - got) + bad.load();
    out.qps = wall > 0.0 ? static_cast<double>(got - bad.load()) / wall : 0.0;
    if (!client.connected())
        client.reconnect();
    return out;
}

CapacityResult
searchCapacity(net::TileClient &client, const Domain &domain, double start,
               double limitMs, double rungSeconds, uint64_t seed,
               Layers &layers)
{
    CapacityResult out;
    int rung = 0;
    auto passes = [&](double rate) {
        OpenLoopOptions opt;
        opt.rate = rate;
        opt.seconds = rungSeconds;
        opt.seed = seed + static_cast<uint64_t>(++rung) * 0x51ed;
        OpenLoopResult r = runOpenLoop(client, domain, opt, layers);
        double p99 = r.latencyMs.all().quantile(0.99);
        double late = r.lateMs.quantile(0.99);
        bool ok = r.failed == 0 && r.completed == r.sent && p99 <= limitMs &&
                  late <= 1.0;
        out.ladder.push_back(fmt(rate, 0) + "/s: p99 " + fmt(p99, 2) +
                             " ms, shed " + std::to_string(r.shed) +
                             ", failed " + std::to_string(r.failed) +
                             ", late p99 " + fmt(late, 2) + " ms -> " +
                             (ok ? "pass" : "fail"));
        return ok;
    };
    double lo = 0.0, hi = 0.0, rate = start;
    while (hi == 0.0 && rung < 8) {
        if (passes(rate)) {
            lo = rate;
            rate *= 2.0;
        } else {
            hi = rate;
        }
    }
    while (lo == 0.0 && rung < 10) {
        rate = hi / 2.0;
        if (passes(rate))
            lo = rate;
        else
            hi = rate;
    }
    while (lo > 0.0 && hi > 0.0 && hi / lo > 1.1 && rung < 16) {
        double mid = std::sqrt(lo * hi);
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
    }
    out.capacity = lo;
    return out;
}

std::vector<Served>
probeQueries(const ground::Archive &archive, const Domain &domain,
             uint64_t seed, int count, Layers &layers)
{
    ground::TileServer server(archive);
    Rng rng(seed ^ 0x9b0be5ULL);
    std::vector<Served> out;
    for (int i = 0; i < count; ++i) {
        TileQuery q = uniformQuery(domain, rng);
        if (i % 4 == 0)
            q.quality = 25;
        TileResult r;
        {
            LayerCall call(layers, "ground.serve_call", "ground");
            r = server.serve(q);
        }
        out.push_back({q, r.ok() ? std::move(r.pixels) : raster::Plane()});
    }
    server.waitForPrefetchIdle();
    return out;
}

OpenLoopResult
verifySample(const ground::Archive &archive, const std::vector<Served> &sample,
             Layers &layers, Report &report)
{
    ground::TileServerOptions bare;
    bare.cacheBytes = 0;
    bare.prefetch = false;
    ground::TileServer server(archive, bare);
    size_t local = 0, remote = 0;
    for (const Served &s : sample) {
        TileResult r;
        {
            LayerCall call(layers, "ground.serve_call", "ground");
            r = server.serve(s.query);
        }
        if (r.ok() && !s.pixels.empty() && samePixels(r.pixels, s.pixels))
            ++local;
    }

    OpenLoopResult replayed;
    net::Server front(server);
    net::TileClient client;
    if (front.start() && client.connect("127.0.0.1", front.port())) {
        std::vector<TileQuery> queries;
        for (const Served &s : sample)
            queries.push_back(s.query);
        OpenLoopOptions opt;
        opt.rate = 200.0;
        opt.replay = &queries;
        opt.sampleEvery = 1;
        replayed = runOpenLoop(client, Domain(), opt, layers);
        for (size_t k = 0; k < replayed.sample.size(); ++k) {
            const Served &want = sample[replayed.sampleIndex[k]];
            if (!want.pixels.empty() &&
                samePixels(replayed.sample[k].pixels, want.pixels))
                ++remote;
        }
    }
    client.close();
    front.stop();
    report.check(!sample.empty(), "verification sample is empty");
    report.check(local == sample.size(),
                 "cache-less re-serve differs on " +
                     std::to_string(sample.size() - local) + " of " +
                     std::to_string(sample.size()) + " sampled queries");
    report.check(remote == sample.size(),
                 "EPT re-serve differs on " +
                     std::to_string(sample.size() - remote) + " of " +
                     std::to_string(sample.size()) + " sampled queries");
    report.note("verified " + std::to_string(sample.size()) +
                " sampled queries bit for bit (cache-less in-process and EPT)");
    return replayed;
}

} // namespace perfbench
