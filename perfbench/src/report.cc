#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <sys/resource.h>

#include "bench.hh"

namespace perfbench {

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : v_)
        s += v;
    return s;
}

double
Samples::mean() const
{
    return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> sorted = v_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

Samples
TimedSamples::all() const
{
    Samples out;
    for (const auto &[t, v] : v_)
        out.add(v);
    return out;
}

double
TimedSamples::windowed(double windowSec, double q, size_t minPerWindow) const
{
    std::map<int64_t, Samples> windows;
    for (const auto &[t, v] : v_)
        windows[static_cast<int64_t>(std::floor(t / windowSec))].add(v);
    Samples perWindow;
    for (const auto &[w, samples] : windows)
        if (samples.count() >= minPerWindow)
            perWindow.add(samples.quantile(q));
    return perWindow.count() ? perWindow.quantile(0.5) : all().quantile(q);
}

void
Layers::addTime(const std::string &name, double ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    times_[name].add(ms);
}

void
Layers::addTimes(const std::string &name, const Samples &ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    times_[name].append(ms);
}

Samples
Layers::times(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = times_.find(name);
    return it == times_.end() ? Samples() : it->second;
}

CounterSnapshot::CounterSnapshot(const std::vector<std::string> &names)
{
    for (const std::string &n : names)
        base_[n] = earthplus::telemetry::counter(n).value();
}

double
CounterSnapshot::delta(const std::string &name) const
{
    auto it = base_.find(name);
    uint64_t base = it == base_.end() ? 0 : it->second;
    return static_cast<double>(
        earthplus::telemetry::counter(name).value() - base);
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------- tracing

namespace {

/** The string value of `"key":"..."` in a trace line. */
std::string
stringField(const std::string &line, const char *key)
{
    std::string pat = std::string("\"") + key + "\":\"";
    size_t p = line.find(pat);
    if (p == std::string::npos)
        return "";
    p += pat.size();
    size_t e = line.find('"', p);
    return e == std::string::npos ? "" : line.substr(p, e - p);
}

/** The numeric value of `"key":N` in a trace line (NaN when absent). */
double
numberField(const std::string &line, const char *key)
{
    std::string pat = std::string("\"") + key + "\":";
    size_t p = line.find(pat);
    if (p == std::string::npos)
        return std::nan("");
    return std::strtod(line.c_str() + p + pat.size(), nullptr);
}

} // namespace

uint32_t
TraceCollector::intern(const std::string &s)
{
    auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.push_back(s);
    ids_.emplace(s, id);
    return id;
}

void
TraceCollector::flush()
{
    // traceJson() writes one complete event per line.
    std::istringstream in(earthplus::telemetry::traceJson());
    earthplus::telemetry::clearTrace();
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        Span s;
        s.name = intern(stringField(line, "name"));
        s.cat = intern(stringField(line, "cat"));
        s.tid = static_cast<uint32_t>(numberField(line, "tid"));
        s.startUs = numberField(line, "ts");
        s.durUs = numberField(line, "dur");
        if (std::isnan(s.startUs) || std::isnan(s.durUs))
            continue;
        spans_.push_back(s);
    }
}

void
TraceCollector::discard()
{
    earthplus::telemetry::clearTrace();
}

std::vector<int64_t>
TraceCollector::parents() const
{
    // Per thread, sort by start (longer first on ties) and walk with a
    // stack of open spans: a span's parent is the innermost open span
    // that contains it.
    std::vector<size_t> order(spans_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Span &x = spans_[a], &y = spans_[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.startUs != y.startUs)
            return x.startUs < y.startUs;
        return x.durUs > y.durUs;
    });
    std::vector<int64_t> parent(spans_.size(), -1);
    std::vector<size_t> stack;
    uint32_t tid = 0;
    for (size_t idx : order) {
        const Span &s = spans_[idx];
        if (stack.empty() || s.tid != tid) {
            stack.clear();
            tid = s.tid;
        }
        // Timestamps are exported in microseconds with finite
        // precision; allow a nanosecond of slack on containment.
        while (!stack.empty()) {
            const Span &top = spans_[stack.back()];
            if (s.startUs + s.durUs <= top.startUs + top.durUs + 1e-3)
                break;
            stack.pop_back();
        }
        if (!stack.empty())
            parent[idx] = static_cast<int64_t>(stack.back());
        stack.push_back(idx);
    }
    return parent;
}

std::map<std::string, std::pair<double, size_t>>
TraceCollector::selfTimes() const
{
    std::vector<int64_t> parent = parents();
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durUs;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (parent[i] >= 0)
            self[static_cast<size_t>(parent[i])] -= spans_[i].durUs;
    std::map<std::string, std::pair<double, size_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &slot = out[names_[spans_[i].name]];
        slot.first += std::max(0.0, self[i]) / 1000.0;
        ++slot.second;
    }
    for (auto &[name, slot] : out)
        slot.first /= static_cast<double>(slot.second);
    return out;
}

Samples
TraceCollector::durations(const std::string &name) const
{
    Samples out;
    auto it = ids_.find(name);
    if (it == ids_.end())
        return out;
    for (const Span &s : spans_)
        if (s.name == it->second)
            out.add(s.durUs / 1000.0);
    return out;
}

double
TraceCollector::rootMs(const std::vector<std::string> &names, size_t from,
                       size_t to) const
{
    std::vector<int64_t> parent = parents();
    double total = 0.0;
    for (size_t i = from; i < std::min(to, spans_.size()); ++i) {
        if (parent[i] >= 0)
            continue;
        const std::string &name = names_[spans_[i].name];
        if (std::find(names.begin(), names.end(), name) != names.end())
            total += spans_[i].durUs / 1000.0;
    }
    return total;
}

} // namespace perfbench
