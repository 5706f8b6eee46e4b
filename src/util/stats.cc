#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace earthplus {

RunningStats::RunningStats()
    : count_(0), mean_(0.0), m2_(0.0), min_(0.0), max_(0.0), sum_(0.0)
{
}

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
RunningStats::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return count_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return count_ ? max_ : 0.0;
}

void
EmpiricalDistribution::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
EmpiricalDistribution::add(const std::vector<double> &xs)
{
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
EmpiricalDistribution::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
EmpiricalDistribution::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
EmpiricalDistribution::quantile(double q) const
{
    EP_ASSERT(q >= 0.0 && q <= 1.0, "quantile %f out of range", q);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (samples_.size() == 1)
        return samples_[0];
    double pos = q * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
EmpiricalDistribution::cdf(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

const std::vector<double> &
EmpiricalDistribution::sorted() const
{
    ensureSorted();
    return samples_;
}

} // namespace earthplus
