/**
 * @file
 * Streaming statistics and empirical CDFs.
 *
 * Used by the evaluation harness to aggregate per-capture measurements
 * (percentage of downloaded tiles, PSNR, reference age, ...) into the
 * summaries the paper reports.
 */

#ifndef EARTHPLUS_UTIL_STATS_HH
#define EARTHPLUS_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace earthplus {

/**
 * Streaming mean / variance / min / max accumulator (Welford's method).
 */
class RunningStats
{
  public:
    RunningStats();

    /** Add one sample. */
    void add(double x);

    /** Number of samples added so far. */
    size_t count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const;

    /** Unbiased sample variance (0 with fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen (0 when empty). */
    double min() const;

    /** Largest sample seen (0 when empty). */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    size_t count_;
    double mean_;
    double m2_;
    double min_;
    double max_;
    double sum_;
};

/**
 * Empirical distribution over a collected sample set.
 *
 * Stores all samples; supports quantile queries and CDF evaluation, which
 * back the paper's CDF plots (Figs. 5 and 12).
 */
class EmpiricalDistribution
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Add many samples. */
    void add(const std::vector<double> &xs);

    /** Number of samples. */
    size_t count() const { return samples_.size(); }

    /** Mean of all samples (0 when empty). */
    double mean() const;

    /**
     * Empirical quantile via linear interpolation.
     *
     * @param q Quantile in [0, 1].
     */
    double quantile(double q) const;

    /** Fraction of samples <= x. */
    double cdf(double x) const;

    /** Sorted copy of the samples. */
    const std::vector<double> &sorted() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;

    void ensureSorted() const;
};

} // namespace earthplus

#endif // EARTHPLUS_UTIL_STATS_HH
