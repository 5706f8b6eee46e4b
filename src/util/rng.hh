/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library draw from Rng so that every
 * experiment is reproducible from an explicit seed, independent of the
 * platform's std::random implementation.
 */

#ifndef EARTHPLUS_UTIL_RNG_HH
#define EARTHPLUS_UTIL_RNG_HH

#include <cstdint>

namespace earthplus {

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Small, fast, and with well-understood statistical quality; identical
 * output on every platform for a given seed.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal deviate (Box-Muller). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Exponential deviate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /**
     * Derive an independent child generator.
     *
     * Streams are decorrelated by hashing the parent seed with the salt,
     * letting hierarchical components (scene -> band -> day) own private
     * generators without sharing state.
     */
    Rng fork(uint64_t salt) const;

  private:
    uint64_t s_[4];
    uint64_t seed_;
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace earthplus

#endif // EARTHPLUS_UTIL_RNG_HH
