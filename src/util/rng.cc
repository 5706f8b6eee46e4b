#include "util/rng.hh"

#include <cmath>

namespace earthplus {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(uint64_t seed)
    : seed_(seed), cachedNormal_(0.0), hasCachedNormal_(false)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    if (lo >= hi)
        return lo;
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 1e-300)
        u1 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    cachedNormal_ = r * std::sin(2.0 * M_PI * u2);
    hasCachedNormal_ = true;
    return r * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    double u = uniform();
    while (u <= 1e-300)
        u = uniform();
    return -std::log(u) / rate;
}

Rng
Rng::fork(uint64_t salt) const
{
    uint64_t mix = seed_ ^ (salt * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
    uint64_t sm = mix;
    // One extra scramble round keeps sibling streams decorrelated even
    // for adjacent salts.
    return Rng(splitmix64(sm));
}

} // namespace earthplus
