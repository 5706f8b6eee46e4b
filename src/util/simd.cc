#include "util/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace earthplus::util::simd {

namespace {

/**
 * The AVX2 level's runtime check: its kernels use AVX2, and its CRC-32
 * uses PCLMULQDQ, which a CPU (or a hypervisor's cpuid) may offer
 * without the other.
 */
bool
hasAvx2Level()
{
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("pclmul");
#else
    return false;
#endif
}

Level
detectBest()
{
#if defined(__aarch64__) || defined(__ARM_NEON)
    return Level::NEON;
#elif defined(__x86_64__) || defined(_M_X64)
    if (hasAvx2Level())
        return Level::AVX2;
    return Level::SSE2;
#else
    return Level::Scalar;
#endif
}

Level
parseLevel(const char *s, Level fallback)
{
    if (!s || !*s)
        return fallback;
    if (std::strcmp(s, "scalar") == 0)
        return Level::Scalar;
    if (std::strcmp(s, "sse2") == 0)
        return Level::SSE2;
    if (std::strcmp(s, "avx2") == 0)
        return Level::AVX2;
    if (std::strcmp(s, "neon") == 0)
        return Level::NEON;
    return fallback; // "best" and anything unrecognized
}

std::atomic<Level> &
activeSlot()
{
    // First use installs the env-var override (or the detected best);
    // the atomic lets worker threads read the level while a test or
    // bench thread swaps it.
    static std::atomic<Level> level{[] {
        Level best = detectBest();
        Level want = parseLevel(std::getenv("EARTHPLUS_SIMD"), best);
        return cpuSupports(want) ? want : best;
    }()};
    return level;
}

} // anonymous namespace

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::SSE2:
        return "sse2";
    case Level::AVX2:
        return "avx2";
    case Level::NEON:
        return "neon";
    }
    return "unknown";
}

bool
cpuSupports(Level level)
{
    switch (level) {
    case Level::Scalar:
        return true;
    case Level::SSE2:
#if defined(__x86_64__) || defined(_M_X64)
        return true; // architectural baseline
#else
        return false;
#endif
    case Level::AVX2:
        return hasAvx2Level();
    case Level::NEON:
#if defined(__aarch64__) || defined(__ARM_NEON)
        return true; // architectural baseline
#else
        return false;
#endif
    }
    return false;
}

Level
bestSupported()
{
    return detectBest();
}

Level
activeLevel()
{
    return activeSlot().load(std::memory_order_relaxed);
}

Level
setActiveLevel(Level level)
{
    if (!cpuSupports(level))
        level = detectBest();
    activeSlot().store(level, std::memory_order_relaxed);
    return level;
}

} // namespace earthplus::util::simd
