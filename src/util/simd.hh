/**
 * @file
 * Runtime CPU-feature detection and SIMD dispatch-level selection.
 *
 * The codec's hot kernels and the CRC-32 are compiled once per
 * instruction set (see codec/kernels.hh and util/crc32.hh); this
 * header owns the question "which level may run on this machine, and
 * which level is active right now". The active level defaults to the best supported one and can be
 * overridden either programmatically (tests, benchmarks) or with the
 * `EARTHPLUS_SIMD` environment variable (`scalar`, `sse2`, `avx2`,
 * `neon` or `best`), read once on first use.
 */

#ifndef EARTHPLUS_UTIL_SIMD_HH
#define EARTHPLUS_UTIL_SIMD_HH

namespace earthplus::util::simd {

/** Instruction-set dispatch levels, weakest first. */
enum class Level
{
    Scalar = 0, ///< Portable C++, no vector intrinsics.
    SSE2 = 1,   ///< x86-64 baseline 128-bit vectors.
    AVX2 = 2,   ///< 256-bit vectors + PCLMULQDQ (runtime-detected).
    NEON = 3,   ///< AArch64 baseline 128-bit vectors.
};

/** Human-readable lowercase name of a level. */
const char *levelName(Level level);

/**
 * True when the running CPU can execute instructions of this level.
 * Scalar is always supported; SSE2/NEON follow from the build target;
 * AVX2 is detected at runtime via cpuid, and requires PCLMULQDQ too.
 */
bool cpuSupports(Level level);

/** Strongest level the running CPU supports. */
Level bestSupported();

/**
 * Level the codec kernels and the CRC-32 currently dispatch to. Initialized from
 * `EARTHPLUS_SIMD` (falling back to bestSupported()) on first call.
 */
Level activeLevel();

/**
 * Override the active dispatch level, clamping to what the CPU
 * supports.
 *
 * @return The level actually installed.
 */
Level setActiveLevel(Level level);

} // namespace earthplus::util::simd

#endif // EARTHPLUS_UTIL_SIMD_HH
