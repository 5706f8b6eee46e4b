/**
 * @file
 * Little-endian POD byte (de)serialization helpers.
 *
 * Shared by every wire/file format in the library (codec streams,
 * downlink packets, the ground archive) so byte-layout-critical code
 * lives in exactly one place. All formats assume a little-endian host
 * (the only targets this library builds for); memcpy keeps the
 * accesses alignment-safe and sanitizer-clean.
 */

#ifndef EARTHPLUS_UTIL_BYTES_HH
#define EARTHPLUS_UTIL_BYTES_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace earthplus::util {

/**
 * Number of bits needed to represent `v` (0 for 0) — C++20
 * `std::bit_width` for a C++17 toolchain. The codec derives the top
 * magnitude bitplane of a tile from this, so it must be exact on the
 * full uint32_t range (no float log tricks).
 */
inline int
bitWidth(uint32_t v)
{
    return v == 0 ? 0 : 32 - __builtin_clz(v);
}

/**
 * Index of the lowest set bit of a nonzero word — C++20
 * `std::countr_zero` restricted to nonzero inputs. The bitplane
 * coder's pass loops iterate candidate sets one set bit at a time
 * with this.
 */
inline int
countTrailingZeros(uint64_t v)
{
    return __builtin_ctzll(v);
}

/**
 * Number of set bits of a word — C++20 `std::popcount`, written as
 * the branch-free SWAR sum so it inlines on every target (the builtin
 * becomes a library call without a POPCNT target flag). The bitplane
 * coder sizes its cleanup zero runs with this.
 */
inline int
popCount(uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<int>((v * 0x0101010101010101ull) >> 56);
}

/** Append the raw bytes of a POD value to `out`. */
template <typename T>
inline void
appendPod(std::vector<uint8_t> &out, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "appendPod requires a trivially copyable type");
    const auto *p = reinterpret_cast<const uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

/**
 * Read a POD value at byte offset `pos`. The caller bounds-checks;
 * this is the raw accessor used after a buffer's size is validated.
 */
template <typename T>
inline T
readPodAt(const uint8_t *in, size_t pos)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "readPodAt requires a trivially copyable type");
    T v;
    std::memcpy(&v, in + pos, sizeof(T));
    return v;
}

} // namespace earthplus::util

#endif // EARTHPLUS_UTIL_BYTES_HH
