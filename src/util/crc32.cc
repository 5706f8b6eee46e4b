/**
 * @file
 * Slicing-by-8 CRC-32, the kernel of every level without a carry-less
 * multiply and the tail loop of the one that has it, plus the level
 * dispatch. Built without any vector ISA flags so it runs on any
 * target.
 */

#include "util/crc32_impl.hh"

namespace earthplus::util {

namespace {

/**
 * Slicing-by-8 tables: kCrc[k][b] is the CRC-32 register after byte b
 * followed by k zero bytes, so eight independent lookups advance the
 * register over eight bytes.
 */
struct Crc32Tables
{
    uint32_t t[8][256];
};

constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tab{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t c = b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tab.t[0][b] = c;
    }
    for (int k = 1; k < 8; ++k)
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t prev = tab.t[k - 1][b];
            tab.t[k][b] = (prev >> 8) ^ tab.t[0][prev & 0xFFu];
        }
    return tab;
}

constexpr Crc32Tables kCrc = makeCrc32Tables();

/** Little-endian 32-bit load, whatever the host byte order. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** The kernel of the scalar, SSE2 and NEON levels. */
uint32_t
crc32Scalar(uint32_t prev, const uint8_t *data, size_t n)
{
    return ~detail::crc32Slice8(~prev, data, n);
}

} // anonymous namespace

uint32_t
detail::crc32Slice8(uint32_t reg, const uint8_t *data, size_t n)
{
    const auto &t = kCrc.t;
    for (; n >= 8; data += 8, n -= 8) {
        uint32_t lo = reg ^ loadLe32(data);
        uint32_t hi = loadLe32(data + 4);
        reg = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        reg = t[0][(reg ^ *data) & 0xFFu] ^ (reg >> 8);
    return reg;
}

Crc32Fn
crc32ForLevel(simd::Level level)
{
    if (!simd::cpuSupports(level))
        return nullptr;
    return level == simd::Level::AVX2 ? detail::crc32Avx2() : &crc32Scalar;
}

uint32_t
crc32Update(uint32_t prev, const uint8_t *data, size_t size)
{
    // A level the CPU claims but this binary lacks (an AVX2 host
    // running a build without -mpclmul) falls back to slicing-by-8.
    Crc32Fn fn = crc32ForLevel(simd::activeLevel());
    return (fn ? fn : &crc32Scalar)(prev, data, size);
}

uint32_t
crc32(const uint8_t *data, size_t size)
{
    return crc32Update(0, data, size);
}

} // namespace earthplus::util
