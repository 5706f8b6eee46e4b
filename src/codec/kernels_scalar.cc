/**
 * @file
 * Scalar (width-1) kernel table: the reference implementation every
 * vector level must match bit for bit. Built without any vector ISA
 * flags so it runs on any target. Also home of the slicing-by-8
 * CRC-32, the CRC kernel of every level without a carry-less multiply
 * and the tail loop of the one that has it.
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/kernels_impl.hh"

namespace earthplus::codec::kernels::detail {

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

struct ScalarTraits
{
    static constexpr int kWidth = 1;
    using F = float;
    using I = int32_t;

    static F fload(const float *p) { return *p; }
    static void fstore(float *p, F v) { *p = v; }
    static F fset(float v) { return v; }
    static F fadd(F a, F b) { return a + b; }
    static F fsub(F a, F b) { return a - b; }
    static F fmul(F a, F b) { return a * b; }
    // min/max mirror the x86 MINPS/MAXPS selection rule (second
    // operand on ties) so ties resolve identically at every level.
    static F fmin_(F a, F b) { return a < b ? a : b; }
    static F fmax_(F a, F b) { return a > b ? a : b; }
    static F fabs_(F v) { return std::fabs(v); }

    static I
    castI(F v)
    {
        I r;
        std::memcpy(&r, &v, sizeof(r));
        return r;
    }

    static F
    icastF(I v)
    {
        F r;
        std::memcpy(&r, &v, sizeof(r));
        return r;
    }

    static F fxor(F a, F b) { return icastF(castI(a) ^ castI(b)); }
    static F fandnotF(I mask, F v) { return icastF(~mask & castI(v)); }
    static I flt0(F v) { return v < 0.0f ? -1 : 0; }

    static I ftoi_trunc(F v) { return truncToI32(v); }
    static I ftoi_round(F v) { return roundToI32(v); }
    static F itof(I v) { return static_cast<float>(v); }

    static I iload(const int32_t *p) { return *p; }
    static void istore(int32_t *p, I v) { *p = v; }
    static I iset(int32_t v) { return v; }
    static I izero() { return 0; }
    static I iadd(I a, I b) { return wrapAdd(a, b); }
    static I isub(I a, I b) { return wrapSub(a, b); }
    static I iandnot(I mask, I v) { return ~mask & v; }
    static I ixor(I a, I b) { return a ^ b; }
    static I ishl(I v, int k) { return static_cast<I>(
        static_cast<uint32_t>(v) << k); }
    static I isra(I v, int k) { return v >> k; }
    static I icmpeq0(I v) { return v == 0 ? -1 : 0; }
    static I imax(I a, I b) { return std::max(a, b); }
    static I loadU8(const uint8_t *p) { return *p; }
    static unsigned mask01(I laneMask) { return laneMask & 1; }
    static void
    storeMasks01(uint8_t *dst, I m0, I m1, I m2, I m3)
    {
        dst[0] = static_cast<uint8_t>(m0 & 1);
        dst[1] = static_cast<uint8_t>(m1 & 1);
        dst[2] = static_cast<uint8_t>(m2 & 1);
        dst[3] = static_cast<uint8_t>(m3 & 1);
    }
};

} // anonymous namespace

uint32_t
crc32Slice8(uint32_t reg, const uint8_t *data, size_t n)
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

uint32_t
crc32Scalar(uint32_t prev, const uint8_t *data, size_t n)
{
    return ~crc32Slice8(~prev, data, n);
}

const KernelTable *
scalarTable()
{
    return makeTable<ScalarTraits>(util::simd::Level::Scalar, &crc32Scalar);
}

} // namespace earthplus::codec::kernels::detail
