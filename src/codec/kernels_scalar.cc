/**
 * @file
 * Scalar (width-1) kernel table: the reference implementation every
 * vector level must match bit for bit. Built without any vector ISA
 * flags so it runs on any target.
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/kernels_impl.hh"

namespace earthplus::codec::kernels::detail {

namespace {

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
    static F itof(I v) { return static_cast<float>(v); }

    static I iload(const int32_t *p) { return *p; }
    static void istore(int32_t *p, I v) { *p = v; }
    static I iset(int32_t v) { return v; }
    static I iadd(I a, I b) { return wrapAdd(a, b); }
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

const KernelTable *
scalarTable()
{
    return makeTable<ScalarTraits>(util::simd::Level::Scalar);
}

} // namespace earthplus::codec::kernels::detail
