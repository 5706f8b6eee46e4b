/**
 * @file
 * NEON kernel table (AArch64 baseline, 4 float lanes). Mirrors the
 * SSE2 table; compiled in automatically on AArch64 where Advanced SIMD
 * is architectural. Elsewhere the factory returns nullptr.
 */

#include "codec/kernels_impl.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace earthplus::codec::kernels::detail {

namespace {

struct NeonTraits
{
    static constexpr int kWidth = 4;
    using F = float32x4_t;
    using I = int32x4_t;

    static F fload(const float *p) { return vld1q_f32(p); }
    static void fstore(float *p, F v) { vst1q_f32(p, v); }
    static F fset(float v) { return vdupq_n_f32(v); }
    static F fadd(F a, F b) { return vaddq_f32(a, b); }
    static F fsub(F a, F b) { return vsubq_f32(a, b); }
    static F fmul(F a, F b) { return vmulq_f32(a, b); }
    // Compare+select instead of vminq/vmaxq: mirrors the x86
    // MINPS/MAXPS rule (second operand on NaN/ties) that the scalar
    // reference implements, where NEON's native min/max would
    // propagate NaN and break cross-level byte-identity.
    static F fmin_(F a, F b) { return vbslq_f32(vcltq_f32(a, b), a, b); }
    static F fmax_(F a, F b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
    static F fabs_(F v) { return vabsq_f32(v); }
    static F
    fxor(F a, F b)
    {
        return vreinterpretq_f32_s32(veorq_s32(vreinterpretq_s32_f32(a),
                                               vreinterpretq_s32_f32(b)));
    }
    static F
    fandnotF(I mask, F v)
    {
        return vreinterpretq_f32_s32(
            vbicq_s32(vreinterpretq_s32_f32(v), mask));
    }
    static I
    flt0(F v)
    {
        return vreinterpretq_s32_u32(vcltq_f32(v, vdupq_n_f32(0.0f)));
    }
    static I ftoi_trunc(F v) { return vcvtq_s32_f32(v); }
    static F itof(I v) { return vcvtq_f32_s32(v); }
    static F icastF(I v) { return vreinterpretq_f32_s32(v); }

    static I iload(const int32_t *p) { return vld1q_s32(p); }
    static void istore(int32_t *p, I v) { vst1q_s32(p, v); }
    static I iset(int32_t v) { return vdupq_n_s32(v); }
    static I iadd(I a, I b) { return vaddq_s32(a, b); }
    static I ixor(I a, I b) { return veorq_s32(a, b); }
    static I ishl(I v, int k) { return vshlq_s32(v, vdupq_n_s32(k)); }
    static I isra(I v, int k) { return vshlq_s32(v, vdupq_n_s32(-k)); }
    static I
    icmpeq0(I v)
    {
        return vreinterpretq_s32_u32(vceqq_s32(v, vdupq_n_s32(0)));
    }
    static I imax(I a, I b) { return vmaxq_s32(a, b); }
    static I
    loadU8(const uint8_t *p)
    {
        // 4 bytes -> 4 zero-extended int32 lanes.
        uint32_t word;
        __builtin_memcpy(&word, p, sizeof(word));
        uint8x8_t b = vreinterpret_u8_u32(vdup_n_u32(word));
        uint16x4_t h = vget_low_u16(vmovl_u8(b));
        return vreinterpretq_s32_u32(vmovl_u16(h));
    }
    static unsigned
    mask01(I laneMask)
    {
        uint32x4_t m = vreinterpretq_u32_s32(laneMask);
        return (vgetq_lane_u32(m, 0) & 1u) |
               ((vgetq_lane_u32(m, 1) & 1u) << 1) |
               ((vgetq_lane_u32(m, 2) & 1u) << 2) |
               ((vgetq_lane_u32(m, 3) & 1u) << 3);
    }
    static void
    storeMasks01(uint8_t *dst, I m0, I m1, I m2, I m3)
    {
        // 16 lane masks -> 16 0/1 bytes with one store.
        int16x8_t w01 = vcombine_s16(vmovn_s32(m0), vmovn_s32(m1));
        int16x8_t w23 = vcombine_s16(vmovn_s32(m2), vmovn_s32(m3));
        int8x16_t b = vcombine_s8(vmovn_s16(w01), vmovn_s16(w23));
        b = vandq_s8(b, vdupq_n_s8(1));
        vst1q_s8(reinterpret_cast<int8_t *>(dst), b);
    }
};

} // anonymous namespace

const KernelTable *
neonTable()
{
    return makeTable<NeonTraits>(util::simd::Level::NEON);
}

} // namespace earthplus::codec::kernels::detail

#else // !AArch64 NEON

namespace earthplus::codec::kernels::detail {

const KernelTable *
neonTable()
{
    return nullptr;
}

} // namespace earthplus::codec::kernels::detail

#endif
