/**
 * @file
 * SSE2 kernel table (x86-64 baseline, 4 float lanes). Compiled without
 * extra ISA flags: SSE2 is architectural on x86-64, so this table is
 * always usable there. On other targets the factory returns nullptr.
 */

#include "codec/kernels_impl.hh"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace earthplus::codec::kernels::detail {

namespace {

struct Sse2Traits
{
    static constexpr int kWidth = 4;
    using F = __m128;
    using I = __m128i;

    static F fload(const float *p) { return _mm_loadu_ps(p); }
    static void fstore(float *p, F v) { _mm_storeu_ps(p, v); }
    static F fset(float v) { return _mm_set1_ps(v); }
    static F fadd(F a, F b) { return _mm_add_ps(a, b); }
    static F fsub(F a, F b) { return _mm_sub_ps(a, b); }
    static F fmul(F a, F b) { return _mm_mul_ps(a, b); }
    static F fmin_(F a, F b) { return _mm_min_ps(a, b); }
    static F fmax_(F a, F b) { return _mm_max_ps(a, b); }
    static F
    fabs_(F v)
    {
        return _mm_andnot_ps(_mm_set1_ps(-0.0f), v);
    }
    static F fxor(F a, F b) { return _mm_xor_ps(a, b); }
    static F
    fandnotF(I mask, F v)
    {
        return _mm_andnot_ps(_mm_castsi128_ps(mask), v);
    }
    static I
    flt0(F v)
    {
        return _mm_castps_si128(_mm_cmplt_ps(v, _mm_setzero_ps()));
    }
    static I ftoi_trunc(F v) { return _mm_cvttps_epi32(v); }
    static F itof(I v) { return _mm_cvtepi32_ps(v); }
    static F icastF(I v) { return _mm_castsi128_ps(v); }

    static I
    iload(const int32_t *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }
    static void
    istore(int32_t *p, I v)
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
    }
    static I iset(int32_t v) { return _mm_set1_epi32(v); }
    static I iadd(I a, I b) { return _mm_add_epi32(a, b); }
    static I ixor(I a, I b) { return _mm_xor_si128(a, b); }
    static I ishl(I v, int k) { return _mm_slli_epi32(v, k); }
    static I isra(I v, int k) { return _mm_srai_epi32(v, k); }
    static I
    icmpeq0(I v)
    {
        return _mm_cmpeq_epi32(v, _mm_setzero_si128());
    }
    static I
    imax(I a, I b)
    {
        // SSE2 lacks pmaxsd: select via the signed-greater mask.
        I gt = _mm_cmpgt_epi32(a, b);
        return _mm_or_si128(_mm_and_si128(gt, a),
                            _mm_andnot_si128(gt, b));
    }
    static I
    loadU8(const uint8_t *p)
    {
        // 4 bytes -> 4 zero-extended int32 lanes (SSE2 lacks pmovzx).
        uint32_t word;
        std::memcpy(&word, p, sizeof(word));
        I v = _mm_cvtsi32_si128(static_cast<int>(word));
        I zero = _mm_setzero_si128();
        return _mm_unpacklo_epi16(_mm_unpacklo_epi8(v, zero), zero);
    }
    static unsigned
    mask01(I laneMask)
    {
        return static_cast<unsigned>(
            _mm_movemask_ps(_mm_castsi128_ps(laneMask)));
    }
    static void
    storeMasks01(uint8_t *dst, I m0, I m1, I m2, I m3)
    {
        // 16 lane masks -> 16 0/1 bytes with one store.
        I w01 = _mm_packs_epi32(m0, m1);
        I w23 = _mm_packs_epi32(m2, m3);
        I b = _mm_and_si128(_mm_packs_epi16(w01, w23),
                            _mm_set1_epi8(1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), b);
    }
};

} // anonymous namespace

const KernelTable *
sse2Table()
{
    return makeTable<Sse2Traits>(util::simd::Level::SSE2);
}

} // namespace earthplus::codec::kernels::detail

#else // !__SSE2__

namespace earthplus::codec::kernels::detail {

const KernelTable *
sse2Table()
{
    return nullptr;
}

} // namespace earthplus::codec::kernels::detail

#endif
