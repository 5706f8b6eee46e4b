/**
 * @file
 * AVX2 kernel table (8 float lanes). This translation unit is built
 * with `-mavx2` on x86 (see CMakeLists.txt); whether the running CPU
 * may use it is decided at runtime by util::simd::cpuSupports. On
 * builds without the flag the factory returns nullptr.
 */

#include "codec/kernels_impl.hh"

#if defined(__AVX2__)

#include <immintrin.h>

namespace earthplus::codec::kernels::detail {

namespace {

struct Avx2Traits
{
    static constexpr int kWidth = 8;
    using F = __m256;
    using I = __m256i;

    static F fload(const float *p) { return _mm256_loadu_ps(p); }
    static void fstore(float *p, F v) { _mm256_storeu_ps(p, v); }
    static F fset(float v) { return _mm256_set1_ps(v); }
    static F fadd(F a, F b) { return _mm256_add_ps(a, b); }
    static F fsub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F fmul(F a, F b) { return _mm256_mul_ps(a, b); }
    static F fmin_(F a, F b) { return _mm256_min_ps(a, b); }
    static F fmax_(F a, F b) { return _mm256_max_ps(a, b); }
    static F
    fabs_(F v)
    {
        return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
    }
    static F fxor(F a, F b) { return _mm256_xor_ps(a, b); }
    static F
    fandnotF(I mask, F v)
    {
        return _mm256_andnot_ps(_mm256_castsi256_ps(mask), v);
    }
    static I
    flt0(F v)
    {
        return _mm256_castps_si256(
            _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ));
    }
    static I ftoi_trunc(F v) { return _mm256_cvttps_epi32(v); }
    static F itof(I v) { return _mm256_cvtepi32_ps(v); }
    static F icastF(I v) { return _mm256_castsi256_ps(v); }

    static I
    iload(const int32_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    istore(int32_t *p, I v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static I iset(int32_t v) { return _mm256_set1_epi32(v); }
    static I iadd(I a, I b) { return _mm256_add_epi32(a, b); }
    static I ixor(I a, I b) { return _mm256_xor_si256(a, b); }
    static I ishl(I v, int k) { return _mm256_slli_epi32(v, k); }
    static I isra(I v, int k) { return _mm256_srai_epi32(v, k); }
    static I
    icmpeq0(I v)
    {
        return _mm256_cmpeq_epi32(v, _mm256_setzero_si256());
    }
    static I imax(I a, I b) { return _mm256_max_epi32(a, b); }
    static I
    loadU8(const uint8_t *p)
    {
        // 8 bytes -> 8 zero-extended int32 lanes.
        return _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
    }
    static unsigned
    mask01(I laneMask)
    {
        return static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(laneMask)));
    }
    static void
    storeMasks01(uint8_t *dst, I m0, I m1, I m2, I m3)
    {
        // 32 lane masks -> 32 0/1 bytes with one store. The 256-bit
        // packs interleave 128-bit halves; the permute restores source
        // order.
        I w01 = _mm256_packs_epi32(m0, m1);
        I w23 = _mm256_packs_epi32(m2, m3);
        I b = _mm256_packs_epi16(w01, w23);
        b = _mm256_permutevar8x32_epi32(
            b, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
        b = _mm256_and_si256(b, _mm256_set1_epi8(1));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), b);
    }
};

} // anonymous namespace

const KernelTable *
avx2Table()
{
    return makeTable<Avx2Traits>(util::simd::Level::AVX2);
}

} // namespace earthplus::codec::kernels::detail

#else // !__AVX2__

namespace earthplus::codec::kernels::detail {

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace earthplus::codec::kernels::detail

#endif
