/**
 * @file
 * Generic implementation behind every KernelTable.
 *
 * Included only by the per-ISA kernels_<level>.cc translation units,
 * each of which supplies a lane-traits type. The same template body
 * instantiated at width 1 *is* the scalar reference implementation, so
 * scalar and vector builds cannot drift apart: every lane performs
 * exactly the scalar single-precision dataflow (the build adds
 * `-ffp-contract=off`, so no level fuses multiply-add either).
 *
 * Loop-tail elements and narrow columns use the same plain-float
 * operations, which are IEEE-identical to one vector lane.
 *
 * DWT layout notes: the 1D lifting passes work on de-interleaved
 * low/high (s/d) arrays with one guard slot on each side; refreshing
 * the guards before each lifting step reproduces the whole-sample
 * symmetric extension the strided scalar code expressed with clamped
 * indexing. Column passes process `kWidth` columns per batch (one
 * column per lane) instead of strided single lanes.
 */

#ifndef EARTHPLUS_CODEC_KERNELS_IMPL_HH
#define EARTHPLUS_CODEC_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "codec/kernels.hh"

namespace earthplus::codec::kernels::detail {

// Daubechies-Sweldens lifting factorization of CDF 9/7, rounded to
// single precision once so every dispatch level uses the same values.
constexpr float kAlpha97 = static_cast<float>(-1.586134342059924);
constexpr float kBeta97 = static_cast<float>(-0.052980118572961);
constexpr float kGamma97 = static_cast<float>(0.882911075530934);
constexpr float kDelta97 = static_cast<float>(0.443506852043971);
constexpr float kZeta97 = static_cast<float>(1.149604398860241);
constexpr float kInvZeta97 = static_cast<float>(1.0 / 1.149604398860241);

inline float
bitcastF(uint32_t v)
{
    float f;
    std::memcpy(&f, &v, sizeof(f));
    return f;
}

// Two's-complement wrapping int32 add: what every vector lane
// computes, without the scalar UB on overflow.
inline int32_t
wrapAdd(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) +
                                static_cast<uint32_t>(b));
}

// Overflow-safe float->int32 truncation mirroring the x86 cvttps
// sentinel (0x80000000 for out-of-range and NaN) instead of invoking
// UB; no float lies strictly between 2^31-128 and 2^31, so the range
// test cannot disagree with the hardware's check. Used by the
// quantizer's scalar tail and by the scalar traits.
inline bool
fitsI32(float v)
{
    return v >= -2147483648.0f && v < 2147483648.0f;
}

inline int32_t
truncToI32(float v)
{
    return fitsI32(v) ? static_cast<int32_t>(v) : INT32_MIN;
}

template <class T>
struct Kernels
{
    using F = typename T::F;
    using I = typename T::I;
    static constexpr int K = T::kWidth;

    /** Per-thread float scratch, reused across tiles. */
    static float *
    fscratch(size_t n)
    {
        thread_local std::vector<float> buf;
        if (buf.size() < n)
            buf.resize(n);
        return buf.data();
    }

    /** Zero-extend K bytes into int32 lanes. */
    static I
    loadU8(const uint8_t *p)
    {
        return T::loadU8(p);
    }

    /** Write lane masks (-1/0) out as 0/1 bytes via the mask bits. */
    static void
    storeMaskBytes(uint8_t *dst, typename T::I laneMask)
    {
        unsigned bits = T::mask01(laneMask);
        for (int j = 0; j < K; ++j)
            dst[j] = static_cast<uint8_t>((bits >> j) & 1u);
    }

    // ------------------------------------------------ 1D lifting steps

    /** dst[i] += coef * (src[i+o0] + src[i+o1]) over contiguous rows. */
    static void
    stepRowF(float *dst, int m, const float *src, int o0, int o1,
             float coef)
    {
        F c = T::fset(coef);
        int i = 0;
        for (; i + K <= m; i += K) {
            F sum = T::fadd(T::fload(src + i + o0), T::fload(src + i + o1));
            T::fstore(dst + i, T::fadd(T::fload(dst + i), T::fmul(c, sum)));
        }
        for (; i < m; ++i)
            dst[i] += coef * (src[i + o0] + src[i + o1]);
    }

    /** Lane-batched lifting step: arrays have row stride K. */
    static void
    stepColF(float *dst, int m, const float *src, int o0, int o1,
             float coef)
    {
        F c = T::fset(coef);
        for (int i = 0; i < m; ++i) {
            F sum = T::fadd(T::fload(src + static_cast<ptrdiff_t>(i + o0) * K),
                            T::fload(src + static_cast<ptrdiff_t>(i + o1) * K));
            float *out = dst + static_cast<ptrdiff_t>(i) * K;
            T::fstore(out, T::fadd(T::fload(out), T::fmul(c, sum)));
        }
    }

    // ---------------------------------------------------- 9/7 row pass

    static void
    row97(float *x, int n, bool forward)
    {
        if (n < 2)
            return;
        int ns = (n + 1) / 2;
        int nd = n / 2;
        // Layout: [guard][s 0..ns)[guard] [guard][d 0..nd)[guard].
        float *base = fscratch(static_cast<size_t>(n) + 4);
        float *s = base + 1;
        float *d = base + ns + 3;
        if (forward) {
            for (int i = 0; i < ns; ++i)
                s[i] = x[2 * i];
            for (int i = 0; i < nd; ++i)
                d[i] = x[2 * i + 1];
            s[ns] = s[ns - 1];
            stepRowF(d, nd, s, 0, 1, kAlpha97);
            d[-1] = d[0];
            d[nd] = d[nd - 1];
            stepRowF(s, ns, d, -1, 0, kBeta97);
            s[ns] = s[ns - 1];
            stepRowF(d, nd, s, 0, 1, kGamma97);
            d[-1] = d[0];
            d[nd] = d[nd - 1];
            stepRowF(s, ns, d, -1, 0, kDelta97);
            scaleRow(x, s, ns, kZeta97);
            scaleRow(x + ns, d, nd, kInvZeta97);
        } else {
            scaleRow(s, x, ns, kInvZeta97);
            scaleRow(d, x + ns, nd, kZeta97);
            d[-1] = d[0];
            d[nd] = d[nd - 1];
            stepRowF(s, ns, d, -1, 0, -kDelta97);
            s[ns] = s[ns - 1];
            stepRowF(d, nd, s, 0, 1, -kGamma97);
            d[-1] = d[0];
            d[nd] = d[nd - 1];
            stepRowF(s, ns, d, -1, 0, -kBeta97);
            s[ns] = s[ns - 1];
            stepRowF(d, nd, s, 0, 1, -kAlpha97);
            for (int i = 0; i < ns; ++i)
                x[2 * i] = s[i];
            for (int i = 0; i < nd; ++i)
                x[2 * i + 1] = d[i];
        }
    }

    /** out[i] = in[i] * coef over contiguous elements. */
    static void
    scaleRow(float *out, const float *in, int m, float coef)
    {
        F c = T::fset(coef);
        int i = 0;
        for (; i + K <= m; i += K)
            T::fstore(out + i, T::fmul(T::fload(in + i), c));
        for (; i < m; ++i)
            out[i] = in[i] * coef;
    }

    // ----------------------------------------------- 9/7 column passes

    /** One batch of K columns starting at x0, lanes = columns. */
    static void
    cols97Batch(float *data, int fullWidth, int x0, int h, bool forward)
    {
        int ns = (h + 1) / 2;
        int nd = h / 2;
        float *base = fscratch(static_cast<size_t>(h + 4) * K);
        float *s = base + K;
        float *d = base + static_cast<size_t>(ns + 2) * K + K;
        auto srow = [&](int i) { return s + static_cast<ptrdiff_t>(i) * K; };
        auto drow = [&](int i) { return d + static_cast<ptrdiff_t>(i) * K; };
        auto img = [&](int y) {
            return data + static_cast<size_t>(y) * fullWidth + x0;
        };
        auto copyRow = [&](float *dst, const float *src) {
            T::fstore(dst, T::fload(src));
        };
        if (forward) {
            for (int i = 0; i < ns; ++i)
                copyRow(srow(i), img(2 * i));
            for (int i = 0; i < nd; ++i)
                copyRow(drow(i), img(2 * i + 1));
            copyRow(srow(ns), srow(ns - 1));
            stepColF(d, nd, s, 0, 1, kAlpha97);
            copyRow(drow(-1), drow(0));
            copyRow(drow(nd), drow(nd - 1));
            stepColF(s, ns, d, -1, 0, kBeta97);
            copyRow(srow(ns), srow(ns - 1));
            stepColF(d, nd, s, 0, 1, kGamma97);
            copyRow(drow(-1), drow(0));
            copyRow(drow(nd), drow(nd - 1));
            stepColF(s, ns, d, -1, 0, kDelta97);
            F zeta = T::fset(kZeta97);
            F izeta = T::fset(kInvZeta97);
            for (int i = 0; i < ns; ++i)
                T::fstore(img(i), T::fmul(T::fload(srow(i)), zeta));
            for (int i = 0; i < nd; ++i)
                T::fstore(img(ns + i), T::fmul(T::fload(drow(i)), izeta));
        } else {
            F zeta = T::fset(kZeta97);
            F izeta = T::fset(kInvZeta97);
            for (int i = 0; i < ns; ++i)
                T::fstore(srow(i), T::fmul(T::fload(img(i)), izeta));
            for (int i = 0; i < nd; ++i)
                T::fstore(drow(i), T::fmul(T::fload(img(ns + i)), zeta));
            copyRow(drow(-1), drow(0));
            copyRow(drow(nd), drow(nd - 1));
            stepColF(s, ns, d, -1, 0, -kDelta97);
            copyRow(srow(ns), srow(ns - 1));
            stepColF(d, nd, s, 0, 1, -kGamma97);
            copyRow(drow(-1), drow(0));
            copyRow(drow(nd), drow(nd - 1));
            stepColF(s, ns, d, -1, 0, -kBeta97);
            copyRow(srow(ns), srow(ns - 1));
            stepColF(d, nd, s, 0, 1, -kAlpha97);
            for (int i = 0; i < ns; ++i)
                T::fstore(img(2 * i), T::fload(srow(i)));
            for (int i = 0; i < nd; ++i)
                T::fstore(img(2 * i + 1), T::fload(drow(i)));
        }
    }

    /**
     * One leftover column: gather it contiguously and reuse the row
     * pass. Per-element operations (and therefore bits) are identical
     * to a lane of cols97Batch; only the memory layout differs.
     */
    static void
    col97One(float *data, int fullWidth, int x, int h, bool forward)
    {
        thread_local std::vector<float> col;
        if (col.size() < static_cast<size_t>(h))
            col.resize(static_cast<size_t>(h));
        for (int y = 0; y < h; ++y)
            col[static_cast<size_t>(y)] =
                data[static_cast<size_t>(y) * fullWidth + x];
        row97(col.data(), h, forward);
        for (int y = 0; y < h; ++y)
            data[static_cast<size_t>(y) * fullWidth + x] =
                col[static_cast<size_t>(y)];
    }

    static void
    cols97(float *data, int fullWidth, int w, int h, bool forward)
    {
        if (h < 2)
            return;
        int x0 = 0;
        for (; x0 + K <= w; x0 += K)
            cols97Batch(data, fullWidth, x0, h, forward);
        for (; x0 < w; ++x0)
            col97One(data, fullWidth, x0, h, forward);
    }

    // --------------------------------------------- table entry points

    static void
    fwd97(float *data, int fullWidth, int w, int h)
    {
        for (int y = 0; y < h; ++y)
            row97(data + static_cast<size_t>(y) * fullWidth, w, true);
        cols97(data, fullWidth, w, h, true);
    }

    static void
    inv97(float *data, int fullWidth, int w, int h)
    {
        cols97(data, fullWidth, w, h, false);
        for (int y = 0; y < h; ++y)
            row97(data + static_cast<size_t>(y) * fullWidth, w, false);
    }

    /**
     * Deadzone quantizer. Each block of K inputs yields magnitude lanes
     * and sign-mask lanes; sign bytes are written in packed 4-vector
     * groups (one narrow store per 4K elements instead of K scalar byte
     * writes).
     */
    static void
    quantF32(const float *coeffs, size_t n, float inv, uint32_t *mag,
             uint8_t *sign)
    {
        F vinv = T::fset(inv);
        auto block = [&](size_t i, I &signMask) {
            F v = T::fload(coeffs + i);
            signMask = T::flt0(v);
            return T::ftoi_trunc(T::fmul(T::fabs_(v), vinv));
        };
        size_t i = 0;
        for (; i + 4 * K <= n; i += 4 * K) {
            I s0, s1, s2, s3;
            T::istore(reinterpret_cast<int32_t *>(mag + i),
                      block(i, s0));
            T::istore(reinterpret_cast<int32_t *>(mag + i + K),
                      block(i + K, s1));
            T::istore(reinterpret_cast<int32_t *>(mag + i + 2 * K),
                      block(i + 2 * K, s2));
            T::istore(reinterpret_cast<int32_t *>(mag + i + 3 * K),
                      block(i + 3 * K, s3));
            T::storeMasks01(sign + i, s0, s1, s2, s3);
        }
        for (; i + K <= n; i += K) {
            I s;
            T::istore(reinterpret_cast<int32_t *>(mag + i), block(i, s));
            storeMaskBytes(sign + i, s);
        }
        for (; i < n; ++i) {
            float v = coeffs[i];
            sign[i] = v < 0.0f ? 1 : 0;
            mag[i] = static_cast<uint32_t>(truncToI32(std::fabs(v) * inv));
        }
    }

    static void
    dequant97(const uint32_t *mag, const uint8_t *sign, const uint8_t *low,
              size_t n, float step, float *coeffs)
    {
        F vstep = T::fset(step);
        I bias = T::iset(126);
        size_t i = 0;
        for (; i + K <= n; i += K) {
            I m = T::iload(reinterpret_cast<const int32_t *>(mag + i));
            I zeroMask = T::icmpeq0(m);
            F half = T::icastF(T::ishl(T::iadd(loadU8(low + i), bias), 23));
            F val = T::fmul(T::fadd(T::itof(m), half), vstep);
            val = T::fxor(val, T::icastF(T::ishl(loadU8(sign + i), 31)));
            T::fstore(coeffs + i, T::fandnotF(zeroMask, val));
        }
        for (; i < n; ++i) {
            int32_t m = static_cast<int32_t>(mag[i]);
            if (m == 0) {
                coeffs[i] = 0.0f;
                continue;
            }
            float half = bitcastF(static_cast<uint32_t>(126 + low[i]) << 23);
            float v = (static_cast<float>(m) + half) * step;
            coeffs[i] = sign[i] ? -v : v;
        }
    }

    static uint32_t
    maxU32(const uint32_t *mag, size_t n)
    {
        // Unsigned max via sign-bit biasing: magnitudes >= 2^31 (a
        // saturated quantizer on non-finite pixels) must win the
        // reduction so the bitplane-overflow assert still fires.
        I bias = T::iset(INT32_MIN);
        I acc = bias; // == 0 in the biased domain
        size_t i = 0;
        for (; i + K <= n; i += K)
            acc = T::imax(
                acc,
                T::ixor(T::iload(reinterpret_cast<const int32_t *>(mag + i)),
                        bias));
        int32_t lanes[K];
        T::istore(lanes, acc);
        uint32_t best = 0;
        for (int j = 0; j < K; ++j)
            best = std::max(best,
                            static_cast<uint32_t>(lanes[j]) ^ 0x80000000u);
        for (; i < n; ++i)
            best = std::max(best, mag[i]);
        return best;
    }

    static void
    bitplaneMask(const uint32_t *mag, size_t n, int plane, uint64_t *out)
    {
        // Shift the plane bit into the sign position and movemask K
        // lanes at a time into the packed word.
        size_t nw = (n + 63) / 64;
        size_t i = 0;
        for (size_t w = 0; w < nw; ++w) {
            size_t end = std::min(n, (w + 1) * 64);
            uint64_t bits = 0;
            int b = static_cast<int>(i - w * 64);
            for (; i + K <= end; i += K, b += K) {
                I v = T::iload(reinterpret_cast<const int32_t *>(mag + i));
                I m = T::isra(T::ishl(v, 31 - plane), 31);
                bits |= static_cast<uint64_t>(T::mask01(m)) << b;
            }
            for (; i < end; ++i, ++b)
                bits |= static_cast<uint64_t>((mag[i] >> plane) & 1u)
                        << b;
            out[w] = bits;
        }
    }

    static void
    centerF(const float *in, size_t n, float *out)
    {
        F half = T::fset(0.5f);
        size_t i = 0;
        for (; i + K <= n; i += K)
            T::fstore(out + i, T::fsub(T::fload(in + i), half));
        for (; i < n; ++i)
            out[i] = in[i] - 0.5f;
    }

    static void
    uncenterClampF(const float *in, size_t n, float lo, float hi,
                   float *out)
    {
        F half = T::fset(0.5f);
        F vlo = T::fset(lo);
        F vhi = T::fset(hi);
        size_t i = 0;
        for (; i + K <= n; i += K) {
            F v = T::fadd(T::fload(in + i), half);
            T::fstore(out + i, T::fmin_(T::fmax_(v, vlo), vhi));
        }
        for (; i < n; ++i) {
            float v = in[i] + 0.5f;
            v = v > lo ? v : lo;
            out[i] = v < hi ? v : hi;
        }
    }

};

/** Assemble the function table for one traits instantiation. */
template <class T>
const KernelTable *
makeTable(util::simd::Level level)
{
    using KT = Kernels<T>;
    static const KernelTable table = {
        level,           T::kWidth,     &KT::fwd97,        &KT::inv97,
        &KT::quantF32,   &KT::dequant97, &KT::maxU32,      &KT::bitplaneMask,
        &KT::centerF,    &KT::uncenterClampF,
    };
    return &table;
}

} // namespace earthplus::codec::kernels::detail

#endif // EARTHPLUS_CODEC_KERNELS_IMPL_HH
