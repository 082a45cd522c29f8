// AVX2 backend (x86 only). Compiled in every build — code generation is
// gated per-function with __attribute__((target("avx2"))) instead of a
// global -mavx2, so the binary still runs on pre-AVX2 machines (the
// registry simply never selects this table there).
//
// Bit-identity rules (see registry.hpp):
//  * target("avx2") only, never target("fma"), and this translation unit is
//    compiled with -ffp-contract=off: a fused multiply-add rounds once
//    where the generic backend's mul+add rounds twice, which would make the
//    backends diverge in the last ulp — fatal for campaign determinism;
//  * vectorization is across independent output elements only; each C[i,j]
//    accumulates its K products in ascending-k order, exactly like the
//    generic i-k-j nest (the register tile is loaded from C before the k
//    loop and stored after it, so the per-element addition sequence is
//    unchanged);
//  * the a == 0.0f skip is a scalar test on the broadcast operand — the
//    same condition the generic kernel uses — because skipping a zero
//    multiplier is NOT equivalent to adding 0*b when b is inf/NaN.
//
// GEMM layout. For M >= 2, C is computed in 6x16 register tiles (twelve
// ymm accumulators). Per k-block and 96-row chunk of A, each 16-column
// panel of B is copied once into a 16 KiB aligned stack buffer, and every
// row tile of the chunk runs over that buffer with A broadcast in place, so
// B is read once per panel and chunk rather than once per row of A. The
// tiles partition i and j only: each C[i,j] still sees one mul, then one
// add, per k in ascending order — the same sequence the generic kernel
// produces — whatever order the tiles run in. The zero skip stays per
// (row, k): one vector-compare pass per k-block and chunk marks the tiles
// whose 6xkc block of A holds a zero, those run a copy of the loop that
// tests each row, and all other tiles run branch-free. The per-row test
// costs a scalar compare and two branches per row and k; fp32 conv weights
// almost never hold an exact zero, and skipping the test ran ResNet-20
// campaigns 1.27x faster on a 4-vCPU AVX2 Xeon (DESIGN.md decision 15).
// M == 1 (the ensemble's forward_row) and the N mod 16 column tail take
// the streaming row loop (avx2_block).

#include "kernels/registry.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

namespace statfi::kernels {

namespace {

// Same blocking as the generic backend: per element, k-blocks ascend, so
// the two backends interleave identically at every scale.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockN = 256;

// Register tile of the M >= 2 path, and the rows whose tiles share one
// zero scan and one packed panel (a multiple of kTileM, so only a GEMM's
// last chunk can end in a short tile).
constexpr std::size_t kTileM = 6;
constexpr std::size_t kTileN = 16;
constexpr std::size_t kChunkM = 16 * kTileM;

// The streaming row loop: one row of A at a time against B in place.
__attribute__((target("avx2"))) void avx2_block(
    std::size_t m0, std::size_t m1, std::size_t k0, std::size_t k1,
    std::size_t n0, std::size_t n1, std::size_t N, std::size_t K,
    const float* A, const float* B, float* C) {
    for (std::size_t i = m0; i < m1; ++i) {
        const float* arow = A + i * K;
        float* crow = C + i * N;
        std::size_t j = n0;
        // 32-wide register tile: four ymm accumulators seeded from C. Four
        // independent add chains hide the vaddps latency the 16-wide tile
        // is bound by — each chain still adds its K products in ascending-k
        // order, so widening across j never reorders an element's sums.
        for (; j + 32 <= n1; j += 32) {
            __m256 c0 = _mm256_loadu_ps(crow + j);
            __m256 c1 = _mm256_loadu_ps(crow + j + 8);
            __m256 c2 = _mm256_loadu_ps(crow + j + 16);
            __m256 c3 = _mm256_loadu_ps(crow + j + 24);
            for (std::size_t k = k0; k < k1; ++k) {
                const float a = arow[k];
                if (a == 0.0f) continue;
                const __m256 va = _mm256_set1_ps(a);
                const float* brow = B + k * N + j;
                c0 = _mm256_add_ps(c0,
                                   _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
                c1 = _mm256_add_ps(
                    c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
                c2 = _mm256_add_ps(
                    c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
                c3 = _mm256_add_ps(
                    c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
            }
            _mm256_storeu_ps(crow + j, c0);
            _mm256_storeu_ps(crow + j + 8, c1);
            _mm256_storeu_ps(crow + j + 16, c2);
            _mm256_storeu_ps(crow + j + 24, c3);
        }
        // 16-wide register tile: two ymm accumulators seeded from C, one
        // mul+add per k, stored back once per tile.
        for (; j + 16 <= n1; j += 16) {
            __m256 c0 = _mm256_loadu_ps(crow + j);
            __m256 c1 = _mm256_loadu_ps(crow + j + 8);
            for (std::size_t k = k0; k < k1; ++k) {
                const float a = arow[k];
                if (a == 0.0f) continue;
                const __m256 va = _mm256_set1_ps(a);
                const float* brow = B + k * N + j;
                c0 = _mm256_add_ps(c0,
                                   _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
                c1 = _mm256_add_ps(
                    c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
            }
            _mm256_storeu_ps(crow + j, c0);
            _mm256_storeu_ps(crow + j + 8, c1);
        }
        for (; j + 8 <= n1; j += 8) {
            __m256 c0 = _mm256_loadu_ps(crow + j);
            for (std::size_t k = k0; k < k1; ++k) {
                const float a = arow[k];
                if (a == 0.0f) continue;
                c0 = _mm256_add_ps(
                    c0, _mm256_mul_ps(_mm256_set1_ps(a),
                                      _mm256_loadu_ps(B + k * N + j)));
            }
            _mm256_storeu_ps(crow + j, c0);
        }
        // Scalar tail: ascending k per element, same skip.
        if (j < n1) {
            for (std::size_t k = k0; k < k1; ++k) {
                const float a = arow[k];
                if (a == 0.0f) continue;
                const float* brow = B + k * N;
                for (std::size_t jj = j; jj < n1; ++jj)
                    crow[jj] += a * brow[jj];
            }
        }
    }
}

// C[0:MR, 0:16] += a[0:MR, 0:kc] * panel, with a's rows K apart and C's N
// apart; panel holds kc rows of 16 packed floats. Checked tiles skip each
// a == 0 product exactly as the generic kernel does.
// noinline keeps the twelve accumulators in registers: inlined into
// avx2_panels, GCC spills one of them on every k.
template <std::size_t MR, bool Checked>
__attribute__((target("avx2"), noinline)) void avx2_tile(
    const float* a, std::size_t K, const float* panel, std::size_t kc,
    float* c, std::size_t N) {
    __m256 acc[MR][2];
#pragma GCC unroll 6
    for (std::size_t r = 0; r < MR; ++r) {
        acc[r][0] = _mm256_loadu_ps(c + r * N);
        acc[r][1] = _mm256_loadu_ps(c + r * N + 8);
    }
    for (std::size_t k = 0; k < kc; ++k) {
        const __m256 b0 = _mm256_load_ps(panel + k * kTileN);
        const __m256 b1 = _mm256_load_ps(panel + k * kTileN + 8);
#pragma GCC unroll 6
        for (std::size_t r = 0; r < MR; ++r) {
            const float ar = a[r * K + k];
            if constexpr (Checked) {
                if (ar == 0.0f) continue;
            }
            const __m256 va = _mm256_set1_ps(ar);
            acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(va, b0));
            acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(va, b1));
        }
    }
#pragma GCC unroll 6
    for (std::size_t r = 0; r < MR; ++r) {
        _mm256_storeu_ps(c + r * N, acc[r][0]);
        _mm256_storeu_ps(c + r * N + 8, acc[r][1]);
    }
}

// avx2_tile for a runtime row count rows <= MR.
template <bool Checked, std::size_t MR = kTileM>
__attribute__((target("avx2"))) void avx2_tile_rows(
    std::size_t rows, const float* a, std::size_t K, const float* panel,
    std::size_t kc, float* c, std::size_t N) {
    if constexpr (MR > 1) {
        if (rows < MR)
            return avx2_tile_rows<Checked, MR - 1>(rows, a, K, panel, kc, c, N);
    }
    avx2_tile<MR, Checked>(a, K, panel, kc, c, N);
}

// True when a[0:rows, 0:kc] (rows K apart) holds a zero of either sign.
__attribute__((target("avx2"))) bool avx2_has_zero(const float* a,
                                                   std::size_t rows,
                                                   std::size_t kc,
                                                   std::size_t K) {
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t r = 0; r < rows; ++r, a += K) {
        __m256 hit = zero;
        std::size_t k = 0;
        for (; k + 8 <= kc; k += 8)
            hit = _mm256_or_ps(hit, _mm256_cmp_ps(_mm256_loadu_ps(a + k), zero,
                                                  _CMP_EQ_OQ));
        if (_mm256_movemask_ps(hit) != 0) return true;
        for (; k < kc; ++k)
            if (a[k] == 0.0f) return true;
    }
    return false;
}

// Columns [0, n16) of one k-block [k0, k1) in register tiles; n16 is a
// multiple of kTileN.
__attribute__((target("avx2"))) void avx2_panels(
    std::size_t M, std::size_t n16, std::size_t k0, std::size_t k1,
    std::size_t N, std::size_t K, const float* A, const float* B, float* C) {
    alignas(32) float panel[kBlockK * kTileN];
    const std::size_t kc = k1 - k0;
    for (std::size_t m0 = 0; m0 < M; m0 += kChunkM) {
        const std::size_t m1 = std::min(m0 + kChunkM, M);
        bool checked[kChunkM / kTileM];
        for (std::size_t i = m0; i < m1; i += kTileM)
            checked[(i - m0) / kTileM] = avx2_has_zero(
                A + i * K + k0, std::min(kTileM, m1 - i), kc, K);
        for (std::size_t j = 0; j < n16; j += kTileN) {
            for (std::size_t k = 0; k < kc; ++k) {
                const float* brow = B + (k0 + k) * N + j;
                _mm256_store_ps(panel + k * kTileN, _mm256_loadu_ps(brow));
                _mm256_store_ps(panel + k * kTileN + 8,
                                _mm256_loadu_ps(brow + 8));
            }
            for (std::size_t i = m0; i < m1; i += kTileM) {
                const std::size_t rows = std::min(kTileM, m1 - i);
                const float* a = A + i * K + k0;
                float* c = C + i * N + j;
                if (checked[(i - m0) / kTileM])
                    avx2_tile_rows<true>(rows, a, K, panel, kc, c, N);
                else
                    avx2_tile_rows<false>(rows, a, K, panel, kc, c, N);
            }
        }
    }
}

void avx2_gemm_accumulate(std::size_t M, std::size_t N, std::size_t K,
                          const float* A, const float* B, float* C) {
    const std::size_t n16 = M >= 2 ? N / kTileN * kTileN : 0;
    for (std::size_t k0 = 0; k0 < K; k0 += kBlockK) {
        const std::size_t k1 = std::min(k0 + kBlockK, K);
        if (n16 > 0) avx2_panels(M, n16, k0, k1, N, K, A, B, C);
        for (std::size_t m0 = 0; m0 < M; m0 += kBlockM) {
            const std::size_t m1 = std::min(m0 + kBlockM, M);
            for (std::size_t n0 = n16; n0 < N; n0 += kBlockN) {
                const std::size_t n1 = std::min(n0 + kBlockN, N);
                avx2_block(m0, m1, k0, k1, n0, n1, N, K, A, B, C);
            }
        }
    }
}

// maxps/minps return the SECOND operand when the inputs are NaN or equal,
// which is exactly what reproduces the scalar semantics below.

__attribute__((target("avx2"))) void avx2_relu(const float* src, float* dst,
                                               std::size_t n) {
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    // max(x, 0): NaN -> 0 and -0 -> +0, matching `x > 0 ? x : 0`.
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(src + i), zero));
    for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

__attribute__((target("avx2"))) void avx2_relu6(const float* src, float* dst,
                                                std::size_t n) {
    const __m256 lo = _mm256_setzero_ps();
    const __m256 hi = _mm256_set1_ps(6.0f);
    std::size_t i = 0;
    // max(lo, min(hi, x)): NaN passes through, matching std::clamp.
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(dst + i, _mm256_max_ps(lo, _mm256_min_ps(hi, x)));
    }
    for (; i < n; ++i) dst[i] = std::clamp(src[i], 0.0f, 6.0f);
}

__attribute__((target("avx2"))) void avx2_add(const float* a, const float* b,
                                              float* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            dst + i,
            _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) dst[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void avx2_clamp(float* data, std::size_t n,
                                                float lo, float hi) {
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vhi = _mm256_set1_ps(hi);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(data + i);
        _mm256_storeu_ps(data + i, _mm256_max_ps(vlo, _mm256_min_ps(vhi, x)));
    }
    for (; i < n; ++i) data[i] = std::clamp(data[i], lo, hi);
}

const Kernels kAvx2Table{
    "avx2", avx2_gemm_accumulate, avx2_relu, avx2_relu6, avx2_add, avx2_clamp,
};

}  // namespace

const Kernels* native_kernels() noexcept {
    return detect_cpu().avx2 ? &kAvx2Table : nullptr;
}

}  // namespace statfi::kernels

#else  // non-x86 builds have no native backend

namespace statfi::kernels {
const Kernels* native_kernels() noexcept { return nullptr; }
}  // namespace statfi::kernels

#endif
