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
//
// Convolution (implicit im2col). conv2d_range never writes the K x N
// im2col matrix: it copies the channels its k-range reads once into a
// zero-bordered (C', H+2p, W+2p) buffer and packs each kc x 16 panel of B
// straight from it, then runs the same tile driver (avx2_panels,
// instantiated with ImagePanels instead of MatrixPanels) and the same row
// loop for the column tail. A panel row is 16 consecutive output
// positions of one kernel tap; eight of them in one output row read eight
// floats stride apart in one padded input row: one load for stride 1, two
// loads and a shuffle for stride 2, a scalar gather otherwise. The padded
// copy holds the +0.0f that im2col writes for padding taps, so each packed
// value — and with it every output element's mul/add sequence — equals
// the explicit lowering.
//
// Depthwise convolution. A vector holds 8 outputs of one plane; each lane
// adds its taps in ascending (kh, kw) order, one mul then one add, as the
// generic loop does, and a tap on the padding is skipped, never multiplied
// (0 * inf is NaN). Two layouts, picked by the output width:
//  * OW >= 8: 8 consecutive outputs of one output row, read from a
//    zero-bordered copy of the plane as ImagePanels reads the image (one
//    load for stride 1, two loads and a shuffle for stride 2, a gather
//    otherwise). Tap rows outside the input are the same for the whole
//    row and are skipped as a whole; up to 4 rows with the same valid tap
//    rows run together, so 4 add chains hide the vaddps latency. Blocks
//    with every tap inside the input run plain mul and add; in an edge
//    block, a lane whose tap column lies on the padding keeps its
//    accumulator through a blendv of acc and acc + x*w.
//  * OW < 8 (MobileNetV2's 4x4 planes): 8 consecutive outputs of the plane,
//    across rows — one row per vector would leave half the lanes idle. A
//    lane's tap is valid when its row and its column are both inside the
//    input; a masked gather reads the valid taps straight from the plane
//    and the same blend keeps the others' accumulators.
// Lane masks come from each lane's coordinates by integer compares, so no
// geometry table is built: forward_row_cached calls this once per image
// with a single channel.
//
// Pooling. avg_pool2d holds 8 outputs of one output row in a vector, the
// last block of a row overlapping the one before it: one load per tap for
// stride 1, and for stride 2 load_even8 without its final permute, which
// runs once per block on the sum instead of once per tap. global_avg_pool holds one output of each of 8 planes and
// gathers their elements one index at a time, two blocks of planes at once
// so that two add chains are in flight. Each lane starts at +0.0f, adds its
// taps or elements in the generic loop's order with one vaddps each, and is
// multiplied once by the same reciprocal: outputs are vectorized across,
// never reassociated. Output rows narrower than 8, strides above 2 (no
// model has either) and the planes after the last block of 8 take the
// generic loop.

#include "kernels/registry.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "kernels/arena.hpp"

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

// The streaming row loop: one row of A at a time against B in place. C's
// rows are N apart, A's K apart and B's ldb apart.
__attribute__((target("avx2"))) void avx2_block(
    std::size_t m0, std::size_t m1, std::size_t k0, std::size_t k1,
    std::size_t n0, std::size_t n1, std::size_t N, std::size_t K,
    const float* A, const float* B, std::size_t ldb, float* C) {
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
                const float* brow = B + k * ldb + j;
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
                const float* brow = B + k * ldb + j;
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
                                      _mm256_loadu_ps(B + k * ldb + j)));
            }
            _mm256_storeu_ps(crow + j, c0);
        }
        // Scalar tail: ascending k per element, same skip.
        if (j < n1) {
            for (std::size_t k = k0; k < k1; ++k) {
                const float a = arow[k];
                if (a == 0.0f) continue;
                const float* brow = B + k * ldb;
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

// The plain GEMM's panel source: B's rows [k0, k0 + kc), 16 columns at a
// time, copied from B in place.
struct MatrixPanels {
    const float* b;  ///< B's row k0
    std::size_t N, kc;

    __attribute__((target("avx2"))) void pack(std::size_t j,
                                              float* panel) const {
        for (std::size_t k = 0; k < kc; ++k) {
            const float* brow = b + k * N + j;
            _mm256_store_ps(panel + k * kTileN, _mm256_loadu_ps(brow));
            _mm256_store_ps(panel + k * kTileN + 8, _mm256_loadu_ps(brow + 8));
        }
    }
};

// a[0], a[2], ..., a[14] with the middle 64-bit pairs swapped: lanes hold
// a[0], a[2], a[8], a[10], a[4], a[6], a[12], a[14]. Loads at +0 and +7
// cover elements 0..14, no further than the last one used: even lanes of
// the first, odd of the second.
__attribute__((target("avx2"))) inline __m256 load_even8_pairs(const float* a) {
    return _mm256_shuffle_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(a + 7),
                             _MM_SHUFFLE(3, 1, 2, 0));
}

// Swaps the middle 64-bit pairs of @p v: undoes load_even8_pairs' order.
__attribute__((target("avx2"))) inline __m256 swap_middle_pairs(__m256 v) {
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(v), _MM_SHUFFLE(3, 1, 2, 0)));
}

// a[0], a[2], ..., a[14] in order.
__attribute__((target("avx2"))) inline __m256 load_even8(const float* a) {
    return swap_middle_pairs(load_even8_pairs(a));
}

// The convolution's panel source: rows [k0, k0 + kc) of im2col(image),
// gathered from the zero-bordered copy of the image. B[k][n], for tap
// k = (c, kh, kw) and output n = (oy, ox), is padded[c][oy*s + kh][ox*s + kw]
// = padded[tap_[k] + origin(n)], with tap_[k] = (c*Hp + kh)*Wp + kw and
// origin(n) = oy*s*Wp + ox*s.
class ImagePanels {
public:
    ImagePanels(const ConvGeometry& g, const float* padded, std::size_t k0,
                std::size_t kc)
        : padded_(padded),
          ow_(g.out_width),
          stride_(g.stride),
          row_step_(g.stride * (g.width + 2 * g.padding)),
          kc_(kc) {
        const std::size_t wp = g.width + 2 * g.padding;
        const std::size_t plane = (g.height + 2 * g.padding) * wp;
        const std::size_t taps = g.kernel * g.kernel;
        // One division for the first tap, then (c, kh, kw) by counters.
        std::size_t kh = k0 % taps / g.kernel, kw = k0 % g.kernel;
        std::size_t base = k0 / taps * plane + kh * wp;
        for (std::size_t k = 0; k < kc; ++k) {
            tap_[k] = base + kw;
            if (++kw < g.kernel) continue;
            kw = 0;
            base += wp;
            if (++kh < g.kernel) continue;
            kh = 0;
            base += plane - g.kernel * wp;
        }
    }

    __attribute__((target("avx2"))) void pack(std::size_t j,
                                              float* panel) const {
        pack(j, kTileN, panel);
    }

    // Columns [j, j + width) of the panel (width <= 16); the rest of each
    // 16-float panel row is left as it was.
    __attribute__((target("avx2"))) void pack(std::size_t j,
                                              std::size_t width,
                                              float* panel) const {
        for (std::size_t h = 0; h < width; h += 8, j += 8) {
            const std::size_t count = std::min<std::size_t>(8, width - h);
            const std::size_t ox = j % ow_;
            const float* src = padded_ + j / ow_ * row_step_ + ox * stride_;
            float* dst = panel + h;
            const bool one_row = count == 8 && ox + 8 <= ow_;
            if (one_row && stride_ == 1) {
                for (std::size_t k = 0; k < kc_; ++k)
                    _mm256_store_ps(dst + k * kTileN,
                                    _mm256_loadu_ps(src + tap_[k]));
            } else if (one_row && stride_ == 2) {
                for (std::size_t k = 0; k < kc_; ++k)
                    _mm256_store_ps(dst + k * kTileN,
                                    load_even8(src + tap_[k]));
            } else {
                std::size_t origin[8];
                for (std::size_t q = 0; q < count; ++q)
                    origin[q] = (j + q) / ow_ * row_step_ +
                                (j + q) % ow_ * stride_;
                for (std::size_t k = 0; k < kc_; ++k)
                    for (std::size_t q = 0; q < count; ++q)
                        dst[k * kTileN + q] = padded_[origin[q] + tap_[k]];
            }
        }
    }

private:
    const float* padded_;
    std::size_t ow_, stride_, row_step_, kc_;
    std::size_t tap_[kBlockK];
};

// Columns [0, n16) of one k-block in register tiles: A points at the
// block's first column (rows K apart), panels.pack(j, panel) writes the
// block's kc x 16 panel of B at column j, and C's rows are N apart; n16 is
// a multiple of kTileN.
template <class Panels>
__attribute__((target("avx2"))) void avx2_panels(
    std::size_t M, std::size_t n16, std::size_t kc, const float* A,
    std::size_t K, const Panels& panels, float* C, std::size_t N) {
    alignas(32) float panel[kBlockK * kTileN];
    for (std::size_t m0 = 0; m0 < M; m0 += kChunkM) {
        const std::size_t m1 = std::min(m0 + kChunkM, M);
        bool checked[kChunkM / kTileM];
        for (std::size_t i = m0; i < m1; i += kTileM)
            checked[(i - m0) / kTileM] =
                avx2_has_zero(A + i * K, std::min(kTileM, m1 - i), kc, K);
        for (std::size_t j = 0; j < n16; j += kTileN) {
            panels.pack(j, panel);
            for (std::size_t i = m0; i < m1; i += kTileM) {
                const std::size_t rows = std::min(kTileM, m1 - i);
                const float* a = A + i * K;
                float* c = C + i * N + j;
                if (checked[(i - m0) / kTileM])
                    avx2_tile_rows<true>(rows, a, K, panel, kc, c, N);
                else
                    avx2_tile_rows<false>(rows, a, K, panel, kc, c, N);
            }
        }
    }
}

void avx2_gemm_range(std::size_t M, std::size_t N, std::size_t K,
                     std::size_t k0, std::size_t k1, const float* A,
                     const float* B, float* C) {
    const std::size_t n16 = M >= 2 ? N / kTileN * kTileN : 0;
    for (std::size_t kb = k0; kb < k1; kb += kBlockK) {
        const std::size_t ke = std::min(kb + kBlockK, k1);
        if (n16 > 0)
            avx2_panels(M, n16, ke - kb, A + kb, K,
                        MatrixPanels{B + kb * N, N, ke - kb}, C, N);
        for (std::size_t m0 = 0; m0 < M; m0 += kBlockM) {
            const std::size_t m1 = std::min(m0 + kBlockM, M);
            for (std::size_t n0 = n16; n0 < N; n0 += kBlockN) {
                const std::size_t n1 = std::min(n0 + kBlockN, N);
                avx2_block(m0, m1, kb, ke, n0, n1, N, K, A, B, N, C);
            }
        }
    }
}

// The g.channels planes of @p image, copied into the interiors of the
// (H+2p) x (W+2p) planes of @p dst. The border cells are never written: the
// caller zeroes them once, and they stay zero for every later copy into
// the same buffer.
__attribute__((target("avx2"))) void copy_inside_border(const ConvGeometry& g,
                                                        const float* image,
                                                        float* dst) {
    const std::size_t w = g.width, p = g.padding, pitch = w + 2 * p;
    for (std::size_t c = 0; c < g.channels; ++c) {
        float* row = dst + (c * (g.height + 2 * p) + p) * pitch + p;
        for (std::size_t y = 0; y < g.height; ++y, image += w, row += pitch) {
            if (w < 8) {
                std::copy_n(image, w, row);
                continue;
            }
            // 8 floats at a time, the last 8 overlapping the ones before.
            for (std::size_t x = 0;; x += 8) {
                const std::size_t o = std::min(x, w - 8);
                _mm256_storeu_ps(row + o, _mm256_loadu_ps(image + o));
                if (o + 8 >= w) break;
            }
        }
    }
}

// Every output tile, M == 1 included, runs over panels packed from the
// image, since packing is the only copy of the input this path makes; the
// N mod 16 tail is packed into a 16-wide panel too and streamed by rows.
// Only the channels the range [k0, k1) reads are copied: the panels index
// a sub-image that starts at the range's first channel.
__attribute__((target("avx2"))) void avx2_conv2d_range(
    const ConvGeometry& g, std::size_t M, std::size_t k0, std::size_t k1,
    const float* weight, const float* image, float* out, ScratchArena& arena) {
    if (k0 >= k1) return;
    const std::size_t taps = g.kernel * g.kernel;
    const std::size_t K = g.channels * taps;
    const std::size_t N = g.out_height * g.out_width;
    const std::size_t n16 = N / kTileN * kTileN;
    const std::size_t c0 = k0 / taps;
    ConvGeometry sub = g;
    sub.channels = (k1 + taps - 1) / taps - c0;
    const float* padded = image + c0 * g.height * g.width;
    if (g.padding > 0) {
        const std::size_t size = sub.channels * (g.height + 2 * g.padding) *
                                 (g.width + 2 * g.padding);
        float* buf = arena.floats(size);
        std::fill_n(buf, size, 0.0f);
        copy_inside_border(sub, padded, buf);
        padded = buf;
    }
    alignas(32) float tail[kBlockK * kTileN];
    for (std::size_t kb = k0; kb < k1; kb += kBlockK) {
        const std::size_t kc = std::min(kBlockK, k1 - kb);
        const ImagePanels panels(sub, padded, kb - c0 * taps, kc);
        avx2_panels(M, n16, kc, weight + kb, K, panels, out, N);
        if (n16 < N) {
            panels.pack(n16, N - n16, tail);
            avx2_block(0, M, 0, kc, 0, N - n16, N, K, weight + kb, tail,
                       kTileN, out + n16);
        }
    }
}

// All-ones lanes where 0 <= v < n, given n - 1 >= 0: an unsigned compare,
// so a negative v (wrapped above n - 1) falls outside.
__attribute__((target("avx2"))) inline __m256 lanes_below(__m256i v,
                                                          __m256i n_minus_1) {
    return _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(_mm256_min_epu32(v, n_minus_1), v));
}

// One plane in the depthwise row layout, read from @p plane: the
// zero-bordered copy of the input plane, or the plane itself when p == 0.
struct DepthwiseRows {
    const float* plane;
    std::size_t pitch;   ///< row pitch of plane: W + 2p
    std::size_t stride, kernel;
    const float* taps;   ///< the channel's K*K weights
    __m256i lane_cols;   ///< lane i * stride
    __m256i width_m1;    ///< W - 1
};

// The 8 inputs a[0], a[s], ..., a[7s], loaded as ImagePanels packs them.
__attribute__((target("avx2"))) inline __m256 load_strided(
    const DepthwiseRows& d, const float* a) {
    if (d.stride == 1) return _mm256_loadu_ps(a);
    if (d.stride == 2) return load_even8(a);
    return _mm256_i32gather_ps(a, d.lane_cols, 4);
}

// R output rows (s*pitch apart in @p src, ow apart in @p dst) at one block
// of 8 columns, over tap rows [kh0, kh1), the rows inside the input for all
// R. @p src is the padded input under the block's tap (0, 0) and @p cols
// holds each lane's input column of tap kw = 0. An Edge block has a lane
// whose tap column lies on the padding for some kw.
template <std::size_t R, bool Edge>
__attribute__((target("avx2"))) void depthwise_row_tile(
    const DepthwiseRows& d, const float* src, std::size_t kh0,
    std::size_t kh1, __m256i cols, float* dst, std::size_t ow) {
    const std::size_t row_step = d.stride * d.pitch;
    __m256 acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
    for (std::size_t kh = kh0; kh < kh1; ++kh) {
        const float* a = src + kh * d.pitch;
        for (std::size_t kw = 0; kw < d.kernel; ++kw, ++a) {
            const __m256 w = _mm256_broadcast_ss(d.taps + kh * d.kernel + kw);
            __m256 inside = _mm256_setzero_ps();
            if constexpr (Edge)
                inside = lanes_below(
                    _mm256_add_epi32(cols, _mm256_set1_epi32(static_cast<int>(kw))),
                    d.width_m1);
            for (std::size_t r = 0; r < R; ++r) {
                const __m256 sum = _mm256_add_ps(
                    acc[r], _mm256_mul_ps(load_strided(d, a + r * row_step), w));
                acc[r] = Edge ? _mm256_blendv_ps(acc[r], sum, inside) : sum;
            }
        }
    }
    for (std::size_t r = 0; r < R; ++r) _mm256_storeu_ps(dst + r * ow, acc[r]);
}

template <bool Edge>
__attribute__((target("avx2"))) void depthwise_row_tiles(
    std::size_t rows, const DepthwiseRows& d, const float* src,
    std::size_t kh0, std::size_t kh1, __m256i cols, float* dst,
    std::size_t ow) {
    switch (rows) {
        case 4: return depthwise_row_tile<4, Edge>(d, src, kh0, kh1, cols, dst, ow);
        case 3: return depthwise_row_tile<3, Edge>(d, src, kh0, kh1, cols, dst, ow);
        case 2: return depthwise_row_tile<2, Edge>(d, src, kh0, kh1, cols, dst, ow);
        default: return depthwise_row_tile<1, Edge>(d, src, kh0, kh1, cols, dst, ow);
    }
}

// The row layout over one plane (OW >= 8), up to 4 rows at a time where
// their valid tap rows agree. The last block of a row overlaps the one
// before it rather than running short.
__attribute__((target("avx2"))) void depthwise_rows(const ConvGeometry& g,
                                                    const DepthwiseRows& d,
                                                    float* out) {
    using I = std::ptrdiff_t;
    const auto k = static_cast<I>(g.kernel), s = static_cast<I>(g.stride),
               p = static_cast<I>(g.padding), h = static_cast<I>(g.height),
               w = static_cast<I>(g.width);
    const std::size_t ow = g.out_width;
    // Tap rows [first, last) of output row oy lie inside the input.
    const auto first = [&](std::size_t oy) {
        return static_cast<std::size_t>(std::clamp<I>(p - static_cast<I>(oy) * s, 0, k));
    };
    const auto last = [&](std::size_t oy) {
        return static_cast<std::size_t>(
            std::clamp<I>(h + p - static_cast<I>(oy) * s, 0, k));
    };
    for (std::size_t oy = 0; oy < g.out_height;) {
        const std::size_t kh0 = first(oy), kh1 = last(oy);
        std::size_t rows = 1;
        while (rows < 4 && oy + rows < g.out_height && first(oy + rows) == kh0 &&
               last(oy + rows) == kh1)
            ++rows;
        for (std::size_t x = 0;; x += 8) {
            const std::size_t ox = std::min(x, ow - 8);
            const I col = static_cast<I>(ox) * s - p;
            const bool edge = col < 0 || col + 7 * s + k > w;
            const __m256i cols = _mm256_add_epi32(
                _mm256_set1_epi32(static_cast<int>(col)), d.lane_cols);
            const float* src = d.plane + oy * g.stride * d.pitch + ox * g.stride;
            float* dst = out + oy * ow + ox;
            if (edge)
                depthwise_row_tiles<true>(rows, d, src, kh0, kh1, cols, dst, ow);
            else
                depthwise_row_tiles<false>(rows, d, src, kh0, kh1, cols, dst, ow);
            if (ox + 8 >= ow) break;
        }
        oy += rows;
    }
}

// One plane in the depthwise multi-row layout (OW < 8).
struct DepthwiseLanes {
    const float* plane;  ///< the input plane itself (H x W)
    const float* taps;
    std::size_t kernel;
    int width;
    __m256i height_m1, width_m1;
};

// V vectors of 8 consecutive outputs at @p dst, of which the first @p count
// are stored. @p iy and @p ix hold each lane's input row and column of tap
// (0, 0).
template <std::size_t V>
__attribute__((target("avx2"))) void depthwise_lane_tile(
    const DepthwiseLanes& d, const __m256i* iy, const __m256i* ix, float* dst,
    std::size_t count) {
    const __m256 zero = _mm256_setzero_ps();
    __m256 acc[V];
    __m256i origin[V];
    for (std::size_t v = 0; v < V; ++v) {
        acc[v] = zero;
        origin[v] = _mm256_add_epi32(
            _mm256_mullo_epi32(iy[v], _mm256_set1_epi32(d.width)), ix[v]);
    }
    for (std::size_t kh = 0; kh < d.kernel; ++kh) {
        const __m256i dy = _mm256_set1_epi32(static_cast<int>(kh));
        __m256 row_ok[V];
        for (std::size_t v = 0; v < V; ++v)
            row_ok[v] = lanes_below(_mm256_add_epi32(iy[v], dy), d.height_m1);
        for (std::size_t kw = 0; kw < d.kernel; ++kw) {
            const __m256 w = _mm256_broadcast_ss(d.taps + kh * d.kernel + kw);
            const __m256i dx = _mm256_set1_epi32(static_cast<int>(kw));
            const __m256i tap =
                _mm256_set1_epi32(static_cast<int>(kh) * d.width + static_cast<int>(kw));
            for (std::size_t v = 0; v < V; ++v) {
                const __m256 valid = _mm256_and_ps(
                    row_ok[v],
                    lanes_below(_mm256_add_epi32(ix[v], dx), d.width_m1));
                const __m256 x = _mm256_mask_i32gather_ps(
                    zero, d.plane, _mm256_add_epi32(origin[v], tap), valid, 4);
                acc[v] = _mm256_blendv_ps(
                    acc[v], _mm256_add_ps(acc[v], _mm256_mul_ps(x, w)), valid);
            }
        }
    }
    for (std::size_t v = 0; v < V; ++v, dst += 8) {
        if (count >= 8) {
            _mm256_storeu_ps(dst, acc[v]);
            count -= 8;
        } else {
            const __m256i keep = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(count)),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            _mm256_maskstore_ps(dst, keep, acc[v]);
            count = 0;
        }
    }
}

// Each lane's input row and column of tap (0, 0) over 8 consecutive
// outputs of an OW-wide plane, from outputs 0..7 on, moved 8 outputs at a
// time without a division.
struct LaneWalk {
    __m256i iy, ix;
    __m256i step_y, step_x, wrap_x, last_x, next_y;

    __attribute__((target("avx2"))) explicit LaneWalk(const ConvGeometry& g) {
        const int s = static_cast<int>(g.stride);
        const int p = static_cast<int>(g.padding);
        const int ow = static_cast<int>(g.out_width);
        alignas(32) int rows[8], cols[8];
        for (int q = 0, oy = 0, ox = 0; q < 8; ++q) {
            rows[q] = oy * s - p;
            cols[q] = ox * s - p;
            if (++ox == ow) {
                ox = 0;
                ++oy;
            }
        }
        iy = _mm256_load_si256(reinterpret_cast<const __m256i*>(rows));
        ix = _mm256_load_si256(reinterpret_cast<const __m256i*>(cols));
        step_y = _mm256_set1_epi32(8 / ow * s);
        step_x = _mm256_set1_epi32(8 % ow * s);
        wrap_x = _mm256_set1_epi32(ow * s);
        last_x = _mm256_set1_epi32((ow - 1) * s - p);
        next_y = _mm256_set1_epi32(s);
    }

    __attribute__((target("avx2"))) void advance() {
        ix = _mm256_add_epi32(ix, step_x);
        iy = _mm256_add_epi32(iy, step_y);
        const __m256i carry = _mm256_cmpgt_epi32(ix, last_x);
        ix = _mm256_sub_epi32(ix, _mm256_and_si256(carry, wrap_x));
        iy = _mm256_add_epi32(iy, _mm256_and_si256(carry, next_y));
    }
};

// The multi-row layout over one plane, two vectors at a time.
__attribute__((target("avx2"))) void depthwise_lanes(const ConvGeometry& g,
                                                     const DepthwiseLanes& d,
                                                     float* out) {
    LaneWalk walk(g);
    const std::size_t n = g.out_height * g.out_width;
    for (std::size_t n0 = 0; n0 < n; n0 += 16) {
        __m256i iy[2], ix[2];
        iy[0] = walk.iy, ix[0] = walk.ix;
        if (n0 + 8 >= n) {
            depthwise_lane_tile<1>(d, iy, ix, out + n0, n - n0);
            break;
        }
        walk.advance();
        iy[1] = walk.iy, ix[1] = walk.ix;
        walk.advance();
        depthwise_lane_tile<2>(d, iy, ix, out + n0, n - n0);
    }
}

// Every plane in the layout its output width picks. The row layout reads a
// zero-bordered copy of each plane (none when p == 0), whose border is
// zeroed once per call.
__attribute__((target("avx2"))) void avx2_depthwise_conv2d(
    const ConvGeometry& g, const float* weight, const float* image, float* out,
    ScratchArena& arena) {
    const std::size_t taps = g.kernel * g.kernel;
    const std::size_t in_plane = g.height * g.width;
    const std::size_t out_plane = g.out_height * g.out_width;
    const __m256i width_m1 = _mm256_set1_epi32(static_cast<int>(g.width) - 1);
    if (g.out_width < 8) {
        DepthwiseLanes d{nullptr, nullptr, g.kernel, static_cast<int>(g.width),
                         _mm256_set1_epi32(static_cast<int>(g.height) - 1),
                         width_m1};
        for (std::size_t c = 0; c < g.channels; ++c) {
            d.plane = image + c * in_plane;
            d.taps = weight + c * taps;
            depthwise_lanes(g, d, out + c * out_plane);
        }
        return;
    }
    ConvGeometry plane = g;
    plane.channels = 1;
    const std::size_t pitch = g.width + 2 * g.padding;
    float* padded = nullptr;
    if (g.padding > 0) {
        const std::size_t size = (g.height + 2 * g.padding) * pitch;
        padded = arena.floats(size);
        std::fill_n(padded, size, 0.0f);
    }
    DepthwiseRows d{nullptr, pitch, g.stride, g.kernel, nullptr,
                    _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                       _mm256_set1_epi32(static_cast<int>(g.stride))),
                    width_m1};
    for (std::size_t c = 0; c < g.channels; ++c) {
        d.plane = image + c * in_plane;
        if (padded) {
            copy_inside_border(plane, d.plane, padded);
            d.plane = padded;
        }
        d.taps = weight + c * taps;
        depthwise_rows(g, d, out + c * out_plane);
    }
}

// One plane's k x k average pool with stride S (1 or 2), OW >= 8: 8
// consecutive outputs of one output row per vector, the last block of a row
// overlapping the one before it rather than running short. Stride 2 sums
// its lanes in load_even8_pairs' order and puts them in order once, at the
// store.
template <std::size_t S>
__attribute__((target("avx2"))) void avg_pool_plane(const ConvGeometry& g,
                                                    const float* in,
                                                    float* out, __m256 inv) {
    const std::size_t k = g.kernel, w = g.width, ow = g.out_width;
    for (std::size_t oy = 0; oy < g.out_height; ++oy, out += ow) {
        const float* row = in + oy * S * w;
        for (std::size_t x = 0;; x += 8) {
            const std::size_t ox = std::min(x, ow - 8);
            const float* a = row + ox * S;
            __m256 acc = _mm256_setzero_ps();
            for (std::size_t kh = 0; kh < k; ++kh, a += w)
                for (std::size_t kw = 0; kw < k; ++kw)
                    acc = _mm256_add_ps(acc, S == 1
                                                 ? _mm256_loadu_ps(a + kw)
                                                 : load_even8_pairs(a + kw));
            if constexpr (S == 2) acc = swap_middle_pairs(acc);
            _mm256_storeu_ps(out + ox, _mm256_mul_ps(acc, inv));
            if (ox + 8 >= ow) break;
        }
    }
}

// Strides above 2 and rows narrower than a vector: no model pools that way.
__attribute__((target("avx2"))) void avx2_avg_pool2d(const ConvGeometry& g,
                                                     const float* in,
                                                     float* out) {
    if (g.out_width < 8 || g.stride > 2)
        return generic_kernels().avg_pool2d(g, in, out);
    const __m256 inv =
        _mm256_set1_ps(1.0f / static_cast<float>(g.kernel * g.kernel));
    const std::size_t in_plane = g.height * g.width;
    const std::size_t out_plane = g.out_height * g.out_width;
    for (std::size_t c = 0; c < g.channels; ++c) {
        if (g.stride == 1)
            avg_pool_plane<1>(g, in + c * in_plane, out + c * out_plane, inv);
        else
            avg_pool_plane<2>(g, in + c * in_plane, out + c * out_plane, inv);
    }
}

// Lane i of a vector is plane i of a block of 8, gathered at one element
// index; two blocks run at once, so two add chains are in flight. The
// planes left over after the last full block take the generic loop.
__attribute__((target("avx2"))) void avx2_global_avg_pool(std::size_t planes,
                                                          std::size_t plane,
                                                          const float* in,
                                                          float* out) {
    // Gather indices reach 7 * plane as int32.
    if (plane > static_cast<std::size_t>(INT32_MAX) / 8)
        return generic_kernels().global_avg_pool(planes, plane, in, out);
    const __m256 inv = _mm256_set1_ps(1.0f / static_cast<float>(plane));
    const __m256i lanes =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int>(plane)));
    const std::size_t block = 8 * plane;
    std::size_t p = 0;
    for (; p + 16 <= planes; p += 16) {
        const float* a = in + p * plane;
        __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
        for (std::size_t i = 0; i < plane; ++i) {
            acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(a + i, lanes, 4));
            acc1 = _mm256_add_ps(acc1,
                                 _mm256_i32gather_ps(a + block + i, lanes, 4));
        }
        _mm256_storeu_ps(out + p, _mm256_mul_ps(acc0, inv));
        _mm256_storeu_ps(out + p + 8, _mm256_mul_ps(acc1, inv));
    }
    if (p + 8 <= planes) {
        const float* a = in + p * plane;
        __m256 acc = _mm256_setzero_ps();
        for (std::size_t i = 0; i < plane; ++i)
            acc = _mm256_add_ps(acc, _mm256_i32gather_ps(a + i, lanes, 4));
        _mm256_storeu_ps(out + p, _mm256_mul_ps(acc, inv));
        p += 8;
    }
    if (p < planes)
        generic_kernels().global_avg_pool(planes - p, plane, in + p * plane,
                                          out + p);
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
    "avx2",            avx2_gemm_range,
    avx2_conv2d_range, avx2_depthwise_conv2d,
    avx2_avg_pool2d,   avx2_global_avg_pool,
    avx2_relu,         avx2_relu6,
    avx2_add,          avx2_clamp,
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
