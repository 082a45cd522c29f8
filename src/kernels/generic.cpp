// Generic (portable) backend: the reference implementations every other
// backend must match bit for bit. The GEMM is the cache-blocked i-k-j nest
// that previously lived in nn/gemm.cpp; the compiler auto-vectorizes the
// inner loop (SSE on x86 baselines) without changing results, because each
// output element's additions stay in ascending-k order. Both run over a
// k-range: a convolution is lowered explicitly, the im2col rows its range
// reads, then that GEMM over them. A depthwise convolution is the
// direct loop nest, one branch per tap skipping those on the padding. The
// pooling loops sum one output at a time in a single float chain.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/arena.hpp"
#include "kernels/registry.hpp"

namespace statfi::kernels {

namespace {

// Block sizes tuned for ~32 KiB L1 / 256 KiB L2.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockN = 256;

// C[M,N] += A[M, 0:kc] * B[0:kc, N], A's rows lda apart and B's N apart:
// the callers point A at column k0 and B at row k0 of their range.
void gemm_block(std::size_t m0, std::size_t m1, std::size_t k0, std::size_t k1,
                std::size_t n0, std::size_t n1, std::size_t N, std::size_t lda,
                const float* A, const float* B, float* C) {
    for (std::size_t i = m0; i < m1; ++i) {
        for (std::size_t k = k0; k < k1; ++k) {
            const float a = A[i * lda + k];
            if (a == 0.0f) continue;  // common after ReLU-sparsified inputs
            const float* brow = B + k * N;
            float* crow = C + i * N;
            for (std::size_t j = n0; j < n1; ++j) crow[j] += a * brow[j];
        }
    }
}

void gemm_blocks(std::size_t M, std::size_t N, std::size_t lda, std::size_t kc,
                 const float* A, const float* B, float* C) {
    for (std::size_t k0 = 0; k0 < kc; k0 += kBlockK) {
        const std::size_t k1 = std::min(k0 + kBlockK, kc);
        for (std::size_t m0 = 0; m0 < M; m0 += kBlockM) {
            const std::size_t m1 = std::min(m0 + kBlockM, M);
            for (std::size_t n0 = 0; n0 < N; n0 += kBlockN) {
                const std::size_t n1 = std::min(n0 + kBlockN, N);
                gemm_block(m0, m1, k0, k1, n0, n1, N, lda, A, B, C);
            }
        }
    }
}

void generic_gemm_range(std::size_t M, std::size_t N, std::size_t K,
                        std::size_t k0, std::size_t k1, const float* A,
                        const float* B, float* C) {
    if (k0 < k1) gemm_blocks(M, N, K, k1 - k0, A + k0, B + k0 * N, C);
}

// Rows [k0, k1) of the im2col matrix into @p cols, row k0 first. A row is
// one tap (c, kh, kw); the tap is stepped with counters.
void im2col_rows(const ConvGeometry& g, const float* image, std::size_t k0,
                 std::size_t k1, float* cols) {
    const auto height = static_cast<std::int64_t>(g.height);
    const auto width = static_cast<std::int64_t>(g.width);
    const auto stride = static_cast<std::int64_t>(g.stride);
    const auto padding = static_cast<std::int64_t>(g.padding);
    const auto oh = static_cast<std::int64_t>(g.out_height);
    const auto ow = static_cast<std::int64_t>(g.out_width);
    const std::size_t taps = g.kernel * g.kernel;
    std::size_t c = k0 / taps, kh = k0 % taps / g.kernel, kw = k0 % g.kernel;
    for (std::size_t row = k0; row < k1; ++row, cols += oh * ow) {
        const float* plane = image + c * g.height * g.width;
        for (std::int64_t y = 0; y < oh; ++y) {
            const std::int64_t in_y =
                y * stride + static_cast<std::int64_t>(kh) - padding;
            float* dst = cols + y * ow;
            if (in_y < 0 || in_y >= height) {
                std::memset(dst, 0, static_cast<std::size_t>(ow) * sizeof(float));
                continue;
            }
            const float* src_row = plane + in_y * width;
            for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t in_x =
                    x * stride + static_cast<std::int64_t>(kw) - padding;
                dst[x] = (in_x >= 0 && in_x < width) ? src_row[in_x] : 0.0f;
            }
        }
        if (++kw == g.kernel) {
            kw = 0;
            if (++kh == g.kernel) {
                kh = 0;
                ++c;
            }
        }
    }
}

void generic_conv2d_range(const ConvGeometry& g, std::size_t M,
                          std::size_t k0, std::size_t k1, const float* weight,
                          const float* image, float* out,
                          ScratchArena& arena) {
    if (k0 >= k1) return;
    const std::size_t K = g.channels * g.kernel * g.kernel;
    const std::size_t N = g.out_height * g.out_width;
    float* cols = arena.floats((k1 - k0) * N);
    im2col_rows(g, image, k0, k1, cols);
    gemm_blocks(M, N, K, k1 - k0, weight + k0, cols, out);
}

void generic_depthwise_conv2d(const ConvGeometry& g, const float* weight,
                              const float* image, float* out, ScratchArena&) {
    const auto H = static_cast<std::int64_t>(g.height);
    const auto W = static_cast<std::int64_t>(g.width);
    const auto kernel = static_cast<std::int64_t>(g.kernel);
    const auto stride = static_cast<std::int64_t>(g.stride);
    const auto padding = static_cast<std::int64_t>(g.padding);
    const auto OH = static_cast<std::int64_t>(g.out_height);
    const auto OW = static_cast<std::int64_t>(g.out_width);
    for (std::size_t c = 0; c < g.channels; ++c) {
        const float* src = image + c * g.height * g.width;
        const float* k = weight + c * g.kernel * g.kernel;
        float* dst = out + c * g.out_height * g.out_width;
        for (std::int64_t y = 0; y < OH; ++y) {
            for (std::int64_t x2 = 0; x2 < OW; ++x2) {
                float acc = 0.0f;
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                    const std::int64_t in_y = y * stride + kh - padding;
                    if (in_y < 0 || in_y >= H) continue;
                    for (std::int64_t kw = 0; kw < kernel; ++kw) {
                        const std::int64_t in_x = x2 * stride + kw - padding;
                        if (in_x < 0 || in_x >= W) continue;
                        acc += src[in_y * W + in_x] * k[kh * kernel + kw];
                    }
                }
                dst[y * OW + x2] = acc;
            }
        }
    }
}

void generic_avg_pool2d(const ConvGeometry& g, const float* in, float* out) {
    const auto NC = static_cast<std::int64_t>(g.channels);
    const auto H = static_cast<std::int64_t>(g.height);
    const auto W = static_cast<std::int64_t>(g.width);
    const auto kernel = static_cast<std::int64_t>(g.kernel);
    const auto stride = static_cast<std::int64_t>(g.stride);
    const auto OH = static_cast<std::int64_t>(g.out_height);
    const auto OW = static_cast<std::int64_t>(g.out_width);
    const float inv = 1.0f / static_cast<float>(kernel * kernel);
    for (std::int64_t p = 0; p < NC; ++p) {
        const float* src = in + static_cast<std::size_t>(p * H * W);
        float* dst = out + static_cast<std::size_t>(p * OH * OW);
        for (std::int64_t y = 0; y < OH; ++y)
            for (std::int64_t xx = 0; xx < OW; ++xx) {
                float acc = 0.0f;
                for (std::int64_t kh = 0; kh < kernel; ++kh)
                    for (std::int64_t kw = 0; kw < kernel; ++kw)
                        acc += src[(y * stride + kh) * W + (xx * stride + kw)];
                dst[y * OW + xx] = acc * inv;
            }
    }
}

void generic_global_avg_pool(std::size_t planes, std::size_t plane,
                             const float* in, float* out) {
    const float inv = 1.0f / static_cast<float>(plane);
    for (std::size_t p = 0; p < planes; ++p) {
        const float* src = in + p * plane;
        float acc = 0.0f;
        for (std::size_t i = 0; i < plane; ++i) acc += src[i];
        out[p] = acc * inv;
    }
}

void generic_relu(const float* src, float* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void generic_relu6(const float* src, float* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::clamp(src[i], 0.0f, 6.0f);
}

void generic_add(const float* a, const float* b, float* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void generic_clamp(float* data, std::size_t n, float lo, float hi) {
    // NaN passes through: std::clamp's comparisons are false for NaN.
    for (std::size_t i = 0; i < n; ++i) data[i] = std::clamp(data[i], lo, hi);
}

}  // namespace

void im2col(const ConvGeometry& g, const float* image, float* cols) {
    im2col_rows(g, image, 0, g.channels * g.kernel * g.kernel, cols);
}

const Kernels& generic_kernels() noexcept {
    static const Kernels table{
        "generic",            generic_gemm_range,
        generic_conv2d_range, generic_depthwise_conv2d,
        generic_avg_pool2d,  generic_global_avg_pool,
        generic_relu,        generic_relu6,
        generic_add,         generic_clamp,
    };
    return table;
}

}  // namespace statfi::kernels
