#pragma once
// Kernel-dispatch library: the compute primitives behind the inference
// engine (GEMM, the standard and depthwise convolutions' forward passes,
// average and global average pooling, activations, elementwise, clamp),
// resolved once at startup against the CPU the process actually runs on.
//
// Two backends exist: "generic" (portable blocked loops, the reference
// implementation) and "avx2" (8-wide x86 vectors). The dispatch contract
// the fault-injection campaigns depend on is BIT-IDENTITY: for any input,
// every backend produces byte-identical outputs. That rules out the usual
// SIMD tricks —
//   * no FMA: a fused multiply-add rounds once where mul+add rounds twice,
//     so the AVX2 kernels use separate _mm256_mul_ps/_mm256_add_ps and the
//     translation unit is compiled with -ffp-contract=off;
//   * no reassociation: each output element accumulates its K products in
//     ascending-k order on every backend (vectorizing across independent
//     output elements is fine, reducing across k is not), so dot-product
//     style loops (Linear, conv weight gradients) stay scalar everywhere;
//   * identical sparsity handling: the a == 0 skip in the GEMM inner loop
//     (adding 0*b is NOT a no-op when b is inf/NaN) is applied by both
//     backends under the same condition.
// One narrow carve-out: when two NaNs with DIFFERENT payloads meet in an
// addition, which payload survives depends on the addss/addps operand order
// — and for the generic backend that order is the compiler's choice, which
// no portable C++ can pin. So the contract is bytewise identity everywhere
// except NaN payload bits, with NaN placement itself exact. Campaign
// outcomes never read payload bits (argmax comparisons and std::isnan are
// payload-blind), so classification stays bit-identical across backends.
// Average pooling follows the same rule: each output sums its window (or
// its plane) from +0.0f in ascending order, then multiplies once by the
// reciprocal of the count, and backends vectorize only across independent
// outputs. Max pooling and softmax have no entry and run one portable loop
// on every backend: no registered model has a max-pool or softmax node.
//
// Selection: kernels::active() resolves lazily on first use — native when
// the CPU supports AVX2 and STATFI_DISABLE_NATIVE_KERNELS is not set,
// generic otherwise. kernels::select() (the CLI's --kernels flag) overrides
// the choice; call it at startup before any worker threads exist.

#include <cstddef>
#include <string>

namespace statfi::kernels {

class ScratchArena;

/// Runtime CPU feature flags relevant to kernel selection.
struct CpuFeatures {
    bool avx2 = false;
    bool fma = false;  ///< detected but never used (FMA breaks bit-identity)

    /// "avx2,fma", "avx2", or "none" — the spelling version/--json report.
    [[nodiscard]] std::string describe() const;
};

/// Query the executing CPU (cached; cheap after the first call).
[[nodiscard]] CpuFeatures detect_cpu() noexcept;

/// The patch geometry of a square-kernel convolution over one (C, H, W)
/// image, without dilation or groups: out_height and out_width are
/// floor((in + 2 * padding - kernel) / stride) + 1.
struct ConvGeometry {
    std::size_t channels, height, width;
    std::size_t kernel, stride, padding;
    std::size_t out_height, out_width;
};

/// The im2col lowering: @p cols[C*K*K, OH*OW] (row-major) holds, in row
/// (c, kh, kw) and column (oy, ox), the input value the kernel tap (kh, kw)
/// of output (oy, ox) reads in channel c — or +0.0f where that tap lies on
/// the padding. The reference for every backend's conv2d_image.
void im2col(const ConvGeometry& g, const float* image, float* cols);

/// One backend's primitive table. All functions obey the bit-identity
/// contract above; pointers are never null in a published table.
struct Kernels {
    const char* name = "generic";

    /// C[M,N] += A[M, k0:k1] * B[k0:k1, N], with A's rows K apart and B's
    /// N apart (row-major M x K and K x N). Ascending-k accumulation per
    /// element; zeros of A are skipped identically on every backend. Each
    /// element's sum lives in C between k-blocks, so splitting [0, K) into
    /// ranges run one after another gives the whole call's result bit for
    /// bit. Backs pointwise convs, the one-row recompute that
    /// Conv2d::forward_row_cached runs over a cached im2col matrix, and a
    /// pointwise conv resumed from a golden partial sum (Conv2d::
    /// forward_resume); conv2d_range below runs every other conv forward.
    /// Backends may tile i and j freely (avx2 runs 6x16 register tiles over
    /// packed 16-column panels of B when M >= 2): tiling changes which
    /// elements advance together, never the order of one element's k-sum.
    /// Allocates nothing.
    void (*gemm_range)(std::size_t M, std::size_t N, std::size_t K,
                       std::size_t k0, std::size_t k1, const float* A,
                       const float* B, float* C);

    /// out[M, OH*OW] += weight[M, k0:k1] * im2col(image)[k0:k1, :], with
    /// weight's rows C*K*K apart: rows [k0, k1) of a standard convolution's
    /// forward over one image. Each output element gets one mul, then one
    /// add, per k in ascending k, skipping a product exactly when its
    /// weight is zero — the sequence gemm_range gives over the explicit
    /// im2col matrix, so backends agree bit for bit with that and with
    /// each other, and consecutive ranges equal one call over their union.
    /// Padding is multiplied, not skipped: a tap on the padding adds
    /// weight * +0.0f, so a faulty inf weight makes NaN of exactly the
    /// outputs whose window puts that tap on the padding, as the im2col
    /// GEMM does (depthwise_conv2d, by contrast, skips its padding taps).
    /// Workspace comes from @p arena (grow-only; valid for this call only).
    /// generic writes rows [k0, k1) of the im2col matrix there and runs its
    /// GEMM; avx2 writes a zero-bordered (C', H+2p, W+2p) copy of the C'
    /// channels the range reads (none when p == 0) and packs the GEMM's
    /// 16-column panels of B straight from it.
    void (*conv2d_range)(const ConvGeometry& g, std::size_t M,
                         std::size_t k0, std::size_t k1, const float* weight,
                         const float* image, float* out, ScratchArena& arena);

    /// The depthwise forward pass over the g.channels planes of one image:
    /// plane c of @p out (OH x OW, overwritten) is plane c of @p image
    /// (H x W) convolved with the K x K taps at weight + c*K*K.
    /// DepthwiseConv2d::forward passes every channel of an image;
    /// forward_row_cached passes channels = 1 and that channel's pointers,
    /// so a recomputed plane is the full forward's by construction. Each
    /// output starts at +0.0f and gets one mul, then one add, per tap in
    /// ascending (kh, kw) order. Taps on the padding are SKIPPED, never
    /// multiplied: a faulty inf or NaN weight times a padded zero would be
    /// NaN (Conv2d's im2col GEMM, by contrast, multiplies them). Workspace
    /// comes from @p arena (grow-only; valid for this call only): generic
    /// needs none; avx2 writes a zero-bordered copy of one plane there when
    /// OW >= 8 and p > 0.
    void (*depthwise_conv2d)(const ConvGeometry& g, const float* weight,
                             const float* image, float* out,
                             ScratchArena& arena);

    /// The k x k window mean with stride s and no padding (g.padding == 0)
    /// over g.channels planes: plane c of @p out (OH x OW, overwritten)
    /// from plane c of @p in (H x W). AvgPool2d::forward passes the N*C
    /// planes of its input. Each output starts at +0.0f, adds its taps in
    /// ascending (kh, kw) order, then is multiplied once by
    /// 1.0f / float(k * k). Allocates nothing.
    void (*avg_pool2d)(const ConvGeometry& g, const float* in, float* out);

    /// out[p] = the mean of plane p of @p in (@p planes planes of
    /// @p plane_size floats each): +0.0f, plus each element in order, times
    /// 1.0f / float(plane_size). GlobalAvgPool::forward passes N*C planes.
    void (*global_avg_pool)(std::size_t planes, std::size_t plane_size,
                            const float* in, float* out);

    /// dst[i] = src[i] > 0 ? src[i] : 0 (NaN -> 0, -0 -> +0).
    void (*relu)(const float* src, float* dst, std::size_t n);

    /// dst[i] = clamp(src[i], 0, 6) with NaN passthrough.
    void (*relu6)(const float* src, float* dst, std::size_t n);

    /// dst[i] = a[i] + b[i] (residual adds, bias rows).
    void (*add)(const float* a, const float* b, float* dst, std::size_t n);

    /// data[i] = clamp(data[i], lo, hi), NaN passthrough — the mitigation
    /// clipping hook (clamp circuits bound magnitude, they do not repair
    /// invalid encodings).
    void (*clamp)(float* data, std::size_t n, float lo, float hi);

    /// C[M,N] += A[M,K] * B[K,N]: gemm_range over [0, K).
    void gemm_accumulate(std::size_t M, std::size_t N, std::size_t K,
                         const float* A, const float* B, float* C) const {
        gemm_range(M, N, K, 0, K, A, B, C);
    }

    /// out[M, OH*OW] = weight[M, C*K*K] * im2col(image), out overwritten:
    /// the forward pass of a standard convolution over one image, each
    /// output starting at +0.0f and running conv2d_range over [0, C*K*K).
    void conv2d_image(const ConvGeometry& g, std::size_t M,
                      const float* weight, const float* image, float* out,
                      ScratchArena& arena) const;
};

/// The reference backend (always available).
[[nodiscard]] const Kernels& generic_kernels() noexcept;

/// The best native backend for this CPU, or nullptr when none applies
/// (non-x86 builds, or a CPU without AVX2).
[[nodiscard]] const Kernels* native_kernels() noexcept;

/// The currently selected backend. Resolves lazily on first call: native
/// if available and the STATFI_DISABLE_NATIVE_KERNELS environment variable
/// is unset/empty, generic otherwise. Hot paths cache-friendly: one atomic
/// acquire load.
[[nodiscard]] const Kernels& active() noexcept;

/// Force a backend: "generic", "native" (error if this CPU has none), or
/// "auto" (re-run the default resolution). Not thread-safe against in-flight
/// kernel calls — call at startup, before campaign workers exist.
/// @throws std::invalid_argument for unknown names or unavailable "native".
void select(const std::string& which);

}  // namespace statfi::kernels
