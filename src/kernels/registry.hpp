#pragma once
// Kernel-dispatch library: the compute primitives behind the inference
// engine (GEMM, activations, elementwise, clamp), resolved once at startup
// against the CPU the process actually runs on.
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
// Pooling and softmax are horizontal reductions over small windows; they
// share the generic implementation on every backend for the same reason.
//
// Selection: kernels::active() resolves lazily on first use — native when
// the CPU supports AVX2 and STATFI_DISABLE_NATIVE_KERNELS is not set,
// generic otherwise. kernels::select() (the CLI's --kernels flag) overrides
// the choice; call it at startup before any worker threads exist.

#include <cstddef>
#include <string>

namespace statfi::kernels {

/// Runtime CPU feature flags relevant to kernel selection.
struct CpuFeatures {
    bool avx2 = false;
    bool fma = false;  ///< detected but never used (FMA breaks bit-identity)

    /// "avx2,fma", "avx2", or "none" — the spelling version/--json report.
    [[nodiscard]] std::string describe() const;
};

/// Query the executing CPU (cached; cheap after the first call).
[[nodiscard]] CpuFeatures detect_cpu() noexcept;

/// One backend's primitive table. All functions obey the bit-identity
/// contract above; pointers are never null in a published table.
struct Kernels {
    const char* name = "generic";

    /// C[M,N] += A[M,K] * B[K,N] (row-major). Ascending-k accumulation per
    /// element; rows of A equal to zero are skipped identically on every
    /// backend. Backs conv2d (im2col lowering) and batched GEMM callers.
    /// Backends may tile i and j freely (avx2 runs 6x16 register tiles over
    /// packed 16-column panels of B when M >= 2): tiling changes which
    /// elements advance together, never the order of one element's k-sum.
    /// Allocates nothing.
    void (*gemm_accumulate)(std::size_t M, std::size_t N, std::size_t K,
                            const float* A, const float* B, float* C);

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
