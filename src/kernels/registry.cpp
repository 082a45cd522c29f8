#include "kernels/registry.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace statfi::kernels {

std::string CpuFeatures::describe() const {
    std::string s;
    if (avx2) s += "avx2";
    if (fma) s += s.empty() ? "fma" : ",fma";
    return s.empty() ? "none" : s;
}

CpuFeatures detect_cpu() noexcept {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    f.avx2 = __builtin_cpu_supports("avx2");
    f.fma = __builtin_cpu_supports("fma");
#endif
    return f;
}

namespace {

const Kernels* resolve_default() noexcept {
    // Env override first: CI's generic-path matrix leg and reproducibility
    // escapes don't need a rebuild or a CLI flag.
    if (const char* env = std::getenv("STATFI_DISABLE_NATIVE_KERNELS");
        env && *env)
        return &generic_kernels();
    if (const Kernels* native = native_kernels()) return native;
    return &generic_kernels();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

void Kernels::conv2d_image(const ConvGeometry& g, std::size_t M,
                           const float* weight, const float* image, float* out,
                           ScratchArena& arena) const {
    std::memset(out, 0, M * g.out_height * g.out_width * sizeof(float));
    conv2d_range(g, M, 0, g.channels * g.kernel * g.kernel, weight, image, out,
                 arena);
}

const Kernels& active() noexcept {
    const Kernels* k = g_active.load(std::memory_order_acquire);
    if (!k) {
        k = resolve_default();
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

void select(const std::string& which) {
    const Kernels* chosen = nullptr;
    if (which == "generic") {
        chosen = &generic_kernels();
    } else if (which == "native") {
        chosen = native_kernels();
        if (!chosen)
            throw std::invalid_argument(
                "kernels: no native backend on this CPU (" +
                detect_cpu().describe() + ") — use --kernels=generic");
    } else if (which == "auto") {
        chosen = resolve_default();
    } else {
        throw std::invalid_argument("kernels: unknown backend '" + which +
                                    "' (expected generic|native|auto)");
    }
    g_active.store(chosen, std::memory_order_release);
}

}  // namespace statfi::kernels
