// Tests for the kernel-dispatch library: the bit-identity contract between
// the generic and native backends (the property every fault-injection
// campaign leans on — see src/kernels/registry.hpp), from single GEMMs up to
// whole-network forwards, backend selection, and the Conv2d im2col
// workspace that feeds the GEMM kernels.

#include "kernels/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/arena.hpp"
#include "models/mobilenetv2.hpp"
#include "models/resnet_cifar.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "stats/rng.hpp"
#include "tensor/tensor.hpp"

namespace statfi::kernels {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Random floats with awkward values salted in: zeros (the GEMM sparsity
/// skip), negative zero, infinities, NaN, and denormal-scale magnitudes —
/// each of the six in one of every @p one_in entries.
std::vector<float> awkward(std::size_t n, stats::Rng& rng,
                           std::size_t one_in = 12) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.uniform_below(one_in)) {
            case 0: v[i] = 0.0f; break;
            case 1: v[i] = -0.0f; break;
            case 2: v[i] = kInf; break;
            case 3: v[i] = -kInf; break;
            case 4: v[i] = kNaN; break;
            case 5: v[i] = 1e-38f; break;
            default:
                v[i] = static_cast<float>(rng.uniform(-8.0, 8.0));
        }
    }
    return v;
}

/// @p v with every zero (either sign) replaced, so that no register tile
/// of A takes the AVX2 GEMM's zero-checking loop.
std::vector<float> without_zeros(std::vector<float> v) {
    for (float& x : v)
        if (x == 0.0f) x = 0.5f;
    return v;
}

using GemmShape = std::array<std::size_t, 3>;  // {M, N, K}

/// GEMM shapes at the AVX2 register tile's edges (6 rows x 16 columns,
/// k-blocks of 256), then every ResNet-20 conv GEMM and a few MobileNetV2
/// pointwise ones.
std::vector<GemmShape> tile_edge_shapes() {
    std::vector<GemmShape> shapes;
    for (std::size_t M : {2, 5, 6, 7, 12, 13})
        for (std::size_t N : {15, 16, 17, 48})
            for (std::size_t K : {255, 256, 257}) shapes.push_back({M, N, K});
    const GemmShape nets[] = {
        {16, 1024, 144}, {32, 256, 144},  {32, 256, 288}, {64, 64, 288},
        {64, 64, 576},   {144, 1024, 24}, {24, 1024, 144}, {960, 16, 160},
        {1280, 16, 320}};
    shapes.insert(shapes.end(), std::begin(nets), std::end(nets));
    return shapes;
}

/// Bytewise equality (EXPECT_EQ on floats would pass -0 == +0 and fail NaN).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Bytewise equality modulo NaN payloads: every non-NaN element must match
/// bit for bit (sign of zero included) and NaNs must sit in the same slots.
/// This is the exact GEMM contract — when two NaNs with different payloads
/// meet in an addition, which payload survives depends on the operand order
/// the compiler picked for the generic backend, which no portable C++ can
/// pin (see registry.hpp). Campaign outcomes never read payload bits.
bool same_bits_modulo_nan_payload(const std::vector<float>& a,
                                  const std::vector<float>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) || std::isnan(b[i])) {
            if (!std::isnan(a[i]) || !std::isnan(b[i])) return false;
            continue;
        }
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
    }
    return true;
}

#define SKIP_WITHOUT_NATIVE()                                            \
    if (native_kernels() == nullptr)                                     \
    GTEST_SKIP() << "no native backend on this CPU "                     \
                 << "(" << detect_cpu().describe() << ")"

TEST(Kernels, GenericAlwaysAvailable) {
    EXPECT_STREQ(generic_kernels().name, "generic");
    ASSERT_NE(generic_kernels().gemm_accumulate, nullptr);
    ASSERT_NE(generic_kernels().relu, nullptr);
    ASSERT_NE(generic_kernels().relu6, nullptr);
    ASSERT_NE(generic_kernels().add, nullptr);
    ASSERT_NE(generic_kernels().clamp, nullptr);
}

TEST(Kernels, SelectRejectsUnknownBackend) {
    EXPECT_THROW(select("avx512-of-my-dreams"), std::invalid_argument);
    // Error paths must not disturb the active selection.
    select("auto");
}

TEST(Kernels, SelectGenericAndAuto) {
    select("generic");
    EXPECT_STREQ(active().name, "generic");
    select("auto");
    if (native_kernels() != nullptr &&
        std::getenv("STATFI_DISABLE_NATIVE_KERNELS") == nullptr)
        EXPECT_STREQ(active().name, native_kernels()->name);
    else
        EXPECT_STREQ(active().name, "generic");
}

TEST(Kernels, SelectNativeErrorsWhenUnavailable) {
    if (native_kernels() == nullptr) {
        EXPECT_THROW(select("native"), std::invalid_argument);
    } else {
        select("native");
        EXPECT_STREQ(active().name, native_kernels()->name);
        select("auto");
    }
}

TEST(Kernels, CpuDescribeSpelling) {
    const CpuFeatures cpu = detect_cpu();
    const std::string s = cpu.describe();
    if (!cpu.avx2 && !cpu.fma) {
        EXPECT_EQ(s, "none");
    }
    if (cpu.avx2) {
        EXPECT_NE(s.find("avx2"), std::string::npos);
    }
}

// -- bit-identity: generic vs native ---------------------------------------
// Randomized shapes deliberately straddle the AVX2 vector width (odd tails,
// N < 8, N = multiple of 8 +/- 1), the register tile and the blocking
// parameters.

/// Runs @p shapes plus tile_edge_shapes() on both backends and compares C.
/// Inputs come from awkward() at two salting densities: one entry in 12,
/// which sends nearly every tile through the zero-checking loop but
/// saturates long sums to inf/NaN, and one in 12K, which leaves most sums
/// finite so that a misplaced product shows. Each input also runs with a
/// zero-free A, which takes the branch-free loop. @p nan_free replaces NaN
/// inputs and then demands strict bytewise identity.
void expect_gemm_identity(std::vector<GemmShape> shapes, std::uint64_t seed,
                          bool nan_free) {
    const Kernels& gen = generic_kernels();
    const Kernels& nat = *native_kernels();
    stats::Rng rng(seed);
    const auto edges = tile_edge_shapes();
    shapes.insert(shapes.end(), edges.begin(), edges.end());
    for (const auto& [M, N, K] : shapes) {
        for (const std::size_t one_in : {std::size_t{12}, 12 * K}) {
            auto draw = [&](std::size_t n) {
                auto v = awkward(n, rng, one_in);
                if (nan_free)
                    for (float& x : v)
                        if (std::isnan(x)) x = 0.25f;
                return v;
            };
            const auto A = draw(M * K);
            const auto B = draw(K * N);
            // Nonzero C seeds verify the += (accumulate) contract too.
            const auto C = draw(M * N);
            for (const bool zero_free : {false, true}) {
                const auto a = zero_free ? without_zeros(A) : A;
                auto C0 = C;
                auto C1 = C;
                gen.gemm_accumulate(M, N, K, a.data(), B.data(), C0.data());
                nat.gemm_accumulate(M, N, K, a.data(), B.data(), C1.data());
                EXPECT_TRUE(nan_free ? same_bits(C0, C1)
                                     : same_bits_modulo_nan_payload(C0, C1))
                    << "M=" << M << " N=" << N << " K=" << K << " 1-in-"
                    << one_in << (zero_free ? " zero-free A" : "");
            }
        }
    }
}

TEST(Kernels, GemmBitIdenticalAcrossBackends) {
    SKIP_WITHOUT_NATIVE();
    expect_gemm_identity(
        {{1, 1, 1},   {1, 7, 9},    {3, 8, 4},    {5, 17, 11},
         {4, 33, 27}, {2, 64, 70},  {7, 65, 129}, {1, 257, 31},
         {9, 16, 3},  {6, 100, 260}},
        8801, /*nan_free=*/false);
}

TEST(Kernels, GemmBitIdenticalOnNanFreeInputs) {
    SKIP_WITHOUT_NATIVE();
    // Without NaN inputs the contract is strict bytewise identity — signed
    // zeros, infinities, and denormals included.
    expect_gemm_identity(
        {{1, 7, 9}, {3, 8, 4}, {5, 17, 11}, {4, 33, 27}, {2, 300, 70}}, 52290,
        /*nan_free=*/true);
}

TEST(Kernels, ElementwiseBitIdenticalAcrossBackends) {
    SKIP_WITHOUT_NATIVE();
    const Kernels& gen = generic_kernels();
    const Kernels& nat = *native_kernels();
    stats::Rng rng(991);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{9}, std::size_t{64}, std::size_t{1013}}) {
        const auto src = awkward(n, rng);
        const auto other = awkward(n, rng);
        std::vector<float> a(n), b(n);
        gen.relu(src.data(), a.data(), n);
        nat.relu(src.data(), b.data(), n);
        EXPECT_TRUE(same_bits(a, b)) << "relu n=" << n;
        gen.relu6(src.data(), a.data(), n);
        nat.relu6(src.data(), b.data(), n);
        EXPECT_TRUE(same_bits(a, b)) << "relu6 n=" << n;
        gen.add(src.data(), other.data(), a.data(), n);
        nat.add(src.data(), other.data(), b.data(), n);
        EXPECT_TRUE(same_bits(a, b)) << "add n=" << n;
        a = src;
        b = src;
        gen.clamp(a.data(), n, -2.5f, 3.5f);
        nat.clamp(b.data(), n, -2.5f, 3.5f);
        EXPECT_TRUE(same_bits(a, b)) << "clamp n=" << n;
    }
}

TEST(Kernels, ReluSemantics) {
    // dst = src > 0 ? src : 0 — NaN and -0 both map to +0; +inf passes.
    const float src[] = {-1.0f, -0.0f, 0.0f, 2.0f, kNaN, kInf, -kInf};
    float dst[7];
    generic_kernels().relu(src, dst, 7);
    EXPECT_EQ(dst[0], 0.0f);
    EXPECT_FALSE(std::signbit(dst[1]));
    EXPECT_EQ(dst[3], 2.0f);
    EXPECT_EQ(dst[4], 0.0f);  // NaN > 0 is false
    EXPECT_EQ(dst[5], kInf);
    EXPECT_EQ(dst[6], 0.0f);
}

TEST(Kernels, ClampSemantics) {
    // Mitigation clamp bounds magnitude but passes NaN through (a clamp
    // circuit does not repair invalid encodings).
    float data[] = {-10.0f, 0.5f, 10.0f, kNaN, kInf, -kInf};
    generic_kernels().clamp(data, 6, -1.0f, 1.0f);
    EXPECT_EQ(data[0], -1.0f);
    EXPECT_EQ(data[1], 0.5f);
    EXPECT_EQ(data[2], 1.0f);
    EXPECT_TRUE(std::isnan(data[3]));
    EXPECT_EQ(data[4], 1.0f);
    EXPECT_EQ(data[5], -1.0f);
}

TEST(Kernels, GemmZeroRowSkipMatchesOnInfColumns) {
    SKIP_WITHOUT_NATIVE();
    // a == 0 skips the product even when B holds inf/NaN (0 * inf = NaN
    // would otherwise poison C) — and does so identically on both backends.
    // ones_plus(A, B) is 1 + A * B from the native backend, once it matches
    // the generic one bit for bit.
    auto ones_plus = [](std::size_t M, std::size_t N, std::size_t K,
                        const std::vector<float>& A,
                        const std::vector<float>& B) {
        std::vector<float> C0(M * N, 1.0f), C1(M * N, 1.0f);
        generic_kernels().gemm_accumulate(M, N, K, A.data(), B.data(),
                                          C0.data());
        native_kernels()->gemm_accumulate(M, N, K, A.data(), B.data(),
                                          C1.data());
        EXPECT_TRUE(same_bits(C0, C1)) << "M=" << M << " N=" << N;
        return C1;
    };
    {
        const std::size_t M = 2, N = 9, K = 3;
        std::vector<float> A(M * K, 0.0f);
        A[1] = 2.0f;
        const auto C = ones_plus(M, N, K, A, std::vector<float>(K * N, kInf));
        EXPECT_EQ(C[0], kInf);  // row 0 accumulates 2 * inf via A[1]
        EXPECT_EQ(C[N], 1.0f);  // row 1 is all-zero A -> C untouched
    }
    // Inside a register tile: one (negative) zero in an otherwise nonzero
    // 6x16 tile of A, facing an all-inf row of B. The tile must take the
    // zero-checking loop, skip exactly that product, and still add inf into
    // the other five rows.
    const std::size_t M = 6, N = 16, K = 9, zero_row = 2, inf_k = 3;
    std::vector<float> A(M * K, 1.5f);
    A[zero_row * K + inf_k] = -0.0f;
    std::vector<float> B(K * N, 0.25f);
    std::fill_n(B.begin() + inf_k * N, N, kInf);
    const auto C = ones_plus(M, N, K, A, B);
    for (std::size_t i = 0; i < M; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            if (i == zero_row) {
                EXPECT_TRUE(std::isfinite(C[i * N + j])) << i << "," << j;
            } else {
                EXPECT_EQ(C[i * N + j], kInf) << i << "," << j;
            }
        }
}

// -- whole-network forward: generic vs native ------------------------------
// ResNet-20 and MobileNetV2 feed their convs through full register tiles,
// tile edges and column tails that MicroNet's 6- to 14-row convs barely
// reach. Every node's activation must match byte for byte.

TEST(Kernels, ForwardAllBitIdenticalOnGemmHeavyNets) {
    SKIP_WITHOUT_NATIVE();
    for (const bool resnet : {true, false}) {
        nn::Network net =
            resnet ? models::make_resnet20() : models::make_mobilenetv2();
        stats::Rng rng(4242);
        nn::init_network_kaiming(net, rng);
        Tensor x(Shape({2, 3, 32, 32}));  // two stacked lanes
        for (std::size_t i = 0; i < x.numel(); ++i)
            x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<Tensor> gen, nat;
        select("generic");
        net.forward_all(x, gen);
        select("native");
        net.forward_all(x, nat);
        select("auto");
        ASSERT_EQ(gen.size(), nat.size());
        for (std::size_t n = 0; n < gen.size(); ++n) {
            ASSERT_EQ(gen[n].numel(), nat[n].numel());
            EXPECT_EQ(0, std::memcmp(gen[n].data(), nat[n].data(),
                                     gen[n].numel() * sizeof(float)))
                << (resnet ? "resnet20" : "mobilenetv2") << " node " << n
                << " (" << net.node_name(static_cast<int>(n)) << ")";
        }
    }
}

// -- scratch arena + conv workspace ----------------------------------------

TEST(ScratchArena, GrowOnlyReuse) {
    ScratchArena arena;
    EXPECT_EQ(arena.bytes(), 0u);
    float* p = arena.floats(100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(arena.bytes(), 100 * sizeof(float));
    // Smaller requests reuse the block; equal-size requests too.
    EXPECT_EQ(arena.floats(10), p);
    EXPECT_EQ(arena.bytes(), 100 * sizeof(float));
    EXPECT_NE(arena.floats(250), nullptr);
    EXPECT_EQ(arena.bytes(), 250 * sizeof(float));
}

TEST(ConvWorkspace, GrowOnlyAcrossInputShapes) {
    nn::Conv2d conv(3, 4, 3, 1, 1);
    EXPECT_EQ(conv.workspace_bytes(), 0u);

    auto run = [&](std::int64_t batch, std::int64_t hw) {
        Tensor x(Shape({batch, 3, hw, hw}));
        stats::Rng rng(7);
        for (std::size_t i = 0; i < x.numel(); ++i)
            x.data()[i] = static_cast<float>(rng.uniform01());
        Tensor out;
        const Tensor* in = &x;
        conv.forward(std::span<const Tensor* const>(&in, 1), out);
    };

    run(1, 8);
    const std::size_t small = conv.workspace_bytes();
    EXPECT_GT(small, 0u);
    // The im2col buffer is per image (the batch loop reuses it), so a wider
    // ensemble batch must not grow it — ensemble width costs activations,
    // not conv workspace.
    run(8, 8);
    EXPECT_EQ(conv.workspace_bytes(), small);
    // A larger spatial input grows it...
    run(1, 16);
    const std::size_t big = conv.workspace_bytes();
    EXPECT_GT(big, small);
    // ...and once warmed at the largest shape, no later forward shrinks or
    // reallocates it (the no-allocation hot-loop invariant).
    run(4, 8);
    EXPECT_EQ(conv.workspace_bytes(), big);
    run(1, 16);
    EXPECT_EQ(conv.workspace_bytes(), big);
}

TEST(ConvWorkspace, CloneStartsIndependent) {
    nn::Conv2d conv(2, 2, 3, 1, 1);
    Tensor x(Shape({3, 2, 6, 6}));
    for (std::size_t i = 0; i < x.numel(); ++i)
        x.data()[i] = static_cast<float>(i % 5) - 2.0f;
    Tensor out;
    const Tensor* in = &x;
    conv.forward(std::span<const Tensor* const>(&in, 1), out);
    ASSERT_GT(conv.workspace_bytes(), 0u);
    // Cloned layers (campaign workers) own their own arena.
    auto copy = conv.clone();
    Tensor out2;
    copy->forward(std::span<const Tensor* const>(&in, 1), out2);
    EXPECT_EQ(out.numel(), out2.numel());
    EXPECT_EQ(0, std::memcmp(out.data(), out2.data(),
                             static_cast<std::size_t>(out.numel()) *
                                 sizeof(float)));
}

}  // namespace
}  // namespace statfi::kernels
