// Tests for the kernel-dispatch library: the bit-identity contract between
// the generic and native backends (the property every fault-injection
// campaign leans on — see src/kernels/registry.hpp), from single GEMMs,
// conv, depthwise and pooling forwards up to whole-network forwards, backend
// selection, and the workspace behind each backend's conv2d_image and
// depthwise_conv2d.

#include "kernels/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/arena.hpp"
#include "models/micronet.hpp"
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

/// The backends this CPU can select, reference first.
std::vector<std::string> backends() {
    std::vector<std::string> names{"generic"};
    if (native_kernels() != nullptr) names.push_back("native");
    return names;
}

/// @p layer's forward over @p x on backend @p backend; the selection goes
/// back to "auto" afterwards.
Tensor conv_forward(const nn::Layer& layer, const Tensor& x,
                    const std::string& backend) {
    select(backend);
    Tensor out;
    const Tensor* in = &x;
    layer.forward(std::span<const Tensor* const>(&in, 1), out);
    select("auto");
    return out;
}

std::vector<float> values(const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
}

TEST(Kernels, GenericAlwaysAvailable) {
    EXPECT_STREQ(generic_kernels().name, "generic");
    ASSERT_NE(generic_kernels().gemm_range, nullptr);
    ASSERT_NE(generic_kernels().conv2d_range, nullptr);
    ASSERT_NE(generic_kernels().depthwise_conv2d, nullptr);
    ASSERT_NE(generic_kernels().avg_pool2d, nullptr);
    ASSERT_NE(generic_kernels().global_avg_pool, nullptr);
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

// -- conv forward: generic (explicit im2col) vs native (implicit) ----------
// The native conv2d_image packs its GEMM panels from a zero-bordered copy of
// the input; the generic one writes the im2col matrix. The sweep crosses
// the packer's cases (kernel 1/3/5, stride 1/2 with their vector loads,
// padding 0 read in place), the N mod 16 column tail (sizes 7 and 17), the
// 256-row k-block (Cin 29 and 64 at kernel 3 and 5), the 96-row chunk of A
// (Cout 100) and M = 1.

/// Conv2d::forward on both backends over every geometry with kernel
/// @p kernel. Inputs and weights come from awkward() at one in 12·C·K·K,
/// and, for Cin <= 3, also at one in 12: at that density every sum longer
/// than a few dozen products is NaN on both backends whatever the order,
/// and its denormals slow each product about tenfold (on a 4-vCPU AVX2
/// Xeon, the full cross product at that density took 44 s of the sweep's
/// 48). Each draw also runs with zero-free weights, the branch-free tile
/// loop.
void expect_conv_identity(std::int64_t kernel, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::size_t runs = 0;
    auto check = [&](std::int64_t stride, std::int64_t pad, std::int64_t hw,
                     std::int64_t cin, std::int64_t cout) {
        nn::Conv2d conv(cin, cout, kernel, stride, pad);
        const auto K = static_cast<std::size_t>(cin * kernel * kernel);
        std::vector<std::size_t> densities{12 * K};
        if (cin <= 3) densities.push_back(12);
        Tensor x(Shape({1, cin, hw, hw}));
        for (const std::size_t one_in : densities) {
            const auto xs = awkward(x.numel(), rng, one_in);
            std::copy(xs.begin(), xs.end(), x.data());
            const auto w = awkward(conv.weight().numel(), rng, one_in);
            for (const bool zero_free : {false, true}) {
                const auto wz = zero_free ? without_zeros(w) : w;
                if (zero_free &&
                    std::none_of(w.begin(), w.end(),
                                 [](float v) { return v == 0.0f; }))
                    continue;  // the same run again
                std::copy(wz.begin(), wz.end(), conv.weight().data());
                const auto gen = values(conv_forward(conv, x, "generic"));
                const auto nat = values(conv_forward(conv, x, "native"));
                ++runs;
                EXPECT_TRUE(same_bits_modulo_nan_payload(gen, nat))
                    << "k=" << kernel << " s=" << stride << " p=" << pad
                    << " hw=" << hw << " cin=" << cin << " cout=" << cout
                    << " 1-in-" << one_in << (zero_free ? " zero-free W" : "");
            }
        }
    };
    for (const std::int64_t stride : {1, 2})
        for (const std::int64_t pad : {0, 1, 2})
            for (const std::int64_t hw : {4, 7, 8, 16, 17, 32})
                for (const std::int64_t cin : {1, 3, 16, 29, 64})
                    for (const std::int64_t cout : {1, 2, 6, 7, 16, 33, 100})
                        if (hw + 2 * pad >= kernel)
                            check(stride, pad, hw, cin, cout);
    EXPECT_GT(runs, 0u);
}

TEST(Kernels, ConvForwardBitIdenticalKernel1) {
    SKIP_WITHOUT_NATIVE();
    expect_conv_identity(1, 1101);
}

TEST(Kernels, ConvForwardBitIdenticalKernel3) {
    SKIP_WITHOUT_NATIVE();
    expect_conv_identity(3, 3303);
}

TEST(Kernels, ConvForwardBitIdenticalKernel5) {
    SKIP_WITHOUT_NATIVE();
    expect_conv_identity(5, 5505);
}

// -- k-ranges: a split call equals the whole one --------------------------
// gemm_range and conv2d_range accumulate rows [k0, k1) of the product, so a
// conv resumed from a golden partial sum (Conv2d::forward_resume) runs one
// range over the golden input and the rest over the lane's. Each element's
// sum must come out as one whole call's: split at every input-channel
// boundary (each k of a pointwise GEMM, each k*k taps of a conv) and around
// the 256-row k-block. NaN payloads follow the registry's carve-out: the
// AVX2 tile's checked and branch-free instantiations may order NaN + NaN
// differently, and a split can change which one a block takes.

/// Split points in (0, K): multiples of @p step and kBlockK +/- 1 (and
/// twice that), then 0 and K themselves (an empty range on either side).
std::vector<std::size_t> split_points(std::size_t K, std::size_t step) {
    std::vector<std::size_t> at{0, K};
    for (std::size_t s = step; s < K; s += step) at.push_back(s);
    for (const std::size_t block : {256u, 512u})
        for (const std::size_t s : {block - 1, block, block + 1})
            if (s < K) at.push_back(s);
    return at;
}

TEST(Kernels, GemmRangeSplitsEqualOneWholeCall) {
    stats::Rng rng(8801);
    const GemmShape shapes[] = {{1, 33, 290},  {2, 17, 300}, {6, 16, 257},
                                {13, 48, 520}, {7, 20, 24},  {144, 64, 24}};
    for (const std::string& backend : backends()) {
        select(backend);
        const Kernels& k = active();
        for (const auto& [M, N, K] : shapes) {
            const auto A = awkward(M * K, rng, 40);
            const auto B = awkward(K * N, rng, 40);
            std::vector<float> whole(M * N, 0.0f);
            k.gemm_accumulate(M, N, K, A.data(), B.data(), whole.data());
            for (const std::size_t s : split_points(K, K <= 24 ? 1 : 9)) {
                std::vector<float> split(M * N, 0.0f);
                k.gemm_range(M, N, K, 0, s, A.data(), B.data(), split.data());
                k.gemm_range(M, N, K, s, K, A.data(), B.data(), split.data());
                EXPECT_TRUE(same_bits_modulo_nan_payload(whole, split))
                    << backend << " M=" << M << " N=" << N << " K=" << K
                    << " split at " << s;
            }
        }
    }
    select("auto");
}

TEST(Kernels, ConvRangeSplitsEqualOneWholeCall) {
    stats::Rng rng(8802);
    struct Case {
        std::size_t c, hw, kernel, stride, padding, M;
    };
    // MicroNet's conv2 and conv3, a ResNet-20 downsampler, k-blocks of 256
    // split mid-channel (29 and 64 channels of 9 taps), a 5x5 kernel, and
    // the one-row recompute's M = 1.
    const Case cases[] = {{6, 16, 3, 1, 1, 10}, {10, 8, 3, 1, 1, 14},
                          {16, 16, 3, 2, 1, 32}, {29, 9, 3, 1, 1, 7},
                          {64, 8, 3, 1, 1, 16}, {3, 17, 5, 2, 2, 6},
                          {6, 16, 3, 1, 1, 1}};
    ScratchArena arena;
    for (const std::string& backend : backends()) {
        select(backend);
        const Kernels& k = active();
        for (const Case& c : cases) {
            const ConvGeometry g{
                c.c,        c.hw,      c.hw,
                c.kernel,   c.stride,  c.padding,
                (c.hw + 2 * c.padding - c.kernel) / c.stride + 1,
                (c.hw + 2 * c.padding - c.kernel) / c.stride + 1};
            const std::size_t taps = c.kernel * c.kernel;
            const std::size_t K = c.c * taps;
            const std::size_t N = g.out_height * g.out_width;
            const auto image = awkward(c.c * c.hw * c.hw, rng, 40);
            const auto weight = awkward(c.M * K, rng, 40);
            std::vector<float> whole(c.M * N);
            k.conv2d_image(g, c.M, weight.data(), image.data(), whole.data(),
                           arena);
            for (const std::size_t s : split_points(K, taps)) {
                std::vector<float> split(c.M * N, 0.0f);
                k.conv2d_range(g, c.M, 0, s, weight.data(), image.data(),
                               split.data(), arena);
                k.conv2d_range(g, c.M, s, K, weight.data(), image.data(),
                               split.data(), arena);
                EXPECT_TRUE(same_bits_modulo_nan_payload(whole, split))
                    << backend << " C=" << c.c << " hw=" << c.hw
                    << " k=" << c.kernel << " s=" << c.stride
                    << " M=" << c.M << " split at " << s;
            }
        }
    }
    select("auto");
}

TEST(Kernels, ConvPaddingTapsAreMultipliedNotSkipped) {
    // One +inf weight tap, positive finite inputs: inf * 0 = NaN wherever
    // the window puts that tap on a padding cell (as im2col's multiplied
    // zero does), inf elsewhere in its output channel, and every other
    // channel finite. A backend that skipped padding taps would leave those
    // outputs inf.
    for (const std::int64_t stride : {1, 2}) {
        const std::int64_t C = 2, Cout = 3, H = 17, W = 17, K = 3, P = 1;
        const std::int64_t co = 1, ci = 1, kh = 0, kw = 2;
        nn::Conv2d conv(C, Cout, K, stride, P);
        for (std::size_t i = 0; i < conv.weight().numel(); ++i)
            conv.weight().data()[i] = 0.25f + 0.01f * static_cast<float>(i % 7);
        conv.weight().data()[((co * C + ci) * K + kh) * K + kw] = kInf;
        Tensor x(Shape({1, C, H, W}));
        for (std::size_t i = 0; i < x.numel(); ++i)
            x.data()[i] = 0.5f + 0.125f * static_cast<float>(i % 5);
        for (const std::string& backend : backends()) {
            const Tensor out = conv_forward(conv, x, backend);
            const std::int64_t OH = out.shape()[2], OW = out.shape()[3];
            for (std::int64_t c = 0; c < Cout; ++c)
                for (std::int64_t y = 0; y < OH; ++y)
                    for (std::int64_t x2 = 0; x2 < OW; ++x2) {
                        const float v = out.data()[(c * OH + y) * OW + x2];
                        const std::int64_t iy = y * stride + kh - P;
                        const std::int64_t ix = x2 * stride + kw - P;
                        const bool on_pad = iy < 0 || iy >= H || ix < 0 || ix >= W;
                        const auto where = ::testing::Message()
                                           << backend << " s=" << stride
                                           << " c=" << c << " y=" << y
                                           << " x=" << x2;
                        if (c != co) {
                            EXPECT_TRUE(std::isfinite(v)) << where;
                        } else if (on_pad) {
                            EXPECT_TRUE(std::isnan(v)) << where;
                        } else {
                            EXPECT_EQ(v, kInf) << where;
                        }
                    }
        }
    }
}

// -- depthwise forward: generic (direct loops) vs native -------------------
// The native depthwise_conv2d runs 8 outputs per vector: along one output
// row when OW >= 8 (the last block overlapping the one before), across rows
// when OW < 8 (a short last vector). The sweep crosses both layouts, their
// loads (stride 1, 2, and the gather at 3), planes narrower than one vector
// (H = W <= 7) and padding at or beyond the kernel, where whole tap rows
// and columns, or every tap of an output, lie on the padding.

TEST(Kernels, DepthwiseForwardBitIdentical) {
    // DepthwiseConv2d::forward, and forward_row_cached on every channel
    // over an output whose other planes must stay untouched, on each
    // backend against the generic forward. Inputs and weights come from
    // awkward() at one in 12 (most sums inf or NaN) and one in 200 (most
    // sums finite, so a misplaced or multiplied-in product shows).
    stats::Rng rng(1717);
    std::size_t runs = 0;
    auto check = [&](std::int64_t k, std::int64_t stride, std::int64_t pad,
                     std::int64_t hw, std::int64_t C, std::size_t one_in) {
        nn::DepthwiseConv2d dw(C, k, stride, pad);
        Tensor x(Shape({2, C, hw, hw}));
        const auto xs = awkward(x.numel(), rng, one_in);
        std::copy(xs.begin(), xs.end(), x.data());
        const auto w = awkward(dw.weight().numel(), rng, one_in);
        std::copy(w.begin(), w.end(), dw.weight().data());
        const Tensor ref = conv_forward(dw, x, "generic");
        const auto want = values(ref);
        const std::int64_t plane = ref.shape()[2] * ref.shape()[3];
        const Tensor* in = &x;
        for (const std::string& backend : backends()) {
            const auto where = ::testing::Message()
                               << backend << " k=" << k << " s=" << stride
                               << " p=" << pad << " hw=" << hw << " C=" << C
                               << " 1-in-" << one_in;
            EXPECT_TRUE(same_bits_modulo_nan_payload(
                want, values(conv_forward(dw, x, backend))))
                << where << " forward";
            select(backend);
            for (std::int64_t c = 0; c < C; ++c) {
                Tensor out = ref;
                for (std::int64_t n = 0; n < 2; ++n)
                    std::fill_n(out.data() + (n * C + c) * plane, plane, 1234.5f);
                Tensor cache;
                dw.forward_row_cached(std::span<const Tensor* const>(&in, 1),
                                      static_cast<std::uint64_t>(c * k * k),
                                      cache, out);
                EXPECT_TRUE(same_bits_modulo_nan_payload(want, values(out)))
                    << where << " row c=" << c;
            }
            select("auto");
        }
        ++runs;
    };
    for (const std::int64_t k : {1, 3, 5})
        for (const std::int64_t stride : {1, 2, 3})
            for (const std::int64_t pad : {0, 1, 2, 3})
                for (const std::int64_t hw :
                     {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33})
                    for (const std::int64_t C : {1, 3, 8})
                        for (const std::size_t one_in : {12, 200})
                            if (hw + 2 * pad >= k)
                                check(k, stride, pad, hw, C, one_in);
    EXPECT_EQ(runs, 2664u);
}

TEST(Kernels, DepthwisePaddingTapsAreSkippedNotMultiplied) {
    // One +inf weight tap, positive finite inputs: the outputs whose window
    // puts that tap on a padding cell skip it and stay finite, the rest of
    // its channel is +inf, and every other channel is finite. A backend
    // that multiplied the padded zero (inf * 0 = NaN) fails. Planes of 17
    // and 4 run the row and the multi-row layouts.
    for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t hw : {4, 17}) {
            const std::int64_t C = 3, K = 3, P = 1;
            const std::int64_t co = 1, kh = 0, kw = 2;
            nn::DepthwiseConv2d dw(C, K, stride, P);
            for (std::size_t i = 0; i < dw.weight().numel(); ++i)
                dw.weight().data()[i] = 0.25f + 0.01f * static_cast<float>(i % 7);
            dw.weight().data()[(co * K + kh) * K + kw] = kInf;
            Tensor x(Shape({1, C, hw, hw}));
            for (std::size_t i = 0; i < x.numel(); ++i)
                x.data()[i] = 0.5f + 0.125f * static_cast<float>(i % 5);
            for (const std::string& backend : backends()) {
                const Tensor out = conv_forward(dw, x, backend);
                const std::int64_t OH = out.shape()[2], OW = out.shape()[3];
                for (std::int64_t c = 0; c < C; ++c)
                    for (std::int64_t y = 0; y < OH; ++y)
                        for (std::int64_t x2 = 0; x2 < OW; ++x2) {
                            const float v = out.data()[(c * OH + y) * OW + x2];
                            const std::int64_t iy = y * stride + kh - P;
                            const std::int64_t ix = x2 * stride + kw - P;
                            const bool on_pad =
                                iy < 0 || iy >= hw || ix < 0 || ix >= hw;
                            const auto where = ::testing::Message()
                                               << backend << " s=" << stride
                                               << " hw=" << hw << " c=" << c
                                               << " y=" << y << " x=" << x2;
                            if (c != co || on_pad) {
                                EXPECT_TRUE(std::isfinite(v)) << where;
                            } else {
                                EXPECT_EQ(v, kInf) << where;
                            }
                        }
            }
        }
    }
}

// -- pooling: generic (one float chain per output) vs native ---------------
// The native avg_pool2d runs 8 outputs of one output row per vector, the
// last block overlapping the one before; global_avg_pool runs 8 planes per
// vector, two blocks at a time. The sweeps cross strides 1 and 2 (the vector
// loads) and 3 (the generic loop), output rows narrower than a vector or not
// a multiple of 8, and plane counts around the blocks of 8 and 16.

TEST(Kernels, PoolingBitIdenticalAcrossBackends) {
    // Inputs come from awkward() at one in 12 (most windows hold an inf or
    // NaN) and one in 400 (most sums finite, so a reordered add shows).
    SKIP_WITHOUT_NATIVE();
    const Kernels& gen = generic_kernels();
    const Kernels& nat = *native_kernels();
    stats::Rng rng(2222);
    std::size_t runs = 0;
    for (const std::size_t k : {1, 2, 3})
        for (const std::size_t s : {1, 2, 3})
            for (std::size_t hw = k; hw <= 33; ++hw)
                for (const std::size_t planes : {1, 7, 8, 9, 16, 17, 112})
                    for (const std::size_t one_in : {12, 400}) {
                        const std::size_t o = (hw - k) / s + 1;
                        const ConvGeometry g{planes, hw, hw, k, s, 0, o, o};
                        const auto in = awkward(planes * hw * hw, rng, one_in);
                        std::vector<float> a(planes * o * o, 1234.5f), b = a;
                        gen.avg_pool2d(g, in.data(), a.data());
                        nat.avg_pool2d(g, in.data(), b.data());
                        ++runs;
                        EXPECT_TRUE(same_bits_modulo_nan_payload(a, b))
                            << "avg_pool2d k=" << k << " s=" << s
                            << " hw=" << hw << " planes=" << planes
                            << " 1-in-" << one_in;
                    }
    for (const std::size_t plane : {1, 4, 16, 64, 65})
        for (const std::size_t planes :
             {1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 33, 112, 113})
            for (const std::size_t one_in : {12, 400}) {
                const auto in = awkward(planes * plane, rng, one_in);
                std::vector<float> a(planes, 1234.5f), b = a;
                gen.global_avg_pool(planes, plane, in.data(), a.data());
                nat.global_avg_pool(planes, plane, in.data(), b.data());
                ++runs;
                EXPECT_TRUE(same_bits_modulo_nan_payload(a, b))
                    << "global_avg_pool plane=" << plane
                    << " planes=" << planes << " 1-in-" << one_in;
            }
    EXPECT_EQ(runs, 4172u);
}

TEST(Kernels, PoolingOfNegativeZerosIsPositiveZero) {
    // Each sum starts at +0.0f, and +0 + -0 is +0: a plane of -0 averages
    // to +0 on every backend, pooled by window or as a whole.
    const std::size_t planes = 17, hw = 16;
    const std::vector<float> in(planes * hw * hw, -0.0f);
    const ConvGeometry g{planes, hw, hw, 2, 2, 0, hw / 2, hw / 2};
    std::vector<const Kernels*> tables{&generic_kernels()};
    if (native_kernels() != nullptr) tables.push_back(native_kernels());
    for (const Kernels* k : tables) {
        std::vector<float> pooled(planes * g.out_height * g.out_width, 1.0f);
        std::vector<float> means(planes, 1.0f);
        k->avg_pool2d(g, in.data(), pooled.data());
        k->global_avg_pool(planes, hw * hw, in.data(), means.data());
        EXPECT_TRUE(same_bits(pooled, std::vector<float>(pooled.size(), 0.0f)))
            << k->name;
        EXPECT_TRUE(same_bits(means, std::vector<float>(planes, 0.0f)))
            << k->name;
    }
}

// -- whole-network forward: generic vs native ------------------------------
// Every node's activation must match byte for byte over two stacked lanes.

void expect_forward_all_identity(nn::Network net, const char* name) {
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
            << name << " node " << n << " ("
            << net.node_name(static_cast<int>(n)) << ")";
    }
}

TEST(Kernels, ForwardAllBitIdenticalOnGemmHeavyNets) {
    // ResNet-20 and MobileNetV2 feed their convs through full register
    // tiles, tile edges and column tails that MicroNet's 6- to 14-row convs
    // barely reach.
    SKIP_WITHOUT_NATIVE();
    expect_forward_all_identity(models::make_resnet20(), "resnet20");
    expect_forward_all_identity(models::make_mobilenetv2(), "mobilenetv2");
}

TEST(Kernels, ForwardAllBitIdenticalOnMicroNet) {
    // The one registered model with AvgPool2d nodes (two 2x2 pools), and a
    // global pool over 28 planes: two blocks of 8 and the generic tail.
    SKIP_WITHOUT_NATIVE();
    expect_forward_all_identity(models::make_micronet(), "micronet");
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

/// @p layer's forward over a seeded (batch, channels, hw, hw) input on
/// @p backend.
void run_conv(const nn::Layer& layer, std::int64_t channels,
              std::int64_t batch, std::int64_t hw, const std::string& backend) {
    Tensor x(Shape({batch, channels, hw, hw}));
    stats::Rng rng(7);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform01());
    conv_forward(layer, x, backend);
}

void run_conv(const nn::Conv2d& conv, std::int64_t batch, std::int64_t hw,
              const std::string& backend) {
    run_conv(conv, conv.in_channels(), batch, hw, backend);
}

/// The grow-only contract on @p layer (fresh, 3 input channels, 3x3,
/// stride 1, pad 1); @p needs_workspace says whether this backend's
/// kernel takes any.
template <class ConvLayer>
void expect_grow_only(const ConvLayer& layer, const std::string& backend,
                      bool needs_workspace) {
    EXPECT_EQ(layer.workspace_bytes(), 0u);
    auto run = [&](std::int64_t batch, std::int64_t hw) {
        run_conv(layer, 3, batch, hw, backend);
    };

    run(1, 8);
    const std::size_t small = layer.workspace_bytes();
    EXPECT_EQ(small > 0, needs_workspace);
    // The workspace is per image (the batch loop reuses it), so a wider
    // ensemble batch must not grow it — ensemble width costs
    // activations, not conv workspace.
    run(8, 8);
    EXPECT_EQ(layer.workspace_bytes(), small);
    // A larger spatial input grows it...
    run(1, 16);
    const std::size_t big = layer.workspace_bytes();
    EXPECT_EQ(big > small, needs_workspace);
    // ...and once warmed at the largest shape, no later forward shrinks
    // or reallocates it (the no-allocation hot-loop invariant).
    run(4, 8);
    EXPECT_EQ(layer.workspace_bytes(), big);
    run(1, 16);
    EXPECT_EQ(layer.workspace_bytes(), big);
}

TEST(ConvWorkspace, GrowOnlyAcrossInputShapes) {
    for (const std::string& backend : backends()) {
        SCOPED_TRACE(backend);
        expect_grow_only(nn::Conv2d(3, 4, 3, 1, 1), backend, true);
        // The generic depthwise loop reads the input in place; the native
        // one pads one plane at a time.
        expect_grow_only(nn::DepthwiseConv2d(3, 3, 1, 1), backend,
                         backend != "generic");
    }
}

TEST(ConvWorkspace, NativeNeverWritesTheIm2colMatrix) {
    // generic lowers through the C*K*K x OH*OW im2col matrix. The native
    // backend's workspace is the zero-bordered input, plus at most one
    // K x 16 panel for the N mod 16 column tail.
    for (const std::string& backend : backends()) {
        for (const std::int64_t cout : {2, 16, 100}) {
            for (const auto& [stride, pad] :
                 {std::array<std::int64_t, 2>{1, 1}, {2, 1}, {1, 2}}) {
                for (const std::int64_t hw : {7, 8, 17, 32}) {
                    const std::int64_t cin = 3, k = 3;
                    nn::Conv2d conv(cin, cout, k, stride, pad);
                    run_conv(conv, 2, hw, backend);
                    const auto u = [](std::int64_t v) {
                        return static_cast<std::size_t>(v);
                    };
                    const std::size_t o = u(nn::conv_out_size(hw, k, stride, pad));
                    const std::size_t rows = u(cin * k * k);
                    const std::size_t bytes = conv.workspace_bytes();
                    const auto where = ::testing::Message()
                                       << backend << " cout=" << cout
                                       << " s=" << stride << " p=" << pad
                                       << " hw=" << hw;
                    if (backend == "generic") {
                        EXPECT_EQ(bytes, rows * o * o * sizeof(float)) << where;
                    } else {
                        const std::size_t padded =
                            u(cin * (hw + 2 * pad) * (hw + 2 * pad));
                        EXPECT_LE(bytes, (padded + rows * 16) * sizeof(float))
                            << where;
                    }
                }
            }
        }
    }
}

/// A clone of @p layer, after a forward over @p x warmed its workspace,
/// computes the same output.
template <class ConvLayer>
void expect_clone_matches(const ConvLayer& layer, const Tensor& x,
                          const std::string& backend, bool needs_workspace) {
    const Tensor out = conv_forward(layer, x, backend);
    ASSERT_EQ(layer.workspace_bytes() > 0, needs_workspace);
    // Cloned layers (campaign workers) own their own arena.
    const auto copy = layer.clone();
    const Tensor out2 =
        conv_forward(static_cast<const ConvLayer&>(*copy), x, backend);
    EXPECT_EQ(out.numel(), out2.numel());
    EXPECT_EQ(0, std::memcmp(out.data(), out2.data(),
                             static_cast<std::size_t>(out.numel()) *
                                 sizeof(float)));
}

TEST(ConvWorkspace, CloneStartsIndependent) {
    Tensor x(Shape({3, 2, 6, 6}));
    for (std::size_t i = 0; i < x.numel(); ++i)
        x.data()[i] = static_cast<float>(i % 5) - 2.0f;
    Tensor wide(Shape({3, 2, 9, 9}));
    for (std::size_t i = 0; i < wide.numel(); ++i)
        wide.data()[i] = static_cast<float>(i % 5) - 2.0f;
    for (const std::string& backend : backends()) {
        SCOPED_TRACE(backend);
        expect_clone_matches(nn::Conv2d(2, 2, 3, 1, 1), x, backend, true);
        // 9-wide planes take the native depthwise kernel's padded path.
        expect_clone_matches(nn::DepthwiseConv2d(2, 3, 1, 1), wide, backend,
                             backend != "generic");
    }
}

}  // namespace
}  // namespace statfi::kernels
