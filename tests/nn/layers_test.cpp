// Layer forward-pass tests: each optimized implementation is checked against
// an obviously-correct naive reference over a parameter sweep.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/elementwise.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "stats/rng.hpp"

namespace statfi::nn {
namespace {

Tensor random_tensor(const Shape& shape, stats::Rng& rng) {
    Tensor t(shape);
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
}

/// Naive direct convolution, the reference for the im2col/GEMM path.
Tensor conv_reference(const Tensor& x, const Tensor& w, std::int64_t stride,
                      std::int64_t padding) {
    const auto& xd = x.shape().dims();
    const auto& wd = w.shape().dims();
    const std::int64_t N = xd[0], Cin = xd[1], H = xd[2], W = xd[3];
    const std::int64_t Cout = wd[0], K = wd[2];
    const std::int64_t OH = (H + 2 * padding - K) / stride + 1;
    const std::int64_t OW = (W + 2 * padding - K) / stride + 1;
    Tensor out(Shape{N, Cout, OH, OW});
    for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t co = 0; co < Cout; ++co)
            for (std::int64_t y = 0; y < OH; ++y)
                for (std::int64_t xx = 0; xx < OW; ++xx) {
                    double acc = 0.0;
                    for (std::int64_t ci = 0; ci < Cin; ++ci)
                        for (std::int64_t kh = 0; kh < K; ++kh)
                            for (std::int64_t kw = 0; kw < K; ++kw) {
                                const std::int64_t iy = y * stride + kh - padding;
                                const std::int64_t ix = xx * stride + kw - padding;
                                if (iy < 0 || iy >= H || ix < 0 || ix >= W)
                                    continue;
                                acc += static_cast<double>(x.at4(n, ci, iy, ix)) *
                                       w.at4(co, ci, kh, kw);
                            }
                    out.at4(n, co, y, xx) = static_cast<float>(acc);
                }
    return out;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a[i], b[i], tol) << "element " << i;
}

struct ConvCase {
    std::int64_t batch, cin, cout, hw, kernel, stride, padding;
};

class Conv2dSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dSweep, MatchesNaiveReference) {
    const auto c = GetParam();
    stats::Rng rng(c.cin * 1000 + c.kernel * 100 + c.stride * 10 + c.padding);
    Conv2d conv(c.cin, c.cout, c.kernel, c.stride, c.padding);
    conv.weight() = random_tensor(conv.weight().shape(), rng);
    const Tensor x = random_tensor(Shape{c.batch, c.cin, c.hw, c.hw}, rng);
    Tensor out;
    const Tensor* in = &x;
    conv.forward(std::span<const Tensor* const>(&in, 1), out);
    expect_close(out, conv_reference(x, conv.weight(), c.stride, c.padding));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dSweep,
    ::testing::Values(ConvCase{1, 1, 1, 5, 1, 1, 0},   // pointwise minimal
                      ConvCase{2, 3, 4, 8, 3, 1, 1},   // the CNN stem shape
                      ConvCase{1, 4, 6, 9, 3, 2, 1},   // strided
                      ConvCase{1, 2, 2, 7, 5, 1, 2},   // big kernel
                      ConvCase{3, 8, 4, 6, 1, 1, 0},   // pointwise fast path
                      ConvCase{1, 3, 5, 10, 3, 2, 0},  // stride no pad
                      ConvCase{2, 6, 3, 4, 3, 1, 1}));

TEST(Conv2d, OutputShape) {
    Conv2d conv(3, 16, 3, 1, 1);
    const Shape in{4, 3, 32, 32};
    EXPECT_EQ(conv.output_shape(std::array{in}), Shape({4, 16, 32, 32}));
}

TEST(Conv2d, StridedOutputShape) {
    Conv2d conv(16, 32, 3, 2, 1);
    const Shape in{1, 16, 32, 32};
    EXPECT_EQ(conv.output_shape(std::array{in}), Shape({1, 32, 16, 16}));
}

TEST(Conv2d, RejectsChannelMismatch) {
    Conv2d conv(3, 8, 3, 1, 1);
    const Shape in{1, 4, 8, 8};
    EXPECT_THROW(conv.output_shape(std::array{in}), std::invalid_argument);
}

TEST(Conv2d, RejectsInvalidGeometry) {
    EXPECT_THROW(Conv2d(0, 1, 3), std::invalid_argument);
    EXPECT_THROW(Conv2d(1, 1, 0), std::invalid_argument);
    EXPECT_THROW(Conv2d(1, 1, 3, 0), std::invalid_argument);
    EXPECT_THROW(Conv2d(1, 1, 3, 1, -1), std::invalid_argument);
}

TEST(Conv2d, ExposesInjectableWeight) {
    Conv2d conv(3, 16, 3);
    EXPECT_TRUE(conv.has_injectable_weight());
    EXPECT_EQ(conv.injectable_weight()->numel(), 3u * 16u * 9u);
    EXPECT_EQ(conv.injectable_weight(), &conv.weight());
}

struct DwCase {
    std::int64_t batch, channels, hw, kernel, stride, padding;
};

class DepthwiseSweep : public ::testing::TestWithParam<DwCase> {};

TEST_P(DepthwiseSweep, MatchesGroupedNaiveReference) {
    const auto c = GetParam();
    stats::Rng rng(c.channels * 7 + c.stride);
    DepthwiseConv2d dw(c.channels, c.kernel, c.stride, c.padding);
    dw.weight() = random_tensor(dw.weight().shape(), rng);
    const Tensor x = random_tensor(Shape{c.batch, c.channels, c.hw, c.hw}, rng);
    Tensor out;
    const Tensor* in = &x;
    dw.forward(std::span<const Tensor* const>(&in, 1), out);

    // Reference: per-channel 1-in-1-out convolution.
    for (std::int64_t ch = 0; ch < c.channels; ++ch) {
        Tensor xc(Shape{c.batch, 1, c.hw, c.hw});
        for (std::int64_t n = 0; n < c.batch; ++n)
            for (std::int64_t y = 0; y < c.hw; ++y)
                for (std::int64_t xx = 0; xx < c.hw; ++xx)
                    xc.at4(n, 0, y, xx) = x.at4(n, ch, y, xx);
        Tensor wc(Shape{1, 1, c.kernel, c.kernel});
        for (std::int64_t kh = 0; kh < c.kernel; ++kh)
            for (std::int64_t kw = 0; kw < c.kernel; ++kw)
                wc.at4(0, 0, kh, kw) = dw.weight().at4(ch, 0, kh, kw);
        const Tensor ref = conv_reference(xc, wc, c.stride, c.padding);
        for (std::int64_t n = 0; n < c.batch; ++n)
            for (std::int64_t y = 0; y < ref.shape()[2]; ++y)
                for (std::int64_t xx = 0; xx < ref.shape()[3]; ++xx)
                    ASSERT_NEAR(out.at4(n, ch, y, xx), ref.at4(n, 0, y, xx),
                                1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, DepthwiseSweep,
                         ::testing::Values(DwCase{1, 3, 6, 3, 1, 1},
                                           DwCase{2, 4, 8, 3, 2, 1},
                                           DwCase{1, 2, 5, 3, 1, 0},
                                           DwCase{1, 5, 7, 5, 1, 2}));

TEST(Linear, MatchesManualComputation) {
    Linear fc(3, 2);
    // W = [[1,2,3],[4,5,6]]
    for (std::size_t i = 0; i < 6; ++i)
        fc.weight()[i] = static_cast<float>(i + 1);
    Tensor x(Shape{1, 3});
    x[0] = 1.0f;
    x[1] = 0.5f;
    x[2] = -1.0f;
    Tensor out;
    const Tensor* in = &x;
    fc.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 1.0f + 1.0f - 3.0f);          // 1*1+2*.5+3*-1
    EXPECT_FLOAT_EQ(out[1], 4.0f + 2.5f - 6.0f);
}

TEST(Linear, BiasApplied) {
    Linear fc(2, 2, /*with_bias=*/true);
    fc.weight().zero();
    fc.bias()[0] = 1.5f;
    fc.bias()[1] = -2.0f;
    Tensor x(Shape{1, 2}, 1.0f);
    Tensor out;
    const Tensor* in = &x;
    fc.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 1.5f);
    EXPECT_FLOAT_EQ(out[1], -2.0f);
}

TEST(Linear, BatchedRows) {
    stats::Rng rng(4);
    Linear fc(5, 3);
    fc.weight() = random_tensor(fc.weight().shape(), rng);
    const Tensor x = random_tensor(Shape{4, 5}, rng);
    Tensor out;
    const Tensor* in = &x;
    fc.forward(std::span<const Tensor* const>(&in, 1), out);
    for (std::int64_t n = 0; n < 4; ++n)
        for (std::int64_t o = 0; o < 3; ++o) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < 5; ++i)
                acc += static_cast<double>(x.at2(n, i)) * fc.weight().at2(o, i);
            EXPECT_NEAR(out.at2(n, o), acc, 1e-4);
        }
}

TEST(Linear, RejectsWrongInputShape) {
    Linear fc(3, 2);
    const Shape bad{1, 4};
    EXPECT_THROW(fc.output_shape(std::array{bad}), std::invalid_argument);
}

TEST(BatchNorm, IdentityByDefault) {
    stats::Rng rng(5);
    BatchNorm2d bn(3);
    const Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
    Tensor out;
    const Tensor* in = &x;
    bn.forward(std::span<const Tensor* const>(&in, 1), out);
    expect_close(out, x);
}

TEST(BatchNorm, FoldsStatistics) {
    BatchNorm2d bn(1, /*eps=*/0.0f);
    Tensor gamma(Shape{1}, 2.0f), beta(Shape{1}, 1.0f);
    Tensor mean(Shape{1}, 3.0f), var(Shape{1}, 4.0f);
    bn.set_statistics(gamma, beta, mean, var);
    Tensor x(Shape{1, 1, 1, 2});
    x[0] = 3.0f;  // (3-3)/2*2+1 = 1
    x[1] = 5.0f;  // (5-3)/2*2+1 = 3
    Tensor out;
    const Tensor* in = &x;
    bn.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[1], 3.0f);
}

TEST(BatchNorm, RejectsSizeMismatch) {
    BatchNorm2d bn(2);
    Tensor one(Shape{1}, 1.0f);
    EXPECT_THROW(bn.set_statistics(one, one, one, one), std::invalid_argument);
}

TEST(ReLU, ClampsNegatives) {
    ReLU relu;
    Tensor x(Shape{4});
    x[0] = -1.0f;
    x[1] = 0.0f;
    x[2] = 2.0f;
    x[3] = -0.1f;
    Tensor out;
    const Tensor* in = &x;
    relu.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    EXPECT_FLOAT_EQ(out[2], 2.0f);
    EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLU6, ClampsBothSides) {
    ReLU6 relu6;
    Tensor x(Shape{3});
    x[0] = -2.0f;
    x[1] = 3.0f;
    x[2] = 9.0f;
    Tensor out;
    const Tensor* in = &x;
    relu6.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 3.0f);
    EXPECT_FLOAT_EQ(out[2], 6.0f);
}

TEST(AvgPool, TwoByTwo) {
    AvgPool2d pool(2);
    Tensor x(Shape{1, 1, 2, 2});
    x[0] = 1.0f;
    x[1] = 2.0f;
    x[2] = 3.0f;
    x[3] = 6.0f;
    Tensor out;
    const Tensor* in = &x;
    pool.forward(std::span<const Tensor* const>(&in, 1), out);
    ASSERT_EQ(out.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(AvgPool, DefaultStrideEqualsKernel) {
    AvgPool2d pool(2);
    const Shape in{1, 3, 8, 8};
    EXPECT_EQ(pool.output_shape(std::array{in}), Shape({1, 3, 4, 4}));
}

TEST(MaxPool, PicksMaximum) {
    MaxPool2d pool(2);
    Tensor x(Shape{1, 1, 2, 2});
    x[0] = 1.0f;
    x[1] = -2.0f;
    x[2] = 0.5f;
    x[3] = 0.9f;
    Tensor out;
    const Tensor* in = &x;
    pool.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(GlobalAvgPool, AveragesPlane) {
    GlobalAvgPool gap;
    Tensor x(Shape{1, 2, 2, 2});
    for (std::size_t i = 0; i < 4; ++i) x[i] = 2.0f;       // channel 0
    for (std::size_t i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // 4..7
    Tensor out;
    const Tensor* in = &x;
    gap.forward(std::span<const Tensor* const>(&in, 1), out);
    ASSERT_EQ(out.shape(), Shape({1, 2}));
    EXPECT_FLOAT_EQ(out[0], 2.0f);
    EXPECT_FLOAT_EQ(out[1], 5.5f);
}

TEST(Flatten, CollapsesTrailingDims) {
    Flatten flat;
    Tensor x(Shape{2, 3, 2, 2});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
    Tensor out;
    const Tensor* in = &x;
    flat.forward(std::span<const Tensor* const>(&in, 1), out);
    ASSERT_EQ(out.shape(), Shape({2, 12}));
    EXPECT_FLOAT_EQ(out[13], 13.0f);
}

TEST(Add, SumsElementwise) {
    Add add;
    Tensor a(Shape{2, 2}, 1.0f), b(Shape{2, 2}, 2.0f);
    Tensor out;
    const Tensor* ins[2] = {&a, &b};
    add.forward(std::span<const Tensor* const>(ins, 2), out);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], 3.0f);
}

TEST(Add, RejectsShapeMismatch) {
    Add add;
    const Shape a{2, 2}, b{2, 3};
    const std::array shapes{a, b};
    EXPECT_THROW(add.output_shape(shapes), std::invalid_argument);
}

TEST(PadShortcut, SubsamplesAndZeroPadsChannels) {
    PadShortcut sc(2, 4, 2);
    Tensor x(Shape{1, 2, 4, 4});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i + 1);
    Tensor out;
    const Tensor* in = &x;
    sc.forward(std::span<const Tensor* const>(&in, 1), out);
    ASSERT_EQ(out.shape(), Shape({1, 4, 2, 2}));
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), x.at4(0, 0, 0, 0));
    EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), x.at4(0, 0, 2, 2));
    EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 1), x.at4(0, 1, 0, 2));
    // Padded channels are zero.
    EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.at4(0, 3, 1, 1), 0.0f);
}

TEST(PadShortcut, HasNoInjectableWeights) {
    PadShortcut sc(16, 32, 2);
    EXPECT_FALSE(sc.has_injectable_weight());
    EXPECT_EQ(sc.injectable_weight(), nullptr);
}

TEST(Softmax, RowsSumToOne) {
    Softmax sm;
    stats::Rng rng(9);
    const Tensor x = random_tensor(Shape{3, 5}, rng);
    Tensor out;
    const Tensor* in = &x;
    sm.forward(std::span<const Tensor* const>(&in, 1), out);
    for (std::int64_t n = 0; n < 3; ++n) {
        double sum = 0.0;
        for (std::int64_t f = 0; f < 5; ++f) {
            EXPECT_GT(out.at2(n, f), 0.0f);
            sum += out.at2(n, f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Softmax, StableUnderLargeLogits) {
    Softmax sm;
    Tensor x(Shape{1, 3});
    x[0] = 1000.0f;
    x[1] = 1001.0f;
    x[2] = 999.0f;
    Tensor out;
    const Tensor* in = &x;
    sm.forward(std::span<const Tensor* const>(&in, 1), out);
    EXPECT_TRUE(out.all_finite());
    EXPECT_GT(out[1], out[0]);
    EXPECT_GT(out[0], out[2]);
}

TEST(Layers, CloneIsDeep) {
    stats::Rng rng(10);
    Conv2d conv(2, 3, 3, 1, 1);
    conv.weight() = random_tensor(conv.weight().shape(), rng);
    auto copy = conv.clone();
    auto* cloned = dynamic_cast<Conv2d*>(copy.get());
    ASSERT_NE(cloned, nullptr);
    cloned->weight()[0] += 1.0f;
    EXPECT_NE(conv.weight()[0], cloned->weight()[0]);
}

TEST(EnsureShape, KeepsTheAllocationWhileItFitsAndGrowsExactly) {
    Tensor t;
    ensure_shape(t, Shape{8, 4, 5, 5});
    const float* base = t.data();
    EXPECT_EQ(t.capacity(), 800u);

    // A shrink (fewer lanes) and a regrow within the allocation keep it.
    ensure_shape(t, Shape{3, 4, 5, 5});
    EXPECT_EQ(t.shape(), Shape({3, 4, 5, 5}));
    EXPECT_EQ(t.numel(), 300u);
    EXPECT_EQ(t.data(), base);
    EXPECT_EQ(t.capacity(), 800u);
    ensure_shape(t, Shape{2, 16, 5, 5});
    EXPECT_EQ(t.numel(), 800u);
    EXPECT_EQ(t.data(), base);

    // Past the allocation it grows to exactly the new size, not by doubling.
    ensure_shape(t, Shape{9, 4, 5, 5});
    EXPECT_EQ(t.numel(), 900u);
    EXPECT_EQ(t.capacity(), 900u);
}

// -- channel-local propagation ------------------------------------------------

/// The backends this CPU can select, reference first.
std::vector<std::string> backends() {
    std::vector<std::string> names{"generic"};
    if (kernels::native_kernels() != nullptr) names.push_back("native");
    return names;
}

/// Normal draws with the values that expose order and sign slips salted in:
/// zeros of either sign, infinities, NaN and a denormal, one in ten each.
Tensor awkward_tensor(const Shape& shape, stats::Rng& rng) {
    Tensor t = random_tensor(shape, rng);
    const float salt[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(), 1e-40f};
    for (std::size_t i = 0; i < t.numel(); ++i)
        if (rng.uniform_below(10) == 0) t[i] = salt[rng.uniform_below(6)];
    return t;
}

/// Bytewise equality modulo NaN payloads, the kernel registry's contract:
/// every non-NaN element matches bit for bit (sign of zero included) and
/// NaNs sit in the same slots. Which payload survives NaN + NaN is the
/// compiler's choice of operand order, and it may differ between two
/// instantiations of one backend's loop (kernels/registry.hpp).
bool same_bits(const float* a, const float* b, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        if (std::isnan(a[i]) || std::isnan(b[i])) {
            if (!std::isnan(a[i]) || !std::isnan(b[i])) return false;
            continue;
        }
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
    }
    return true;
}

/// forward_channel of every input channel c against channel c of
/// forward() on one image, bit for bit, on every backend.
void expect_channels_match(const Layer& layer,
                           const std::vector<Tensor>& inputs) {
    ASSERT_TRUE(layer.channel_local()) << layer.kind();
    std::vector<const Tensor*> ptrs;
    for (const auto& t : inputs) ptrs.push_back(&t);
    for (const std::string& backend : backends()) {
        SCOPED_TRACE(layer.kind() + " on " + backend + ", input " +
                     inputs[0].shape().to_string());
        kernels::select(backend);
        Tensor full;
        layer.forward(ptrs, full);
        const std::size_t out_plane = channel_plane(full.shape());
        std::vector<float> plane(out_plane);
        for (std::int64_t c = 0; c < inputs[0].shape()[1]; ++c) {
            std::vector<const float*> planes;
            for (const auto& t : inputs)
                planes.push_back(t.data() + static_cast<std::size_t>(c) *
                                                channel_plane(t.shape()));
            layer.forward_channel(planes, inputs[0].shape(), c, plane.data());
            EXPECT_TRUE(same_bits(plane.data(),
                                  full.data() +
                                      static_cast<std::size_t>(c) * out_plane,
                                  out_plane))
                << "channel " << c;
        }
    }
    kernels::select("auto");
}

TEST(ChannelLocal, PerChannelForwardEqualsForward) {
    stats::Rng rng(2025);
    const auto one = [&](const Shape& shape) {
        return std::vector<Tensor>{awkward_tensor(shape, rng)};
    };
    for (const Shape& shape : {Shape{1, 5, 7, 9}, Shape{1, 12, 16, 16}}) {
        BatchNorm2d bn(shape[1]);
        const Shape c{shape[1]};
        Tensor var = random_tensor(c, rng);
        for (std::size_t i = 0; i < var.numel(); ++i) var[i] = std::fabs(var[i]);
        bn.set_statistics(random_tensor(c, rng), random_tensor(c, rng),
                          random_tensor(c, rng), var);
        expect_channels_match(bn, one(shape));
        expect_channels_match(ReLU(), one(shape));
        expect_channels_match(ReLU6(), one(shape));
        expect_channels_match(Add(), {awkward_tensor(shape, rng),
                                      awkward_tensor(shape, rng)});
        for (const std::int64_t stride : {1, 2}) {
            DepthwiseConv2d dw(shape[1], 3, stride, 1);
            const Tensor w = awkward_tensor(dw.weight().shape(), rng);
            std::copy(w.data(), w.data() + w.numel(), dw.weight().data());
            expect_channels_match(dw, one(shape));
        }
        expect_channels_match(PadShortcut(shape[1], 2 * shape[1], 2),
                              one(shape));
    }
    // Rows of at least 8 outputs take the vector pooling on AVX2, and 8 or
    // more planes its gathered global pool: one channel never does.
    expect_channels_match(AvgPool2d(2), one(Shape{1, 3, 32, 32}));
    expect_channels_match(AvgPool2d(3, 2), one(Shape{1, 3, 35, 35}));
    expect_channels_match(GlobalAvgPool(), one(Shape{1, 20, 8, 8}));
    expect_channels_match(GlobalAvgPool(), one(Shape{1, 3, 4, 4}));
}

TEST(ChannelLocal, MixingLayersAreNot) {
    const Conv2d conv(3, 4, 3, 1, 1);
    EXPECT_FALSE(conv.channel_local());
    EXPECT_FALSE(Linear(4, 2).channel_local());
    EXPECT_FALSE(MaxPool2d(2).channel_local());
    EXPECT_FALSE(Softmax().channel_local());
    const float x = 0.0f;
    const float* planes[] = {&x};
    float y = 0.0f;
    EXPECT_THROW(conv.forward_channel(planes, Shape{1, 3, 1, 1}, 0, &y),
                 std::logic_error);
}

/// Conv2d::forward_resume over lanes that each differ from one of two
/// golden images in one input channel, against forward() on the same
/// lane-stacked input, bit for bit, on every backend.
void expect_resume_matches(std::int64_t cin, std::int64_t cout,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t padding, std::int64_t hw) {
    SCOPED_TRACE("k=" + std::to_string(kernel) + " s=" +
                 std::to_string(stride) + " p=" + std::to_string(padding) +
                 " cin=" + std::to_string(cin));
    stats::Rng rng(static_cast<std::uint64_t>(cin * 131 + kernel * 7 + stride));
    Conv2d conv(cin, cout, kernel, stride, padding);
    const Tensor w = awkward_tensor(conv.weight().shape(), rng);
    std::copy(w.data(), w.data() + w.numel(), conv.weight().data());
    const Shape image{1, cin, hw, hw};
    const Tensor golden[] = {awkward_tensor(image, rng),
                             awkward_tensor(image, rng)};
    // Sorted by (image, channel): every channel of image 0, a repeated
    // channel and the last one of image 1.
    std::vector<ResumeLane> lanes;
    for (std::int64_t c = 0; c < cin; ++c) lanes.push_back({&golden[0], c});
    lanes.push_back({&golden[1], 0});
    lanes.push_back({&golden[1], cin - 1});
    lanes.push_back({&golden[1], cin - 1});
    const std::size_t size = image.numel();
    const std::size_t plane = channel_plane(image);
    Tensor x(Shape{static_cast<std::int64_t>(lanes.size()), cin, hw, hw});
    for (std::size_t r = 0; r < lanes.size(); ++r) {
        float* row = x.data() + r * size;
        std::memcpy(row, lanes[r].golden->data(), size * sizeof(float));
        const Tensor noise = awkward_tensor(Shape{1, 1, hw, hw}, rng);
        std::memcpy(row + static_cast<std::size_t>(lanes[r].channel) * plane,
                    noise.data(), plane * sizeof(float));
    }
    const Tensor* in = &x;
    for (const std::string& backend : backends()) {
        SCOPED_TRACE(backend);
        kernels::select(backend);
        Tensor full, resumed;
        conv.forward(std::span(&in, 1), full);
        conv.forward_resume(std::span(&in, 1), lanes, resumed);
        ASSERT_EQ(resumed.shape(), full.shape());
        EXPECT_TRUE(same_bits(resumed.data(), full.data(), full.numel()));
    }
    kernels::select("auto");
}

TEST(Conv2dResume, EqualsForwardBitForBit) {
    expect_resume_matches(6, 10, 3, 1, 1, 16);   // MicroNet's conv2
    expect_resume_matches(10, 14, 3, 1, 1, 8);   // its conv3
    expect_resume_matches(16, 32, 3, 2, 1, 16);  // a ResNet-20 downsampler
    expect_resume_matches(29, 7, 3, 1, 1, 9);    // k-blocks of 256 split
    expect_resume_matches(24, 144, 1, 1, 0, 8);  // MobileNetV2 pointwise
}

TEST(Conv2dResume, RejectsLanesOutOfOrder) {
    Conv2d conv(3, 2, 3, 1, 1);
    const Tensor golden(Shape{1, 3, 4, 4}, 1.0f);
    const Tensor x(Shape{2, 3, 4, 4}, 1.0f);
    const Tensor* in = &x;
    Tensor out;
    const ResumeLane backwards[] = {{&golden, 2}, {&golden, 1}};
    EXPECT_THROW(conv.forward_resume(std::span(&in, 1), backwards, out),
                 std::invalid_argument);
    const ResumeLane one[] = {{&golden, 0}};
    EXPECT_THROW(conv.forward_resume(std::span(&in, 1), one, out),
                 std::invalid_argument);
}

}  // namespace
}  // namespace statfi::nn
