// Tests for the Network DAG container — especially the partial re-execution
// equivalence that fault campaigns rely on.

#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/elementwise.hpp"
#include "nn/init.hpp"
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

/// A small residual network exercising multi-input nodes.
Network make_residual_net(stats::Rng& rng) {
    Network net;
    int id = net.add("conv1", std::make_unique<Conv2d>(3, 4, 3, 1, 1),
                     {Network::kInputId});
    id = net.add("relu1", std::make_unique<ReLU>(), {id});
    const int branch_point = id;
    id = net.add("conv2", std::make_unique<Conv2d>(4, 4, 3, 1, 1), {id});
    id = net.add("add", std::make_unique<Add>(), {id, branch_point});
    id = net.add("relu2", std::make_unique<ReLU>(), {id});
    id = net.add("gap", std::make_unique<GlobalAvgPool>(), {id});
    net.add("fc", std::make_unique<Linear>(4, 3), {id});
    init_network_kaiming(net, rng);
    return net;
}

/// A node reading one producer twice (add(relu, relu)), then a producer
/// read by two convs: releasing the doubly read slot twice would hand one
/// buffer to both convs while the first is still live.
Network make_double_read_net(stats::Rng& rng) {
    Network net;
    int id = net.add("conv1", std::make_unique<Conv2d>(3, 4, 3, 1, 1),
                     {Network::kInputId});
    id = net.add("relu1", std::make_unique<ReLU>(), {id});
    const int twice = net.add("double", std::make_unique<Add>(), {id, id});
    const int a = net.add("conv2", std::make_unique<Conv2d>(4, 4, 3, 1, 1),
                          {twice});
    const int b = net.add("conv3", std::make_unique<Conv2d>(4, 4, 3, 1, 1),
                          {twice});
    id = net.add("add", std::make_unique<Add>(), {a, b});
    id = net.add("gap", std::make_unique<GlobalAvgPool>(), {id});
    net.add("fc", std::make_unique<Linear>(4, 3), {id});
    init_network_kaiming(net, rng);
    return net;
}

/// Most node outputs alive at once in a full forward: while node id runs,
/// its own output plus every older one a node >= id still reads.
std::size_t liveness_peak(const Network& net) {
    std::vector<int> last(static_cast<std::size_t>(net.node_count()), -1);
    for (int q = 0; q < net.node_count(); ++q)
        for (int in : net.node_inputs(q))
            if (in != Network::kInputId) last[static_cast<std::size_t>(in)] = q;
    std::size_t peak = 0;
    for (int id = 0; id < net.node_count(); ++id) {
        std::size_t live = 1;
        for (int p = 0; p < id; ++p)
            live += last[static_cast<std::size_t>(p)] >= id ? 1 : 0;
        peak = std::max(peak, live);
    }
    return peak;
}

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// forward_from(first_dirty) on @p lanes stacked inputs against forward_all,
/// bit for bit. Golden entries the suffix recomputes are emptied, as the
/// ensemble leaves them, so reading one fails.
void expect_suffix_identity(const Network& net, int first_dirty,
                            std::int64_t lanes, std::vector<Tensor>& scratch,
                            stats::Rng& rng) {
    SCOPED_TRACE("first_dirty=" + std::to_string(first_dirty) +
                 " lanes=" + std::to_string(lanes));
    const Tensor x = random_tensor(Shape{lanes, 3, 8, 8}, rng);
    std::vector<Tensor> golden;
    net.forward_all(x, golden);
    const Tensor full = golden.back();
    for (auto id = static_cast<std::size_t>(first_dirty); id < golden.size();
         ++id)
        golden[id] = Tensor{};
    EXPECT_TRUE(
        same_bits(net.forward_from(first_dirty, x, golden, scratch), full));
    EXPECT_LE(scratch.size(), liveness_peak(net));
}

TEST(Network, ForwardFromPoolMatchesForwardAllBitForBit) {
    stats::Rng rng(9);
    for (const bool double_read : {false, true}) {
        SCOPED_TRACE(double_read ? "double-read net" : "residual net");
        // A clone, so the pool bound also holds clone() to copying each
        // node's last consumer.
        const Network net =
            (double_read ? make_double_read_net(rng) : make_residual_net(rng))
                .clone();
        const int n = net.node_count();
        // 3 of 7 or 8: a per-node scratch would break the pool bound.
        ASSERT_EQ(liveness_peak(net), 3u);
        for (const std::int64_t lanes : {1, 5})
            for (int first = 0; first <= n; ++first) {
                std::vector<Tensor> scratch;
                expect_suffix_identity(net, first, lanes, scratch, rng);
            }
        // One pool across alternating suffixes and lane counts: a stale
        // buffer or a wrongly kept slot would leak into a later result.
        std::vector<Tensor> scratch;
        for (int round = 0; round < 2; ++round)
            for (int k = 0; k < n; ++k) {
                const int first = round == 0 ? k : n - 1 - k;
                expect_suffix_identity(net, first, (first + round) % 2 ? 1 : 5,
                                       scratch, rng);
            }
    }
}

/// Run [first, c] and then [c + 1, end] with only c's output carried over
/// (every older golden entry and the input replaced by zeros), for every
/// node c from @p first on. At a cut the result is the full forward's bit
/// for bit; at any other node the second run reads a zeroed entry the rest
/// of the graph still needs, and the result differs.
void expect_cuts_carry_the_forward(const Network& net, const Shape& input,
                                   int first, stats::Rng& rng) {
    SCOPED_TRACE("first=" + std::to_string(first));
    const Tensor x = random_tensor(input, rng);
    std::vector<Tensor> golden;
    net.forward_all(x, golden);
    std::vector<Tensor> head_golden = golden;
    for (auto id = static_cast<std::size_t>(first); id < golden.size(); ++id)
        head_golden[id] = Tensor{};
    const Tensor zero_input(x.shape());
    const std::size_t peak = liveness_peak(net);
    std::vector<Tensor> scratch;
    const int n = net.node_count();
    for (int c = first; c + 1 < n; ++c) {
        SCOPED_TRACE("c=" + std::to_string(c));
        const Tensor head = net.forward_from(first, x, head_golden, scratch, c);
        EXPECT_TRUE(same_bits(head, golden[static_cast<std::size_t>(c)]));
        EXPECT_LE(scratch.size(), peak);
        std::vector<Tensor> carried(golden.size());
        for (int p = 0; p < c; ++p)
            carried[static_cast<std::size_t>(p)] =
                Tensor(golden[static_cast<std::size_t>(p)].shape());
        carried[static_cast<std::size_t>(c)] = head;
        const bool cut = net.next_cut(c) == c;
        EXPECT_EQ(same_bits(net.forward_from(c + 1, zero_input, carried,
                                             scratch),
                            golden.back()),
                  cut);
        EXPECT_LE(scratch.size(), peak);
    }
}

TEST(Network, NextCutSkipsResidualBlockInteriors) {
    stats::Rng rng(10);
    const Network net = make_residual_net(rng);
    // conv2 (2) is read by the Add beside relu1 (1): the only non-cut.
    const int expected[] = {0, 1, 3, 3, 4, 5, 6};
    for (int c = 0; c < net.node_count(); ++c)
        EXPECT_EQ(net.next_cut(c), expected[c]) << "c=" << c;
    EXPECT_THROW((void)net.next_cut(net.node_count()), std::out_of_range);
    EXPECT_THROW((void)net.next_cut(-1), std::out_of_range);
    // A forward stopped at any node returns that node's output.
    const Tensor x = random_tensor(Shape{2, 3, 8, 8}, rng);
    std::vector<Tensor> golden, scratch;
    net.forward_all(x, golden);
    EXPECT_TRUE(same_bits(net.forward_from(0, x, golden, scratch, 2),
                          golden[2]));
    EXPECT_EQ(&net.forward_from(3, x, golden, scratch, 2), &golden[2]);
    EXPECT_THROW((void)net.forward_from(0, x, golden, scratch, 7),
                 std::out_of_range);
    EXPECT_THROW((void)net.forward_from(0, x, golden, scratch, -2),
                 std::out_of_range);
}

TEST(Network, ForwardResumesFromACutAlone) {
    stats::Rng rng(11);
    const Network residual = make_residual_net(rng);
    for (int first = 0; first < residual.node_count(); ++first)
        expect_cuts_carry_the_forward(residual, Shape{1, 3, 8, 8}, first, rng);
    // The paper's networks: residual blocks with identity and PadShortcut
    // shortcuts (ResNet-20), inverted residuals with depthwise convs
    // (MobileNetV2). Both have cuts and non-cuts.
    for (const char* model : {"resnet20", "mobilenetv2"}) {
        SCOPED_TRACE(model);
        Network net = models::build_model(model);
        init_network_kaiming(net, rng);
        int cuts = 0;
        for (int c = 0; c < net.node_count(); ++c)
            cuts += net.next_cut(c) == c ? 1 : 0;
        EXPECT_GT(cuts, 1);
        EXPECT_LT(cuts, net.node_count());
        expect_cuts_carry_the_forward(net, Shape{1, 3, 32, 32}, 0, rng);
    }
}

/// Node @p d's channel region by name: "a b -> t", "-> end" when it runs
/// to the end of the graph.
std::string region_of(const Network& net, const std::string& name) {
    int d = 0;
    while (net.node_name(d) != name) ++d;
    const Network::ChannelRegion region = net.channel_region(d);
    std::string out;
    for (int id : region.nodes) out += net.node_name(id) + " ";
    return out + "-> " +
           (region.resume < 0 ? "end" : net.node_name(region.resume));
}

TEST(Network, ChannelRegionsOfTheRegisteredModels) {
    // The nodes a one-channel fault stays in, up to the first node that
    // mixes channels: pinned for every weight layer of the three models.
    const Network micronet = models::build_model("micronet");
    EXPECT_EQ(region_of(micronet, "conv1"), "relu1 pool1 -> conv2");
    EXPECT_EQ(region_of(micronet, "conv2"), "relu2 pool2 -> conv3");
    EXPECT_EQ(region_of(micronet, "conv3"), "relu3 avgpool -> fc");
    EXPECT_EQ(region_of(micronet, "fc"), "-> end");

    const Network resnet = models::build_model("resnet20");
    EXPECT_EQ(region_of(resnet, "conv1"), "bn1 relu1 -> stage1.block1.conv1");
    std::vector<std::string> blocks;
    for (int stage = 1; stage <= 3; ++stage)
        for (int block = 1; block <= 3; ++block)
            blocks.push_back("stage" + std::to_string(stage) + ".block" +
                             std::to_string(block));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::string& p = blocks[b];
        EXPECT_EQ(region_of(resnet, p + ".conv1"),
                  p + ".bn1 " + p + ".relu1 -> " + p + ".conv2");
        EXPECT_EQ(region_of(resnet, p + ".conv2"),
                  p + ".bn2 " + p + ".add " + p + ".relu2 " +
                      (b + 1 < blocks.size()
                           ? "-> " + blocks[b + 1] + ".conv1"
                           : std::string("avgpool -> fc")));
    }
    EXPECT_EQ(region_of(resnet, "fc"), "-> end");

    const Network mobilenet = models::build_model("mobilenetv2");
    EXPECT_EQ(region_of(mobilenet, "conv1"), "bn1 relu1 -> block0.expand");
    for (int b = 0; b <= 16; ++b) {
        const std::string p = "block" + std::to_string(b);
        EXPECT_EQ(region_of(mobilenet, p + ".expand"),
                  p + ".bn1 " + p + ".relu1 " + p + ".depthwise " + p +
                      ".bn2 " + p + ".relu2 -> " + p + ".project");
        EXPECT_EQ(region_of(mobilenet, p + ".depthwise"),
                  p + ".bn2 " + p + ".relu2 -> " + p + ".project");
        // Blocks whose input and output shapes match end in a residual Add.
        const bool residual = b == 2 || b == 4 || b == 5 || b == 7 ||
                              b == 8 || b == 9 || b == 11 || b == 12 ||
                              b == 14 || b == 15;
        EXPECT_EQ(region_of(mobilenet, p + ".project"),
                  p + ".bn3 " + (residual ? p + ".add " : std::string()) +
                      "-> " +
                      (b < 16 ? "block" + std::to_string(b + 1) + ".expand"
                              : std::string("conv2")));
    }
    EXPECT_EQ(region_of(mobilenet, "conv2"), "bn2 relu2 avgpool -> fc");
    EXPECT_EQ(region_of(mobilenet, "fc"), "-> end");
}

TEST(Network, ChannelRegionFollowsEveryDirtyReader) {
    stats::Rng rng(12);
    const Network net = make_residual_net(rng);
    // relu1 is read by conv2, where the region ends, and by the Add after
    // it: a dirty node past the resume node stays outside the region.
    EXPECT_EQ(region_of(net, "conv1"), "relu1 -> conv2");
    EXPECT_EQ(region_of(net, "conv2"), "add relu2 gap -> fc");
    EXPECT_EQ(region_of(net, "gap"), "-> fc");
    EXPECT_THROW((void)net.channel_region(net.node_count()), std::out_of_range);
    EXPECT_FALSE(net.layer(0).channel_local());
    EXPECT_TRUE(net.layer(1).channel_local());
}

TEST(Network, AddEnforcesTopologicalOrder) {
    Network net;
    EXPECT_THROW(net.add("bad", std::make_unique<ReLU>(), {0}),
                 std::invalid_argument);
    const int id = net.add("relu", std::make_unique<ReLU>(), {Network::kInputId});
    EXPECT_EQ(id, 0);
    EXPECT_THROW(net.add("self", std::make_unique<ReLU>(), {1}),
                 std::invalid_argument);
    EXPECT_THROW(net.add("null", nullptr, {0}), std::invalid_argument);
}

TEST(Network, AddChainsImplicitly) {
    Network net;
    net.add("a", std::make_unique<ReLU>());
    net.add("b", std::make_unique<ReLU>());
    EXPECT_EQ(net.node_inputs(0), std::vector<int>{Network::kInputId});
    EXPECT_EQ(net.node_inputs(1), std::vector<int>{0});
}

TEST(Network, InferShapesPropagates) {
    stats::Rng rng(1);
    Network net = make_residual_net(rng);
    const auto shapes = net.infer_shapes(Shape{2, 3, 8, 8});
    EXPECT_EQ(shapes.front(), Shape({2, 4, 8, 8}));
    EXPECT_EQ(shapes.back(), Shape({2, 3}));
}

TEST(Network, InferShapesNamesOffendingNode) {
    Network net;
    net.add("conv1", std::make_unique<Conv2d>(3, 4, 3), {Network::kInputId});
    try {
        net.infer_shapes(Shape{1, 5, 8, 8});
        FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("conv1"), std::string::npos);
    }
}

TEST(Network, ForwardMatchesForwardAll) {
    stats::Rng rng(2);
    Network net = make_residual_net(rng);
    const Tensor x = random_tensor(Shape{2, 3, 8, 8}, rng);
    const Tensor direct = net.forward(x);
    std::vector<Tensor> acts;
    net.forward_all(x, acts);
    ASSERT_EQ(acts.size(), static_cast<std::size_t>(net.node_count()));
    for (std::size_t i = 0; i < direct.numel(); ++i)
        EXPECT_FLOAT_EQ(direct[i], acts.back()[i]);
}

TEST(Network, ForwardFromEveryNodeMatchesFullRecompute) {
    // THE invariant behind fast fault campaigns: after perturbing node k's
    // weights, recomputing from k with golden upstream activations must equal
    // a full forward pass.
    stats::Rng rng(3);
    Network net = make_residual_net(rng);
    const Tensor x = random_tensor(Shape{1, 3, 8, 8}, rng);
    std::vector<Tensor> golden;
    net.forward_all(x, golden);

    auto weight_layers = net.weight_layers();
    for (const auto& ref : weight_layers) {
        Tensor& w = *net.layer(ref.node_id).injectable_weight();
        const float saved = w[0];
        w[0] = saved + 10.0f;  // perturb

        const Tensor full = net.forward(x);
        std::vector<Tensor> scratch;
        const Tensor& partial = net.forward_from(ref.node_id, x, golden, scratch);
        EXPECT_TRUE(same_bits(full, partial)) << "node " << ref.name;

        w[0] = saved;
    }
}

TEST(Network, ForwardFromZeroEqualsFullForward) {
    stats::Rng rng(4);
    Network net = make_residual_net(rng);
    const Tensor x = random_tensor(Shape{1, 3, 8, 8}, rng);
    std::vector<Tensor> golden;
    net.forward_all(x, golden);
    std::vector<Tensor> scratch;
    const Tensor& out = net.forward_from(0, x, golden, scratch);
    EXPECT_TRUE(same_bits(out, net.forward(x)));
}

TEST(Network, ForwardFromPastEndReturnsGolden) {
    stats::Rng rng(5);
    Network net = make_residual_net(rng);
    const Tensor x = random_tensor(Shape{1, 3, 8, 8}, rng);
    std::vector<Tensor> golden;
    net.forward_all(x, golden);
    std::vector<Tensor> scratch;
    const Tensor& out = net.forward_from(net.node_count(), x, golden, scratch);
    EXPECT_EQ(&out, &golden.back());
}

TEST(Network, ForwardFromRejectsBadCache) {
    stats::Rng rng(6);
    Network net = make_residual_net(rng);
    const Tensor x = random_tensor(Shape{1, 3, 8, 8}, rng);
    std::vector<Tensor> wrong(2), scratch;
    EXPECT_THROW(net.forward_from(0, x, wrong, scratch), std::invalid_argument);
}

TEST(Network, CloneIsIndependent) {
    stats::Rng rng(7);
    Network net = make_residual_net(rng);
    Network copy = net.clone();
    const Tensor x = random_tensor(Shape{1, 3, 8, 8}, rng);
    const Tensor before = net.forward(x);

    // Corrupt the clone; the original must not change.
    (*copy.weight_layers()[0].weight)[0] += 100.0f;
    const Tensor after = net.forward(x);
    for (std::size_t i = 0; i < before.numel(); ++i)
        EXPECT_FLOAT_EQ(before[i], after[i]);

    const Tensor cloned_out = copy.forward(x);
    bool any_diff = false;
    for (std::size_t i = 0; i < before.numel(); ++i)
        any_diff |= cloned_out[i] != before[i];
    EXPECT_TRUE(any_diff);
}

TEST(Network, WeightLayersOrderAndCount) {
    stats::Rng rng(8);
    Network net = make_residual_net(rng);
    const auto refs = net.weight_layers();
    ASSERT_EQ(refs.size(), 3u);  // conv1, conv2, fc
    EXPECT_EQ(refs[0].name, "conv1");
    EXPECT_EQ(refs[1].name, "conv2");
    EXPECT_EQ(refs[2].name, "fc");
    EXPECT_EQ(net.total_weight_count(),
              refs[0].weight->numel() + refs[1].weight->numel() +
                  refs[2].weight->numel());
}

TEST(Network, NodeAccessorsValidateIds) {
    Network net;
    net.add("a", std::make_unique<ReLU>());
    EXPECT_THROW(net.layer(-1), std::out_of_range);
    EXPECT_THROW(net.node_name(1), std::out_of_range);
}

TEST(ArgmaxRow, PicksMaximumPerRow) {
    Tensor logits(Shape{2, 4});
    logits.at2(0, 2) = 5.0f;
    logits.at2(1, 0) = 1.0f;
    EXPECT_EQ(argmax_row(logits, 0), 2);
    EXPECT_EQ(argmax_row(logits, 1), 0);
}

}  // namespace
}  // namespace statfi::nn
