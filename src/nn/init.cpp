#include "nn/init.hpp"

#include <cmath>
#include <stdexcept>

namespace statfi::nn {

namespace {

/// fan_in of (out, in) matrices and (Cout, Cin, K, K) kernels.
double fan_in(const Tensor& weight) {
    const auto& d = weight.shape().dims();
    if (d.size() == 2) return static_cast<double>(d[1]);
    if (d.size() == 4)
        return static_cast<double>(d[1]) * static_cast<double>(d[2] * d[3]);
    throw std::invalid_argument("init: unsupported weight rank " +
                                std::to_string(d.size()));
}

}  // namespace

void kaiming_normal(Tensor& weight, stats::Rng& rng) {
    // Depthwise kernels have fan_in = K*K (Cin dim is 1); guard against 0.
    const double std = std::sqrt(2.0 / std::max(fan_in(weight), 1.0));
    for (std::size_t i = 0; i < weight.numel(); ++i)
        weight[i] = static_cast<float>(rng.normal(0.0, std));
}

void init_network_kaiming(Network& net, stats::Rng& rng) {
    for (auto& ref : net.weight_layers()) {
        auto stream = rng.fork(ref.name);
        kaiming_normal(*ref.weight, stream);
    }
}

}  // namespace statfi::nn
