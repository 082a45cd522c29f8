#pragma once
// Weight initialization. The data-aware SFI methodology derives per-bit
// criticalities from the *distribution* of golden weights; Kaiming-normal
// initialization reproduces the distribution shape of trained CNN weights
// (zero-centred, |w| well below 2.0) that drives the paper's Fig. 3/4.

#include "nn/network.hpp"
#include "stats/rng.hpp"

namespace statfi::nn {

/// Kaiming (He) normal init for a conv/FC weight tensor: N(0, sqrt(2/fan_in)).
/// fan_in = Cin*K*K for conv weights (Cout,Cin,K,K), in_features for (out,in).
void kaiming_normal(Tensor& weight, stats::Rng& rng);

/// Initialize every injectable weight in the network with Kaiming-normal
/// (streams forked per layer name so layer order doesn't matter).
void init_network_kaiming(Network& net, stats::Rng& rng);

}  // namespace statfi::nn
