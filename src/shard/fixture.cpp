#include "shard/fixture.hpp"

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "formats/quantized_store.hpp"
#include "kernels/registry.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "report/table.hpp"

namespace statfi::shard {

namespace {

constexpr std::int64_t kTrainImages = 1024;
constexpr int kEpochs = 8;

/// Load the recipe's cached trained weights into @p net, or train @p net
/// from its Kaiming init and cache them. A file that fails to load is
/// refused: an artifact_refused event on @p log (optional), and its reason
/// on the training line.
void load_or_train(nn::Network& net, const CampaignRecipe& recipe,
                   const data::SyntheticSpec& spec, telemetry::EventLog* log) {
    const std::string path = cache_directory() + "/" + recipe.model + "_s" +
                             std::to_string(recipe.seed) + "_t" +
                             std::to_string(kTrainImages) + "_e" +
                             std::to_string(kEpochs) + ".sfiw";
    std::string refused;
    if (std::filesystem::exists(path)) {
        // load_parameters writes each tensor as it validates it, so load
        // into a fresh network: a refused file leaves `net` at its init.
        auto cached = models::build_model(recipe.model);
        try {
            nn::load_parameters(cached, path);
            net = std::move(cached);
            return;
        } catch (const std::exception& e) {
            refused = std::string(" (cached weights refused: ") + e.what() + ")";
            if (log)
                log->emit(telemetry::Event("artifact_refused")
                              .field("kind", "weights")
                              .field("path", path)
                              .field("reason", e.what()));
        }
    }
    std::cerr << "training " << recipe.model << " on synthetic data" << refused
              << "...\n";
    const auto train = data::make_synthetic(spec, kTrainImages, "train");
    auto train_rng = stats::Rng(recipe.seed).fork("train");
    nn::train_classifier(net, train.images, train.labels, kEpochs, 32,
                         nn::SgdConfig{}, train_rng);
    nn::save_parameters(net, path);
}

}  // namespace

std::string cache_directory() {
    const char* env = std::getenv("STATFI_CACHE_DIR");
    const std::string dir = env && *env ? env : ".statfi_cache";
    std::filesystem::create_directories(dir);
    return dir;
}

CampaignFixture build_fixture(const CampaignRecipe& recipe,
                              telemetry::Session* telemetry) {
    telemetry::PhaseScope scope(telemetry, "fixture_build");
    auto net = models::build_model(recipe.model);
    stats::Rng rng(recipe.seed);
    auto init_rng = rng.fork("init");
    nn::init_network_kaiming(net, init_rng);
    data::SyntheticSpec spec;
    spec.seed = recipe.seed;
    double test_accuracy = 0.0;
    if (recipe.train) {
        load_or_train(net, recipe, spec,
                      telemetry ? telemetry->events() : nullptr);
        const auto test = data::make_synthetic(spec, 256, "test");
        test_accuracy = nn::top1_accuracy(net.forward(test.images), test.labels);
        std::cerr << "test accuracy: "
                  << report::fmt_percent(test_accuracy, 1) << "%\n";
    }
    auto eval = data::make_synthetic(spec, recipe.images, "test");
    core::ExecutorConfig config;
    config.policy = recipe.policy;
    config.accuracy_drop_threshold = recipe.accuracy_drop_threshold;
    config.dtype = recipe.dtype;
    config.mitigation = recipe.mitigation;
    // Reduced-precision campaigns run against the weights the device would
    // hold: snapshot into the format's encoded words and deploy the decoded
    // values, so the golden pass and every kernel compute with quantized
    // weights. The store's per-tensor scales travel in the config — deriving
    // them again from the deployed weights would drift by an ulp.
    if (recipe.dtype != fault::DataType::Float32) {
        const formats::QuantizedStore store(net, recipe.dtype);
        store.deploy(net);
        config.layer_quant = store.all_params();
    }
    auto universe = fault::FaultUniverse::make(
        net, recipe.fault_model, Shape{spec.channels, spec.height, spec.width},
        recipe.dtype);
    return CampaignFixture{std::move(net), std::move(eval),
                           std::move(universe), config, test_accuracy};
}

core::CampaignSpec campaign_spec(const CampaignRecipe& recipe) {
    core::CampaignSpec spec;
    spec.approach = recipe.approach;
    spec.sample.error_margin = recipe.error_margin;
    spec.sample.confidence = recipe.confidence;
    return spec;
}

core::CampaignHeaderInfo campaign_header(const CampaignRecipe& recipe,
                                         const std::string& command) {
    core::CampaignHeaderInfo info;
    info.command = command;
    info.model = recipe.model;
    info.approach = core::to_string(recipe.approach);
    info.dtype = fault::to_string(recipe.dtype);
    info.policy = core::to_string(recipe.policy);
    info.seed = recipe.seed;
    info.images = recipe.images;
    info.confidence = recipe.confidence;
    info.error_margin = recipe.error_margin;
    info.fault_model = recipe.fault_model.describe();
    info.mitigation = recipe.mitigation.describe();
    info.kernels = kernels::active().name;
    return info;
}

ShardManifest freeze_manifest(const CampaignRecipe& recipe,
                              const CampaignFixture& fx) {
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    ShardManifest manifest;
    manifest.recipe = recipe;
    manifest.fingerprint = engine.fingerprint(fx.universe, recipe.model);
    manifest.layer_count =
        static_cast<std::uint32_t>(fx.universe.layer_count());
    if (recipe.approach == core::Approach::Exhaustive) {
        manifest.plan.approach = core::Approach::Exhaustive;
        manifest.item_count = fx.universe.total();
    } else {
        manifest.plan = engine.plan(fx.universe, campaign_spec(recipe));
        manifest.item_count = manifest.plan.total_sample_size();
    }
    return manifest;
}

}  // namespace statfi::shard
