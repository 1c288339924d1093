#pragma once
// Campaign fixture reconstruction: recipe -> (network, evaluation set, fault
// universe, executor config), identically in every process.
//
// The shard determinism contract hinges on this being a pure function of
// the recipe: the planning process, each shard runner (possibly on another
// machine), and the unsharded reference run all call build_fixture and land
// on bit-identical weights and evaluation tensors — verified at run time by
// comparing campaign fingerprints against the manifest. freeze_manifest is
// the one place a manifest is planned: `statfi shard plan`, the service, and
// the direct `statfi campaign` / `exhaustive` commands (a one-shard plan run
// in process) all call it, so the CLI and the shard subsystem cannot drift
// apart.

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "shard/manifest.hpp"

namespace statfi::shard {

struct CampaignFixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;
    core::ExecutorConfig config;
    /// Held-out test accuracy when recipe.train is set, else 0.
    double test_accuracy = 0.0;
};

/// Rebuild the campaign fixture from a recipe: build the model, initialize
/// Kaiming from Rng(seed).fork("init"), optionally train on 1024 synthetic
/// images (Rng(seed).fork("train")), generate the evaluation set, and
/// enumerate the recipe's fault-model universe for its dtype (stuck-at,
/// bit-flip, multi-bit, or activation — fault::FaultUniverse::make). The
/// recipe's mitigation config is carried into the executor config, so every
/// runner deploys the same hardened network. Training progress goes to
/// stderr.
CampaignFixture build_fixture(const CampaignRecipe& recipe);

/// The campaign spec a recipe's statistical parameters describe.
core::CampaignSpec campaign_spec(const CampaignRecipe& recipe);

/// Freeze @p recipe into a manifest of @p shards contiguous item ranges:
/// the fixture's campaign fingerprint and layer count, then the item space —
/// the whole universe for a census (empty plan), the planned statistical
/// sample otherwise (a data-aware plan runs its weight analysis here, once).
/// @p fixture must be build_fixture(recipe). @throws std::invalid_argument
/// when @p shards is 0 or exceeds the item count.
ShardManifest freeze_manifest(const CampaignRecipe& recipe,
                              const CampaignFixture& fixture,
                              std::uint32_t shards);

/// Top-1 accuracy of the fixture's deployed network (mitigations included)
/// on its evaluation set: the engine's golden pass, run once.
double golden_accuracy(const CampaignFixture& fixture);

}  // namespace statfi::shard
