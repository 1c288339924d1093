// Tests for the fault-batched ensemble forward: evaluate_group() must be
// bit-identical — outcomes AND inference counts — to the per-fault oracle
// (tests/support/reference_classifier.hpp: one fault, one image, one full
// downstream forward pass at a time), for every fault model, classification
// policy, mitigation, and ensemble width. Grouping is a throughput knob
// like the worker count; this suite is the contract that keeps it from
// ever becoming a semantic one.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "../support/reference_classifier.hpp"

namespace statfi::core {
namespace {

struct Fixture {
    nn::Network net;
    data::Dataset eval;

    static Fixture make(int eval_images = 6) {
        auto net = models::make_micronet();
        stats::Rng rng(31337);
        nn::init_network_kaiming(net, rng);
        data::SyntheticSpec spec;
        spec.noise_stddev = 0.8;
        auto train = data::make_synthetic(spec, 256, "train");
        nn::train_classifier(net, train.images, train.labels, 4, 32, {}, rng);
        auto eval = data::make_synthetic(spec, eval_images, "test");
        return Fixture{std::move(net), std::move(eval)};
    }
};

fault::FaultUniverse universe_for(nn::Network& net,
                                  const std::string& model) {
    if (model == "stuck-at") return fault::FaultUniverse::stuck_at(net);
    if (model == "flip") return fault::FaultUniverse::bit_flip(net);
    if (model == "mbu") return fault::FaultUniverse::multi_bit(net, 2);
    return fault::FaultUniverse::activation(net, Shape{3, 32, 32});
}

/// Decode a stretch of the universe starting at @p begin, grouped exactly
/// the way the engine does: consecutive faults sharing a layer and an
/// ensemble family (fault::same_ensemble_family — e.g. StuckAt0 and
/// StuckAt1 interleave within one group), at most @p width per group.
std::vector<std::vector<fault::Fault>> make_groups(
    const fault::FaultUniverse& universe, std::uint64_t begin,
    std::uint64_t count, std::size_t width) {
    std::vector<std::vector<fault::Fault>> groups;
    const std::uint64_t end = std::min(begin + count, universe.total());
    for (std::uint64_t i = begin; i < end;) {
        std::vector<fault::Fault> group;
        const fault::Fault first = universe.decode(i);
        while (i < end && group.size() < width) {
            const fault::Fault f = universe.decode(i);
            if (f.layer != first.layer ||
                !fault::same_ensemble_family(f.model, first.model))
                break;
            group.push_back(f);
            ++i;
        }
        groups.push_back(std::move(group));
    }
    return groups;
}

/// The identity check: a core classifies via evaluate_group, the per-fault
/// oracle (private network clone) one fault at a time. Outcomes and
/// inference counts must match exactly.
void expect_group_identity(const Fixture& fx, const std::string& model,
                           ExecutorConfig config, std::size_t width,
                           std::uint64_t begin, std::uint64_t count) {
    nn::Network net_a = fx.net.clone();
    nn::Network net_b = fx.net.clone();
    const auto universe = universe_for(net_a, model);
    // Universe layout is weight-layer-indexed, not storage-pointer-bound:
    // net_b's clone has identical shapes, so faults decode the same.
    ClassificationCore grouped(net_a, fx.eval, config);
    testsupport::ReferenceClassifier singles(net_b, fx.eval, config);

    for (const auto& group :
         make_groups(universe, begin, count, width)) {
        std::vector<FaultOutcome> out(group.size(), FaultOutcome::NonCritical);
        grouped.evaluate_group(group, out.data());
        for (std::size_t i = 0; i < group.size(); ++i)
            EXPECT_EQ(out[i], singles.evaluate(group[i]))
                << model << " width=" << width << " fault "
                << group[i].to_string();
    }
    EXPECT_EQ(grouped.inference_count(), singles.inference_count())
        << model << " width=" << width;
}

TEST(EnsembleForward, MatchesPerFaultLoopAcrossFaultModels) {
    auto fx = Fixture::make();
    for (const char* model : {"stuck-at", "flip", "mbu", "activation"}) {
        SCOPED_TRACE(model);
        // A stretch of layer 0 plus one crossing into later layers.
        expect_group_identity(fx, model, {}, 8, 0, 96);
    }
}

TEST(EnsembleForward, MatchesAcrossPolicies) {
    auto fx = Fixture::make();
    ExecutorConfig config;
    config.policy = ClassificationPolicy::GoldenMismatch;
    expect_group_identity(fx, "stuck-at", config, 8, 0, 64);
    config.policy = ClassificationPolicy::AccuracyDrop;
    config.accuracy_drop_threshold = 0.1;
    expect_group_identity(fx, "stuck-at", config, 8, 0, 64);
    config.policy = ClassificationPolicy::AnyMisprediction;
    expect_group_identity(fx, "flip", config, 8, 0, 64);
}

TEST(EnsembleForward, MatchesAcrossWidths) {
    // Width 1 runs every fault as a group of one; stuck-at at width 2 pairs
    // each weight's SA0/SA1, one of which is always masked, so every group
    // has exactly one live lane.
    auto fx = Fixture::make();
    for (std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{8}, std::size_t{64}}) {
        SCOPED_TRACE(width);
        expect_group_identity(fx, "stuck-at", {}, width, 0, 48);
    }
    for (const char* model : {"flip", "activation"})
        for (std::size_t width : {std::size_t{1}, std::size_t{2}}) {
            SCOPED_TRACE(std::string(model) + " width " +
                         std::to_string(width));
            expect_group_identity(fx, model, {}, width, 0, 48);
        }
}

TEST(EnsembleForward, MatchesUnderMitigation) {
    auto fx = Fixture::make();
    ExecutorConfig config;
    config.mitigation.clips.push_back(fault::ClipRule{"*", -6.0f, 6.0f});
    expect_group_identity(fx, "stuck-at", config, 8, 0, 64);
    expect_group_identity(fx, "activation", config, 8, 0, 64);
    config.mitigation.tmr.push_back(fault::TmrRule{"conv1"});
    expect_group_identity(fx, "stuck-at", config, 8, 0, 64);
}

TEST(EnsembleForward, MatchesOnDeepLayersAndMaskedMix) {
    // Later layers exercise the suffix-dependency replication (residual
    // reads of old producers) and stuck-at stretches mix Masked lanes in.
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    const auto universe = fault::FaultUniverse::stuck_at(net);
    const std::uint64_t tail = universe.total() - 80;
    expect_group_identity(fx, "stuck-at", {}, 8, tail, 80);
}

TEST(EnsembleForward, RejectsMixedGroups) {
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    ClassificationCore core(net, fx.eval);
    fault::Fault a, b;
    a.layer = 0;
    b.layer = 1;  // different layer, same model
    std::vector<fault::Fault> mixed = {a, b};
    FaultOutcome out[2];
    EXPECT_THROW(core.evaluate_group(mixed, out), std::invalid_argument);
    b.layer = 0;
    b.model = fault::FaultModel::ActivationFlip;  // weight + activation family
    mixed = {a, b};
    EXPECT_THROW(core.evaluate_group(mixed, out), std::invalid_argument);
}

TEST(EnsembleForward, MixedWeightModelsGroupTogether) {
    // Different weight-resident models sharing one layer are one family:
    // a group mixing stuck-at polarities, a bit flip, and a multi-bit upset
    // must classify identically to the per-fault oracle. This is the shape the
    // engine actually produces — stuck-at universes alternate polarity at
    // consecutive indices.
    auto fx = Fixture::make();
    nn::Network net_a = fx.net.clone();
    nn::Network net_b = fx.net.clone();
    ClassificationCore grouped(net_a, fx.eval);
    testsupport::ReferenceClassifier singles(net_b, fx.eval);
    std::vector<fault::Fault> group;
    for (std::uint32_t i = 0; i < 8; ++i) {
        fault::Fault f;
        f.layer = 0;
        f.weight_index = i * 3;
        f.bit = 20 + i;
        f.model = (i % 4 == 0)   ? fault::FaultModel::StuckAt0
                  : (i % 4 == 1) ? fault::FaultModel::StuckAt1
                  : (i % 4 == 2) ? fault::FaultModel::BitFlip
                                 : fault::FaultModel::MultiFlip;
        if (f.model == fault::FaultModel::MultiFlip) f.k = 2;
        group.push_back(f);
    }
    std::vector<FaultOutcome> out(group.size(), FaultOutcome::NonCritical);
    grouped.evaluate_group(group, out.data());
    for (std::size_t i = 0; i < group.size(); ++i)
        EXPECT_EQ(out[i], singles.evaluate(group[i])) << group[i].to_string();
    EXPECT_EQ(grouped.inference_count(), singles.inference_count());
}

TEST(EnsembleForward, EngineOutcomesIndependentOfEnsembleWidth) {
    // End to end: the campaign result (tallies, per-item outcomes) must not
    // depend on the width knob, exactly as it must not depend on workers.
    auto fx = Fixture::make();
    auto run_with = [&](std::size_t width) {
        nn::Network net = fx.net.clone();
        auto universe = fault::FaultUniverse::stuck_at(net);
        ExecutorConfig config;
        config.ensemble_width = width;
        CampaignEngine engine(net, fx.eval, config);
        CampaignSpec spec;
        spec.approach = Approach::NetworkWise;
        spec.sample.error_margin = 0.05;
        spec.sample.confidence = 0.95;
        const auto plan = engine.plan(universe, spec);
        return engine.run(universe, plan, stats::Rng(7).fork("campaign"));
    };
    const CampaignResult one = run_with(1);
    const CampaignResult eight = run_with(8);
    ASSERT_EQ(one.subpops.size(), eight.subpops.size());
    EXPECT_EQ(one.total_injected(), eight.total_injected());
    EXPECT_EQ(one.total_critical(), eight.total_critical());
    for (std::size_t s = 0; s < one.subpops.size(); ++s) {
        EXPECT_EQ(one.subpops[s].critical, eight.subpops[s].critical);
        EXPECT_EQ(one.subpops[s].masked, eight.subpops[s].masked);
    }
}

}  // namespace
}  // namespace statfi::core
