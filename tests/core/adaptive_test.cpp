// Tests for the adaptive two-phase campaign.

#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/estimator.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"

namespace statfi::core {
namespace {

/// Synthetic ground truth with a controlled per-bit criticality profile.
struct TruthFixture {
    nn::Network net = models::make_micronet();
    fault::FaultUniverse universe = fault::FaultUniverse::stuck_at(net);
    ExhaustiveOutcomes truth{universe.total()};

    /// Mark bit 30 faults critical with rate ~0.5 and bit 24 with ~0.05.
    TruthFixture() {
        for (int l = 0; l < universe.layer_count(); ++l) {
            mark(l, 30, 2);   // every 2nd fault critical
            mark(l, 24, 20);  // every 20th
        }
    }
    void mark(int layer, int bit, std::uint64_t stride) {
        const auto base = universe.subpop_offset(layer, bit);
        for (std::uint64_t i = 0; i < universe.bit_population(layer);
             i += stride)
            truth.set(base + i, FaultOutcome::Critical);
    }
};

TEST(Adaptive, PilotPlusRefinementAccounting) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 20;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(1));
    EXPECT_EQ(result.pilot_injected,
              static_cast<std::uint64_t>(fx.universe.layer_count()) * 32 * 20);
    EXPECT_GT(result.refinement_injected, 0u);
    EXPECT_EQ(result.total_injected(),
              result.pilot_injected + result.refinement_injected);
    // Combined tallies count distinct faults only.
    std::uint64_t combined = 0;
    for (const auto& sp : result.combined.subpops) combined += sp.injected;
    EXPECT_LE(combined, result.total_injected());
    EXPECT_EQ(result.combined.subpops.size(),
              static_cast<std::size_t>(fx.universe.layer_count()) * 32);
}

TEST(Adaptive, SpendsWhereCriticalityIs) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 40;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(2));
    // Sum injections per bit position across layers.
    std::map<int, std::uint64_t> per_bit;
    for (const auto& sp : result.combined.subpops)
        per_bit[sp.plan.bit] += sp.injected;
    // The hot bit (30, p~0.5) must receive the largest budget; a cold bit
    // (e.g. 5, p=0) only the pilot.
    for (int bit = 0; bit < 32; ++bit)
        EXPECT_GE(per_bit[30], per_bit[bit]) << "bit " << bit;
    EXPECT_GT(per_bit[30], per_bit[5] * 2);
    EXPECT_GT(per_bit[24], per_bit[5]);
}

TEST(Adaptive, EstimatesMatchTruthWithinMargin) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 50;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(3));
    EstimatorConfig est_config;
    est_config.laplace_smoothing = true;
    const auto layers =
        estimate_layers(fx.universe, result.combined, est_config);
    int contained = 0;
    for (const auto& le : layers)
        contained +=
            le.estimate.contains(fx.truth.layer_critical_rate(fx.universe,
                                                              le.layer));
    EXPECT_GE(contained, 3);  // 99% intervals, 4 layers
}

TEST(Adaptive, CheaperThanDataUnaware) {
    TruthFixture fx;
    AdaptiveConfig config;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(4));
    const auto unaware =
        plan_data_unaware(fx.universe, config.spec).total_sample_size();
    EXPECT_LT(result.total_injected(), unaware);
}

TEST(Adaptive, DeterministicForFixedSeed) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 25;
    const auto a = replay_adaptive(fx.universe, fx.truth, config, stats::Rng(9));
    const auto b = replay_adaptive(fx.universe, fx.truth, config, stats::Rng(9));
    ASSERT_EQ(a.combined.subpops.size(), b.combined.subpops.size());
    for (std::size_t s = 0; s < a.combined.subpops.size(); ++s) {
        EXPECT_EQ(a.combined.subpops[s].injected, b.combined.subpops[s].injected);
        EXPECT_EQ(a.combined.subpops[s].critical, b.combined.subpops[s].critical);
    }
}

TEST(Adaptive, RejectsMismatchedTruth) {
    TruthFixture fx;
    ExhaustiveOutcomes wrong(17);
    EXPECT_THROW(replay_adaptive(fx.universe, wrong, {}, stats::Rng(1)),
                 std::invalid_argument);
}

/// A small trained fixture for the live (injecting) variant: two eval
/// images, built once per process.
struct LiveFixture {
    nn::Network net = models::make_micronet();
    data::Dataset eval;
    fault::FaultUniverse universe = fault::FaultUniverse::stuck_at(net);

    LiveFixture() {
        stats::Rng rng(31);
        nn::init_network_kaiming(net, rng);
        data::SyntheticSpec spec;
        spec.noise_stddev = 0.8;
        auto train = data::make_synthetic(spec, 256, "train");
        nn::train_classifier(net, train.images, train.labels, 3, 32, {}, rng);
        eval = data::make_synthetic(spec, 2, "test");
    }
};

const LiveFixture& live_fixture() {
    static const LiveFixture fx;
    return fx;
}

AdaptiveConfig live_config() {
    AdaptiveConfig config;
    config.pilot_size = 10;
    config.spec.error_margin = 0.05;
    return config;
}

/// GoldenMismatch: a fault is critical when any image's top-1 changes, so
/// the two-image fixture yields critical faults whatever its accuracy.
ExecutorConfig golden_mismatch() {
    ExecutorConfig config;
    config.policy = ClassificationPolicy::GoldenMismatch;
    return config;
}

void expect_same_result(const AdaptiveResult& a, const AdaptiveResult& b) {
    EXPECT_EQ(a.pilot_injected, b.pilot_injected);
    EXPECT_EQ(a.refinement_injected, b.refinement_injected);
    ASSERT_EQ(a.combined.subpops.size(), b.combined.subpops.size());
    for (std::size_t s = 0; s < a.combined.subpops.size(); ++s) {
        const SubpopResult& x = a.combined.subpops[s];
        const SubpopResult& y = b.combined.subpops[s];
        SCOPED_TRACE("subpop " + std::to_string(s));
        EXPECT_EQ(x.plan.layer, y.plan.layer);
        EXPECT_EQ(x.plan.bit, y.plan.bit);
        EXPECT_EQ(x.plan.sample_size, y.plan.sample_size);
        EXPECT_EQ(x.plan.p, y.plan.p);
        EXPECT_EQ(x.injected, y.injected);
        EXPECT_EQ(x.critical, y.critical);
        EXPECT_EQ(x.masked, y.masked);
    }
}

TEST(Adaptive, LiveExecutionAgreesWithPolicy) {
    // Smoke test of the injecting variant on a trained network.
    const auto& fx = live_fixture();
    CampaignEngine engine(fx.net, fx.eval);
    const auto result =
        run_adaptive(engine, fx.universe, live_config(), stats::Rng(5));
    EXPECT_GT(result.total_injected(), 0u);
    const auto network = estimate_network(fx.universe, result.combined);
    EXPECT_GE(network.rate, 0.0);
    EXPECT_LE(network.rate, 1.0);
}

TEST(Adaptive, LiveRunIsWorkerCountInvariant) {
    // Both phases classify through the engine's shared executor, so the
    // worker count — like any other throughput knob — cannot reach a tally.
    const auto& fx = live_fixture();
    CampaignEngine one(fx.net, fx.eval, golden_mismatch(), 1);
    CampaignEngine four(fx.net, fx.eval, golden_mismatch(), 4);
    const auto a = run_adaptive(one, fx.universe, live_config(), stats::Rng(5));
    const auto b =
        run_adaptive(four, fx.universe, live_config(), stats::Rng(5));
    EXPECT_GT(a.combined.total_critical(), 0u);  // not vacuous
    EXPECT_GT(a.refinement_injected, 0u);
    expect_same_result(a, b);
    EXPECT_EQ(one.inference_count(), four.inference_count());
}

TEST(Adaptive, LiveRunMatchesReplay) {
    // Injecting live and replaying the engine's own census draw the same
    // faults from the same streams and must agree on every outcome.
    const auto& fx = live_fixture();
    CampaignEngine engine(fx.net, fx.eval, golden_mismatch(), 2);
    const ExhaustiveOutcomes truth = engine.run_exhaustive(fx.universe);
    const auto live =
        run_adaptive(engine, fx.universe, live_config(), stats::Rng(8));
    const auto replayed =
        replay_adaptive(fx.universe, truth, live_config(), stats::Rng(8));
    EXPECT_GT(live.combined.total_critical(), 0u);  // not vacuous
    expect_same_result(live, replayed);
}

}  // namespace
}  // namespace statfi::core
