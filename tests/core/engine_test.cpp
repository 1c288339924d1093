// Tests for the CampaignEngine facade: results must be bit-identical for
// any worker count (serial is just the 1-worker case), every statistical
// approach must run end-to-end through CampaignSpec -> plan -> run, and
// replaying a plan against the engine's census must match direct injection.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "core/planner.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "telemetry/session.hpp"

namespace statfi::core {
namespace {

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;

    static Fixture make() {
        auto net = models::make_micronet();
        stats::Rng rng(777);
        nn::init_network_kaiming(net, rng);
        data::SyntheticSpec spec;
        spec.noise_stddev = 0.8;
        auto train = data::make_synthetic(spec, 256, "train");
        nn::train_classifier(net, train.images, train.labels, 3, 32, {}, rng);
        auto eval = data::make_synthetic(spec, 4, "test");
        auto universe = fault::FaultUniverse::stuck_at(net);
        return Fixture{std::move(net), std::move(eval), std::move(universe)};
    }
};

/// The engine never mutates the source network (workers clone), so the
/// trained fixture and its exhaustive census are shared across tests.
Fixture& fixture() {
    static Fixture fx = Fixture::make();
    return fx;
}

const ExhaustiveOutcomes& ground_truth() {
    static const ExhaustiveOutcomes truth = [] {
        auto& fx = fixture();
        CampaignEngine engine(fx.net, fx.eval);
        return engine.run_exhaustive(fx.universe);
    }();
    return truth;
}

TEST(Engine, GoldenStateIdenticalAcrossWorkerCounts) {
    auto& fx = fixture();
    CampaignEngine serial(fx.net, fx.eval);
    CampaignEngine parallel(fx.net, fx.eval, {}, 3);
    EXPECT_EQ(serial.worker_count(), 1u);
    EXPECT_EQ(parallel.worker_count(), 3u);
    EXPECT_DOUBLE_EQ(parallel.golden_accuracy(), serial.golden_accuracy());
    EXPECT_EQ(parallel.golden_predictions(), serial.golden_predictions());
}

TEST(Engine, RunIsBitIdenticalForAnyWorkerCount) {
    auto& fx = fixture();
    stats::SampleSpec spec;
    spec.error_margin = 0.03;  // keep n modest for test speed

    CampaignEngine serial(fx.net, fx.eval);
    const auto plan = plan_layer_wise(fx.universe, spec);
    const auto expected = serial.run(fx.universe, plan, stats::Rng(11));

    for (const std::size_t threads : {1u, 2u, 4u}) {
        CampaignEngine engine(fx.net, fx.eval, {}, threads);
        const auto got = engine.run(fx.universe, plan, stats::Rng(11));
        ASSERT_EQ(got.subpops.size(), expected.subpops.size());
        for (std::size_t s = 0; s < got.subpops.size(); ++s) {
            EXPECT_EQ(got.subpops[s].injected, expected.subpops[s].injected)
                << threads << " threads, subpop " << s;
            EXPECT_EQ(got.subpops[s].critical, expected.subpops[s].critical)
                << threads << " threads, subpop " << s;
            EXPECT_EQ(got.subpops[s].masked, expected.subpops[s].masked);
        }
    }
}

TEST(Engine, NetworkWisePerLayerTalliesMatchSerial) {
    auto& fx = fixture();
    stats::SampleSpec spec;
    spec.error_margin = 0.05;
    const auto plan = plan_network_wise(fx.universe, spec);

    CampaignEngine serial(fx.net, fx.eval);
    const auto expected = serial.run(fx.universe, plan, stats::Rng(22));
    CampaignEngine parallel(fx.net, fx.eval, {}, 2);
    const auto got = parallel.run(fx.universe, plan, stats::Rng(22));
    ASSERT_EQ(got.subpops.size(), 1u);
    EXPECT_EQ(got.subpops[0].layer_injected,
              expected.subpops[0].layer_injected);
    EXPECT_EQ(got.subpops[0].layer_critical,
              expected.subpops[0].layer_critical);
}

TEST(Engine, ExhaustiveMatchesSerial) {
    // Every census slot, for every worker count: workers claim groups in a
    // nondeterministic order, which must reach neither an outcome nor the
    // amount of work done.
    auto& fx = fixture();
    const auto& expected = ground_truth();  // 1-worker census
    std::vector<std::uint64_t> inferences;
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
        CampaignEngine engine(fx.net, fx.eval, {}, threads);
        const auto got = engine.run_exhaustive(fx.universe);
        ASSERT_EQ(got.size(), expected.size());
        for (std::uint64_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got.at(i), expected.at(i))
                << threads << " threads, fault " << i;
        EXPECT_DOUBLE_EQ(got.network_critical_rate(),
                         expected.network_critical_rate());
        inferences.push_back(engine.inference_count());
    }
    for (std::size_t t = 1; t < inferences.size(); ++t)
        EXPECT_EQ(inferences[t], inferences[0]) << t + 1 << " threads";
}

/// The stratum_update lines of an event log, wall-clock stamps blanked.
std::vector<std::string> stratum_updates(const std::string& log) {
    static const std::regex ts("\"ts\":[-0-9.eE+]+");
    std::vector<std::string> lines;
    std::istringstream in(log);
    for (std::string line; std::getline(in, line);)
        if (line.find("\"type\":\"stratum_update\"") != std::string::npos)
            lines.push_back(std::regex_replace(line, ts, "\"ts\":_"));
    return lines;
}

TEST(Engine, RunMatchesRunDurable) {
    // run() is draw_plan + the executor without a journal; run_durable over
    // the same drawn items must tally and report identically.
    auto& fx = fixture();
    stats::SampleSpec spec;
    spec.error_margin = 0.05;
    const auto logged = [&](auto&& execute) {
        std::ostringstream buffer;
        telemetry::Session session;
        session.attach_event_log(buffer);
        session.events()->emit(telemetry::Event("campaign_header")
                                   .field("schema",
                                          telemetry::EventLog::kSchemaName));
        CampaignEngine engine(fx.net, fx.eval, {}, 2, &session);
        CampaignResult result = execute(engine);
        return std::pair{std::move(result), stratum_updates(buffer.str())};
    };
    for (const auto& plan : {plan_layer_wise(fx.universe, spec),
                             plan_network_wise(fx.universe, spec)}) {
        SCOPED_TRACE(to_string(plan.approach));
        const auto [direct, direct_log] = logged([&](CampaignEngine& engine) {
            return engine.run(fx.universe, plan, stats::Rng(31));
        });
        const auto [durable, durable_log] =
            logged([&](CampaignEngine& engine) {
                const auto items =
                    draw_plan(fx.universe, plan, stats::Rng(31));
                return engine.run_durable(fx.universe, plan, items, {})
                    .result;
            });

        EXPECT_EQ(direct.approach, durable.approach);
        EXPECT_EQ(direct.spec.error_margin, durable.spec.error_margin);
        EXPECT_EQ(direct.spec.confidence, durable.spec.confidence);
        EXPECT_EQ(direct.interrupted, durable.interrupted);
        ASSERT_EQ(direct.subpops.size(), durable.subpops.size());
        for (std::size_t s = 0; s < direct.subpops.size(); ++s) {
            const SubpopResult& a = direct.subpops[s];
            const SubpopResult& b = durable.subpops[s];
            EXPECT_EQ(a.injected, b.injected) << "subpop " << s;
            EXPECT_EQ(a.critical, b.critical) << "subpop " << s;
            EXPECT_EQ(a.masked, b.masked) << "subpop " << s;
            EXPECT_EQ(a.layer_injected, b.layer_injected) << "subpop " << s;
            EXPECT_EQ(a.layer_critical, b.layer_critical) << "subpop " << s;
        }
        ASSERT_FALSE(direct_log.empty());
        EXPECT_EQ(direct_log, durable_log);
    }
}

TEST(Engine, RunCampaignCoversEveryStatisticalApproach) {
    // The facade smoke test: every SFI approach goes CampaignSpec -> plan ->
    // run through one entry point, and replaying the same plan against the
    // exhaustive census gives bit-identical tallies.
    auto& fx = fixture();
    CampaignEngine engine(fx.net, fx.eval);
    for (const auto approach :
         {Approach::NetworkWise, Approach::LayerWise, Approach::DataUnaware,
          Approach::DataAware}) {
        CampaignSpec spec;
        spec.approach = approach;
        spec.sample.error_margin = 0.05;
        const auto plan = engine.plan(fx.universe, spec);
        EXPECT_EQ(plan.approach, approach);
        EXPECT_GT(plan.total_sample_size(), 0u);

        const auto direct = engine.run(fx.universe, plan, stats::Rng(99));
        EXPECT_EQ(direct.approach, approach);
        EXPECT_EQ(direct.total_injected(), plan.total_sample_size());

        // run_campaign == plan + run with the same stream.
        const auto combined =
            engine.run_campaign(fx.universe, spec, stats::Rng(99));
        EXPECT_EQ(combined.total_injected(), direct.total_injected());
        EXPECT_EQ(combined.total_critical(), direct.total_critical());

        const auto replayed =
            replay(fx.universe, plan, ground_truth(), stats::Rng(99));
        ASSERT_EQ(replayed.subpops.size(), direct.subpops.size());
        for (std::size_t s = 0; s < direct.subpops.size(); ++s) {
            EXPECT_EQ(direct.subpops[s].injected, replayed.subpops[s].injected)
                << to_string(approach) << " subpop " << s;
            EXPECT_EQ(direct.subpops[s].critical, replayed.subpops[s].critical)
                << to_string(approach) << " subpop " << s;
            EXPECT_EQ(direct.subpops[s].masked, replayed.subpops[s].masked);
        }
    }
}

TEST(Engine, ExhaustiveSpecRunsThroughTheStatisticalPath) {
    // plan_exhaustive fully samples every subpopulation, so run_campaign
    // with an Exhaustive spec must reproduce the census tallies exactly.
    auto& fx = fixture();
    CampaignEngine engine(fx.net, fx.eval, {}, 2);
    CampaignSpec spec;
    spec.approach = Approach::Exhaustive;
    const auto result = engine.run_campaign(fx.universe, spec, stats::Rng(1));
    EXPECT_EQ(result.total_injected(), fx.universe.total());
    EXPECT_EQ(result.total_critical(),
              ground_truth().critical_count(0, ground_truth().size()));
}

TEST(Engine, CriticalCountIndexInvalidatesOnMutation) {
    // critical_count is served from a lazily built prefix-sum index; a set()
    // after the index is built must invalidate it, never serve stale counts.
    ExhaustiveOutcomes outcomes(100);
    for (std::uint64_t i = 0; i < 100; i += 2)
        outcomes.set(i, FaultOutcome::Critical);
    EXPECT_EQ(outcomes.critical_count(0, 100), 50u);  // builds the index
    outcomes.set(1, FaultOutcome::Critical);
    EXPECT_EQ(outcomes.critical_count(0, 100), 51u);
    EXPECT_EQ(outcomes.critical_count(0, 2), 2u);
    outcomes.set(0, FaultOutcome::NonCritical);
    EXPECT_EQ(outcomes.critical_count(0, 100), 50u);
    EXPECT_EQ(outcomes.critical_count(0, 2), 1u);
    // A mutated copy must not disturb the original's index (and vice versa).
    ExhaustiveOutcomes copy = outcomes;
    copy.set(3, FaultOutcome::Critical);
    EXPECT_EQ(copy.critical_count(0, 100), 51u);
    EXPECT_EQ(outcomes.critical_count(0, 100), 50u);
}

TEST(Engine, WorkerWeightsStayIsolated) {
    // A campaign must leave the original network untouched (workers clone).
    auto& fx = fixture();
    const Tensor before = fx.net.forward(fx.eval.images);
    CampaignEngine engine(fx.net, fx.eval, {}, 2);
    stats::SampleSpec spec;
    spec.error_margin = 0.05;
    (void)engine.run(fx.universe, plan_network_wise(fx.universe, spec),
                     stats::Rng(3));
    const Tensor after = fx.net.forward(fx.eval.images);
    for (std::size_t i = 0; i < before.numel(); ++i)
        ASSERT_EQ(before[i], after[i]);
}

TEST(Engine, ApproachFromStringRoundTrips) {
    for (const auto approach :
         {Approach::Exhaustive, Approach::NetworkWise, Approach::LayerWise,
          Approach::DataUnaware, Approach::DataAware})
        EXPECT_EQ(approach_from_string(to_string(approach)), approach);
    EXPECT_THROW(approach_from_string("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace statfi::core
