// Tests of the harness's own logic: quartile bucketing, FLOP counting,
// self-time arithmetic, digest stability, and the outcome check's vacuity
// rule on a real fixture.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "measure.hpp"
#include "shard/fixture.hpp"
#include "spans.hpp"

namespace statbench {
namespace {

using namespace statfi;

std::array<int, 4> bucket_sizes(int layers) {
    std::array<int, 4> sizes{};
    int last = 0;
    for (int l = 0; l < layers; ++l) {
        const int q = quartile_of(l, layers);
        EXPECT_GE(q, last) << "quartiles must follow depth";
        last = q;
        ++sizes[static_cast<std::size_t>(q)];
    }
    return sizes;
}

TEST(Quartiles, SplitWeightLayersIntoEqualCountDepthBuckets) {
    EXPECT_EQ(bucket_sizes(4), (std::array<int, 4>{1, 1, 1, 1}));     // MicroNet
    EXPECT_EQ(bucket_sizes(20), (std::array<int, 4>{5, 5, 5, 5}));    // ResNet-20
    EXPECT_EQ(bucket_sizes(53), (std::array<int, 4>{14, 13, 13, 13}));
    EXPECT_EQ(quartile_of(0, 20), 0);
    EXPECT_EQ(quartile_of(19, 20), 3);
    EXPECT_THROW(quartile_of(20, 20), std::invalid_argument);
    EXPECT_THROW(quartile_of(-1, 20), std::invalid_argument);
}

TEST(Quartiles, ResNet20FollowsItsStages) {
    // Weight layer 0 is conv1, 1..6 stage 1, 7..12 stage 2, 13..18 stage 3,
    // 19 the FC: q1 = conv1 + most of stage 1, q4 = end of stage 3 + FC.
    EXPECT_EQ(quartile_of(4, 20), 0);
    EXPECT_EQ(quartile_of(5, 20), 1);
    EXPECT_EQ(quartile_of(15, 20), 3);
}

TEST(Flops, CountsOneMultiplyAndOneAddPerTap) {
    // ResNet-20 stage-1 conv: 16 -> 16 channels, 3x3, 32x32 output.
    EXPECT_EQ(conv_flops(16, 16, 3, 32, 32), 2ULL * 16 * 16 * 9 * 32 * 32);
    EXPECT_EQ(conv_flops(16, 16, 3, 32, 32), 4'718'592ULL);
    // Pointwise conv: k = 1.
    EXPECT_EQ(conv_flops(96, 16, 1, 16, 16), 2ULL * 96 * 16 * 256);
    // Direct count over the loop nest agrees.
    std::uint64_t taps = 0;
    for (int co = 0; co < 4; ++co)
        for (int ci = 0; ci < 3; ++ci)
            for (int k = 0; k < 5 * 5; ++k)
                for (int px = 0; px < 7 * 6; ++px) taps += 2;
    EXPECT_EQ(conv_flops(4, 3, 5, 7, 6), taps);
}

Span span(std::uint64_t id, std::uint64_t parent, double start, double end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = "s" + std::to_string(id);
    s.start_us = start;
    s.end_us = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
    const std::vector<Span> spans = {
        span(1, 0, 0, 100),   // root
        span(2, 1, 10, 40),   // child a
        span(3, 1, 30, 60),   // child b, overlaps a: [10, 60) counts once
        span(4, 2, 15, 20),   // grandchild under a only
        span(5, 1, 90, 120),  // child past the root's end: clipped to [90, 100)
    };
    const std::vector<double> self = self_times_us(spans);
    EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 10);
    EXPECT_DOUBLE_EQ(self[1], 30 - 5);
    EXPECT_DOUBLE_EQ(self[2], 30);
    EXPECT_DOUBLE_EQ(self[3], 5);
    EXPECT_DOUBLE_EQ(self[4], 30);
}

TEST(SelfTime, TracerLinksNestedSpansToTheirParents) {
    Tracer tracer(true, 7);
    {
        Tracer::Scope outer(tracer, "outer");
        { Tracer::Scope inner(tracer, "inner"); }
        tracer.record("measured", tracer.now_us(), tracer.now_us());
    }
    const auto& spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[2].parent, spans[0].id);
    const std::vector<double> self = self_times_us(spans);
    EXPECT_GE(self[0], 0.0);
    EXPECT_LE(self[0], spans[0].end_us - spans[0].start_us);

    Tracer off(false, 7);
    { Tracer::Scope s(off, "ignored"); }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Digest, IsFnv1aOverTheOutcomeBytes) {
    EXPECT_EQ(outcome_digest({}), "cbf29ce484222325");
    const std::vector<std::uint8_t> a = {0, 1, 2, 0, 1};
    const std::vector<std::uint8_t> b = {1, 0, 2, 0, 1};
    EXPECT_EQ(outcome_digest(a), outcome_digest(std::vector<std::uint8_t>(a)));
    EXPECT_NE(outcome_digest(a), outcome_digest(b));
    EXPECT_EQ(outcome_digest(a).size(), 16u);
}

shard::CampaignRecipe small_recipe(const std::string& model,
                                   core::ClassificationPolicy policy) {
    shard::CampaignRecipe r;
    r.model = model;
    r.approach = core::Approach::NetworkWise;
    r.error_margin = 0.2;
    r.images = 8;
    r.policy = policy;
    return r;
}

PassRecord run_once(core::CampaignEngine& engine, shard::CampaignFixture& fx,
                    const shard::CampaignRecipe& recipe) {
    const auto plan = engine.plan(fx.universe, shard::campaign_spec(recipe));
    const auto items = core::draw_plan(fx.universe, plan,
                                       stats::Rng(recipe.seed).fork("campaign"));
    const std::uint64_t before = engine.inference_count();
    const auto run = engine.run_durable(fx.universe, plan, items, {});
    PassRecord p;
    p.planned = plan.total_sample_size();
    p.classified = run.classified;
    p.inferences = engine.inference_count() - before;
    p.digest = outcome_digest(run.outcomes);
    return p;
}

TEST(Digest, RepeatsAcrossWorkerCountsAndPasses) {
    const auto recipe =
        small_recipe("micronet", core::ClassificationPolicy::GoldenMismatch);
    auto fx = shard::build_fixture(recipe);
    core::CampaignEngine one(fx.net, fx.eval, fx.config, 1);
    core::CampaignEngine two(fx.net, fx.eval, fx.config, 2);
    const PassRecord a = run_once(one, fx, recipe);
    const PassRecord b = run_once(two, fx, recipe);
    const PassRecord c = run_once(one, fx, recipe);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.digest, c.digest);
    EXPECT_EQ(a.inferences, c.inferences);
    EXPECT_TRUE(check_pass(a, b.digest).empty());
}

TEST(Vacuity, RejectsAnyMispredictionOnUntrainedMobileNetV2) {
    const auto recipe =
        small_recipe("mobilenetv2", core::ClassificationPolicy::AnyMisprediction);
    auto fx = shard::build_fixture(recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config, 1);
    ASSERT_EQ(engine.golden_accuracy(), 0.0);
    const PassRecord p = run_once(engine, fx, recipe);
    EXPECT_EQ(p.classified, p.planned);
    EXPECT_EQ(p.inferences, 0u);
    const auto reasons = check_pass(p, "");
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_NE(reasons[0].find("vacuous"), std::string::npos);
}

TEST(Vacuity, AcceptsGoldenMismatchOnTheSameNetwork) {
    const auto recipe =
        small_recipe("mobilenetv2", core::ClassificationPolicy::GoldenMismatch);
    auto fx = shard::build_fixture(recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config, 1);
    const PassRecord p = run_once(engine, fx, recipe);
    EXPECT_GT(p.inferences, 0u);
    EXPECT_TRUE(check_pass(p, "").empty());
}

TEST(OutcomeCheck, FlagsShortRunsAndDigestMismatch) {
    PassRecord p;
    p.planned = 10;
    p.classified = 9;
    p.inferences = 5;
    p.digest = "00000000000000aa";
    const auto reasons = check_pass(p, "00000000000000bb");
    ASSERT_EQ(reasons.size(), 2u);
    EXPECT_NE(reasons[0].find("classified 9 of 10"), std::string::npos);
    EXPECT_NE(reasons[1].find("digest"), std::string::npos);
}

}  // namespace
}  // namespace statbench
