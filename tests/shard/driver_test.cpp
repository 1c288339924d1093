// Shard driver failure propagation: a child shard's nonzero exit code must
// surface in the per-shard status (with an actionable description) and in
// DriveReport::first_failure(), never be swallowed — a fleet where one
// shard silently failed would merge into a silently wrong campaign.

#include "shard/driver.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>

#include "shard/fixture.hpp"
#include "shard/manifest.hpp"

namespace statfi::shard {
namespace {

class DriverTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("statfi_driver_test_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        manifest_path_ = (dir_ / "campaign.sfim").string();
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// A real (tiny) frozen census manifest — the driver validates it
    /// before spawning anything.
    ShardManifest make_manifest(std::uint32_t shards) {
        CampaignRecipe recipe;
        recipe.model = "micronet";
        recipe.approach = core::Approach::Exhaustive;
        recipe.images = 2;
        recipe.policy = core::ClassificationPolicy::GoldenMismatch;
        recipe.seed = 7;
        const ShardManifest manifest =
            freeze_manifest(recipe, build_fixture(recipe), shards);
        manifest.save(manifest_path_);
        return manifest;
    }

    std::filesystem::path dir_;
    std::string manifest_path_;
};

TEST_F(DriverTest, ChildExitCodesPropagateToReportAndFirstFailure) {
    const ShardManifest manifest = make_manifest(3);
    DriveOptions options;
    options.jobs = 2;
    options.statfi_binary = "/bin/false";  // every child "fails" with exit 1
    const DriveReport report =
        run_all_shards(manifest, manifest_path_, options);
    ASSERT_EQ(report.shards.size(), 3u);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.first_failure(), 1);
    for (const auto& s : report.shards) {
        EXPECT_FALSE(s.skipped);
        EXPECT_EQ(s.exit_code, 1);
        EXPECT_EQ(s.describe(), "failed (exit 1)");
    }
}

TEST_F(DriverTest, CannotExecSurfacesAs127WithHint) {
    const ShardManifest manifest = make_manifest(2);
    DriveOptions options;
    options.statfi_binary = (dir_ / "no-such-binary").string();
    const DriveReport report =
        run_all_shards(manifest, manifest_path_, options);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.first_failure(), 127);
    for (const auto& s : report.shards)
        EXPECT_NE(s.describe().find("cannot exec the statfi binary"),
                  std::string::npos)
            << s.describe();
}

TEST_F(DriverTest, SuccessfulChildrenYieldZeroFirstFailure) {
    const ShardManifest manifest = make_manifest(2);
    DriveOptions options;
    options.statfi_binary = "/bin/true";
    const DriveReport report =
        run_all_shards(manifest, manifest_path_, options);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.first_failure(), 0);
    for (const auto& s : report.shards) EXPECT_EQ(s.describe(), "ok");
}

TEST(ShardStatusDescribe, CoversTheWholeTaxonomy) {
    ShardStatus s;
    s.skipped = true;
    EXPECT_EQ(s.describe(), "skipped (already complete)");
    s.skipped = false;
    s.exit_code = 0;
    EXPECT_EQ(s.describe(), "ok");
    s.exit_code = 2;
    EXPECT_EQ(s.describe(), "failed (exit 2)");
    s.exit_code = 127;
    EXPECT_EQ(s.describe(),
              "failed (exit 127: cannot exec the statfi binary)");
    s.exit_code = 130;
    EXPECT_EQ(s.describe(),
              "failed (exit 130: interrupted, rerun to resume)");
    s.exit_code = 128 + SIGKILL;
    EXPECT_NE(s.describe().find("killed (signal 9"), std::string::npos);
    s.exit_code = 128 + SIGSEGV;
    EXPECT_NE(s.describe().find("killed (signal 11"), std::string::npos);
}

TEST(DriveReportSummary, FirstFailureFollowsShardOrder) {
    DriveReport report;
    report.shards = {ShardStatus{0, true, 0}, ShardStatus{1, false, 0},
                     ShardStatus{2, false, 130}, ShardStatus{3, false, 1}};
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.first_failure(), 130);
}

}  // namespace
}  // namespace statfi::shard
