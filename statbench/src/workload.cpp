#include "workload.hpp"

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/engine.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "shard/fixture.hpp"
#include "shard/runner.hpp"

namespace statbench {

using namespace statfi;
using Clock = std::chrono::steady_clock;

namespace {

/// Records the MicroNet census journals: 2,102 weights x 32 bits x 2
/// polarities. The journal probe appends this many records on every
/// workload so its figure compares across them.
constexpr std::uint64_t kCensusRecords = 134'528;
/// Faults per quartile classified by the fault-cost probe.
constexpr std::size_t kFaultsPerQuartile = 256;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Workload make(std::string name, std::string model, core::Approach approach,
              double margin, std::int64_t images, std::uint64_t paper_n) {
    Workload w;
    w.name = std::move(name);
    w.recipe.model = std::move(model);
    w.recipe.approach = approach;
    w.recipe.error_margin = margin;
    w.recipe.images = images;
    // AnyMisprediction on these untrained networks can be vacuous (golden
    // accuracy 0 % leaves no image a fault could flip); GoldenMismatch
    // compares against the golden top-1 and always has work to do.
    w.recipe.policy = core::ClassificationPolicy::GoldenMismatch;
    w.paper_network_wise_n = paper_n;
    return w;
}

/// Everything set-up builds, in the order a campaign needs it.
struct Setup {
    std::unique_ptr<shard::CampaignFixture> fx;
    std::unique_ptr<core::CampaignEngine> engine;  ///< N workers
    core::CampaignPlan plan;
    std::vector<core::DrawnFault> items;  ///< empty for a census
    double fixture_s = 0, engine_init_s = 0, plan_s = 0, draw_s = 0;
    double total_s = 0;
};

Setup set_up(const shard::CampaignRecipe& recipe, std::size_t threads,
             Tracer& tracer) {
    Setup s;
    const auto t0 = Clock::now();
    auto step = [&tracer](const char* name, auto&& fn) {
        Tracer::Scope span(tracer, name);
        const auto t = Clock::now();
        fn();
        return seconds_since(t);
    };
    s.fixture_s = step("build_fixture", [&] {
        s.fx = std::make_unique<shard::CampaignFixture>(
            shard::build_fixture(recipe));
    });
    s.engine_init_s = step("engine_init", [&] {
        s.engine = std::make_unique<core::CampaignEngine>(
            s.fx->net, s.fx->eval, s.fx->config, threads);
    });
    s.plan_s = step("plan", [&] {
        s.plan = s.engine->plan(s.fx->universe, shard::campaign_spec(recipe));
    });
    if (recipe.approach != core::Approach::Exhaustive)
        s.draw_s = step("draw", [&] {
            s.items = core::draw_plan(s.fx->universe, s.plan,
                                      stats::Rng(recipe.seed).fork("campaign"));
        });
    s.total_s = seconds_since(t0);
    return s;
}

struct Pass {
    double seconds = 0.0;
    PassRecord record;
};

/// One campaign pass through the durable path with the journal on, as the
/// CLI runs it.
Pass run_pass(core::CampaignEngine& engine, const Setup& s,
              const shard::CampaignRecipe& recipe, const std::string& journal) {
    std::filesystem::remove(journal);
    core::DurabilityOptions durability;
    durability.journal_path = journal;
    durability.model_id = recipe.model;
    Pass p;
    const std::uint64_t inferences = engine.inference_count();
    std::vector<std::uint8_t> outcomes;
    const auto t0 = Clock::now();
    if (recipe.approach == core::Approach::Exhaustive) {
        const core::ExhaustiveRun run =
            engine.run_exhaustive_durable(s.fx->universe, durability);
        p.seconds = seconds_since(t0);
        outcomes.resize(run.outcomes.size());
        for (std::uint64_t i = 0; i < run.outcomes.size(); ++i)
            outcomes[i] = static_cast<std::uint8_t>(run.outcomes.at(i));
        p.record.planned = s.fx->universe.total();
        p.record.classified = run.classified;
    } else {
        core::StatisticalRun run =
            engine.run_durable(s.fx->universe, s.plan, s.items, durability);
        p.seconds = seconds_since(t0);
        outcomes = std::move(run.outcomes);
        p.record.planned = s.plan.total_sample_size();
        p.record.classified = run.classified;
    }
    std::filesystem::remove(journal);
    p.record.inferences = engine.inference_count() - inferences;
    p.record.digest = outcome_digest(outcomes);
    return p;
}

/// The faults of each depth quartile the fault-cost probe classifies: the
/// drawn sample's, or an even stride over the census universe, at most
/// kFaultsPerQuartile each, in canonical order.
std::array<std::vector<fault::Fault>, 4> quartile_faults(const Setup& s) {
    const fault::FaultUniverse& u = s.fx->universe;
    const int layers = u.layer_count();
    std::array<std::vector<fault::Fault>, 4> all;
    if (s.items.empty()) {
        for (int q = 0; q < 4; ++q) {
            std::uint64_t begin = 0, end = 0;
            bool any = false;
            for (int l = 0; l < layers; ++l) {
                if (quartile_of(l, layers) != q) continue;
                const std::uint64_t lo = u.subpop_offset(l, 0);
                if (!any) begin = lo;
                end = lo + u.layer_population(l);
                any = true;
            }
            if (!any) continue;
            const std::uint64_t stride =
                (end - begin + kFaultsPerQuartile - 1) / kFaultsPerQuartile;
            for (std::uint64_t i = begin; i < end; i += stride)
                all[static_cast<std::size_t>(q)].push_back(u.decode(i));
        }
        return all;
    }
    for (const core::DrawnFault& d : s.items)
        all[static_cast<std::size_t>(quartile_of(d.fault.layer, layers))]
            .push_back(d.fault);
    for (auto& v : all) {
        if (v.size() <= kFaultsPerQuartile) continue;
        const std::size_t stride =
            (v.size() + kFaultsPerQuartile - 1) / kFaultsPerQuartile;
        std::vector<fault::Fault> kept;
        for (std::size_t i = 0; i < v.size(); i += stride) kept.push_back(v[i]);
        v = std::move(kept);
    }
    return all;
}

/// Mean ms per fault of evaluate_group over @p faults, grouped as the
/// engine groups them: consecutive faults of one layer, up to the ensemble
/// width.
double fault_ms(core::ClassificationCore& core,
                const std::vector<fault::Fault>& faults) {
    if (faults.empty()) return 0.0;
    const std::size_t width = std::max<std::size_t>(1, core.config().ensemble_width);
    std::vector<core::FaultOutcome> out(width);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < faults.size();) {
        std::size_t j = i + 1;
        while (j < faults.size() && j - i < width &&
               faults[j].layer == faults[i].layer)
            ++j;
        core.evaluate_group({faults.data() + i, j - i}, out.data());
        i = j;
    }
    return seconds_since(t0) * 1e3 / static_cast<double>(faults.size());
}

/// Slowest over mean run_shard time of N equal-count shards, each run
/// alone on one worker.
double shard_balance(const Setup& s, const shard::CampaignRecipe& recipe,
                     std::size_t shards, const std::string& work_dir,
                     Tracer& tracer, RunResult& result) {
    shard::ShardManifest m;
    m.recipe = recipe;
    m.fingerprint = s.engine->fingerprint(s.fx->universe, recipe.model);
    m.layer_count = static_cast<std::uint32_t>(s.fx->universe.layer_count());
    if (recipe.approach == core::Approach::Exhaustive) {
        m.plan.approach = core::Approach::Exhaustive;
        m.item_count = s.fx->universe.total();
    } else {
        m.plan = s.plan;
        m.item_count = s.plan.total_sample_size();
    }
    m.shards = shard::partition_items(m.item_count,
                                      static_cast<std::uint32_t>(shards));
    const std::string path = work_dir + "/shards.sfim";
    m.save(path);
    std::vector<double> times;
    std::uint64_t classified = 0;
    for (std::uint32_t k = 0; k < m.shards.size(); ++k) {
        Tracer::Scope span(tracer, "shard_" + std::to_string(k));
        shard::ShardRunOptions opt;
        opt.shard = k;
        opt.threads = 1;
        const auto t0 = Clock::now();
        const shard::ShardRunReport report = shard::run_shard(m, path, opt);
        times.push_back(seconds_since(t0));
        classified += report.classified;
        std::filesystem::remove(shard::shard_result_path(path, k));
        std::filesystem::remove(shard::shard_journal_path(path, k));
    }
    std::filesystem::remove(path);
    if (classified != m.item_count) {
        result.correct = false;
        result.failures.push_back("shards classified " +
                                  std::to_string(classified) + " of " +
                                  std::to_string(m.item_count) + " items");
    }
    double sum = 0.0, worst = 0.0;
    for (const double t : times) {
        sum += t;
        worst = std::max(worst, t);
    }
    return worst / (sum / static_cast<double>(times.size()));
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        make("micronet-census", "micronet", core::Approach::Exhaustive, 0.01,
             4, 0),
        make("resnet20-dataaware", "resnet20", core::Approach::DataAware, 0.2,
             8, 16'625),
        make("mobilenetv2-netwise", "mobilenetv2", core::Approach::NetworkWise,
             0.04, 8, 16'639),
    };
    return all;
}

const Workload& find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

RunResult run_workload(const Workload& workload, const RunOptions& options) {
    RunResult result;
    shard::CampaignRecipe recipe = workload.recipe;
    recipe.seed = options.seed;
    const bool census = recipe.approach == core::Approach::Exhaustive;
    const std::size_t n_workers = options.threads;
    std::random_device entropy;
    Tracer tracer(options.trace,
                  (std::uint64_t{entropy()} << 32) ^ entropy() ^ options.seed);
    std::filesystem::create_directories(options.work_dir);
    const std::string journal = options.work_dir + "/campaign.sfij";
    auto add = [&result](std::string name, double value, std::string unit) {
        result.metrics.push_back({std::move(name), value, std::move(unit)});
    };
    auto fail = [&result](std::string why) {
        result.correct = false;
        result.failures.push_back(std::move(why));
    };

    std::optional<Tracer::Scope> root;
    root.emplace(tracer, "workload " + workload.name);

    // Set-up several times and keep the last; its median is setup_s.
    const int setup_reps = options.trace ? 1 : 3;
    std::vector<double> setup_s;
    Setup s;
    for (int rep = 0; rep < setup_reps; ++rep) {
        s = Setup{};  // free the previous engine before building the next
        s = set_up(recipe, n_workers, tracer);
        setup_s.push_back(s.total_s);
    }
    const fault::FaultUniverse& universe = s.fx->universe;
    core::CampaignEngine engine1(s.fx->net, s.fx->eval, s.fx->config, 1);

    if (census && universe.total() != kCensusRecords)
        fail("census universe has " + std::to_string(universe.total()) +
             " faults, expected " + std::to_string(kCensusRecords));
    if (workload.paper_network_wise_n) {
        core::CampaignSpec paper;
        paper.approach = core::Approach::NetworkWise;
        paper.sample.error_margin = 0.01;
        paper.sample.confidence = 0.99;
        const std::uint64_t n =
            s.engine->plan(universe, paper).total_sample_size();
        result.info.emplace_back("paper_network_wise_n", std::to_string(n));
        if (n != workload.paper_network_wise_n)
            fail("network-wise n at e=1%, 99% is " + std::to_string(n) +
                 ", the paper's table gives " +
                 std::to_string(workload.paper_network_wise_n));
    }

    // Timed passes: pairs of 1-worker and N-worker passes, alternating
    // which goes first, until the next pair would overrun the budget.
    std::string expected = options.expect_digest;
    std::vector<double> rate1, rateN, secs1, secsN;
    PassRecord first1;
    auto pass = [&](core::CampaignEngine& engine, bool multi) {
        Tracer::Scope span(tracer, multi ? "run_Nt" : "run_1t");
        const Pass p = run_pass(engine, s, recipe, journal);
        const auto reasons = check_pass(p.record, expected);
        if (result.digest.empty()) {
            result.digest = p.record.digest;
            result.planned = p.record.planned;
        }
        if (expected.empty()) expected = p.record.digest;
        if (!multi && first1.digest.empty()) first1 = p.record;
        result.attempted += p.record.planned;
        if (!reasons.empty()) {
            result.failed += p.record.planned;
            for (const auto& r : reasons)
                fail(std::string(multi ? "N-worker" : "1-worker") + " pass: " + r);
            return;
        }
        const double rate = static_cast<double>(p.record.classified) / p.seconds;
        (multi ? rateN : rate1).push_back(rate);
        (multi ? secsN : secs1).push_back(p.seconds);
    };
    const auto loop0 = Clock::now();
    double last_pair = 0.0;
    for (int pair = 0;; ++pair) {
        if (pair > 0 && (options.trace ||
                         seconds_since(loop0) + last_pair > options.seconds))
            break;
        const auto t0 = Clock::now();
        pass(pair % 2 ? *s.engine : engine1, pair % 2 == 1);
        pass(pair % 2 ? engine1 : *s.engine, pair % 2 == 0);
        last_pair = seconds_since(t0);
    }
    auto list = [](const std::vector<double>& v) {
        std::string out;
        for (const double x : v) {
            if (!out.empty()) out += ',';
            out += std::to_string(x);
        }
        return out;
    };
    result.info.emplace_back("rates_1t", list(rate1));
    result.info.emplace_back("rates_Nt", list(rateN));
    result.info.emplace_back("faulty_inferences_1t",
                             std::to_string(first1.inferences));

    if (!options.trace) {
        add("faults_per_s_1t", rate1.empty() ? 0.0 : median(rate1), "1/s");
        add("faults_per_s_Nt", rateN.empty() ? 0.0 : median(rateN), "1/s");
        add("setup_s", median(setup_s), "s");
        add("peak_rss_mb", peak_rss_mb(), "MB");
        return result;
    }

    add("shard.fixture_s", s.fixture_s, "s");
    add("shard.max_over_mean",
        shard_balance(s, recipe, n_workers, options.work_dir, tracer, result),
        "ratio");
    add("core.engine_init_s", s.engine_init_s, "s");
    add("core.plan_s", s.plan_s, "s");
    add("core.draw_s", s.draw_s, "s");
    add("core.speedup_Nt",
        secs1.empty() || secsN.empty() ? 0.0 : median(secs1) / median(secsN),
        "ratio");
    const auto faults = quartile_faults(s);
    for (std::size_t q = 0; q < 4; ++q) {
        Tracer::Scope span(tracer, "evaluate_group.q" + std::to_string(q + 1));
        add("core.fault_ms.q" + std::to_string(q + 1),
            fault_ms(engine1.core(0), faults[q]), "ms");
    }
    add("core.inferences_per_fault",
        first1.classified ? static_cast<double>(first1.inferences) /
                                static_cast<double>(first1.classified)
                          : 0.0,
        "count");
    {
        Tracer::Scope span(tracer, "journal_append");
        add("core.journal_append_ns",
            journal_append_ns(options.work_dir + "/probe.sfij",
                              s.engine->fingerprint(universe, recipe.model),
                              kCensusRecords, core::DurabilityOptions{}.flush_interval),
            "ns");
    }
    {
        Tracer::Scope span(tracer, "inject_restore");
        std::vector<fault::Fault> all;
        for (const auto& v : faults) all.insert(all.end(), v.begin(), v.end());
        add("fault.inject_restore_ns",
            inject_restore_ns(s.fx->net, s.fx->config, all), "ns");
    }
    NetworkProbe np;
    {
        Tracer::Scope span(tracer, "network_probe");
        np = probe_network(s.fx->net, s.fx->eval, tracer);
    }
    add("nn.forward_ms", np.forward_ms, "ms");
    add("nn.golden_ms_per_image", np.golden_ms_per_image, "ms");
    for (const auto& [kind, ms] : np.kind_ms) add("nn.kind_ms." + kind, ms, "ms");
    for (std::size_t q = 0; q < 4; ++q)
        add("nn.suffix_ms.q" + std::to_string(q + 1), np.suffix_ms[q], "ms");
    add("nn.ensemble8_per_lane_ratio", np.ensemble8_per_lane_ratio, "ratio");
    for (std::size_t q = 0; q < 4; ++q)
        add("nn.conv_gflops.q" + std::to_string(q + 1), np.conv_gflops[q],
            "GFLOP/s");
    const double peak = options.peak_gflops;
    add("kernels.peak_gflops", peak, "GFLOP/s");
    for (std::size_t q = 0; q < 4; ++q)
        add("kernels.gemm_gflops.q" + std::to_string(q + 1), np.gemm_gflops[q],
            "GFLOP/s");
    for (std::size_t q = 0; q < 4; ++q)
        add("kernels.gemm_pct_peak.q" + std::to_string(q + 1),
            100.0 * np.gemm_gflops[q] / peak, "%");

    std::string flops;
    for (std::size_t q = 0; q < 4; ++q)
        flops += (q ? "," : "") + std::to_string(np.conv_flops[q]);
    result.info.emplace_back("conv_flops_per_image_q1_q4", flops);
    result.info.emplace_back("other_kind_ms", std::to_string(np.other_kind_ms));
    result.info.emplace_back("peak_gflops", std::to_string(peak));
    root.reset();
    tracer.write_chrome_trace(
        options.trace_path,
        "{\"workload\":\"" + workload.name + "\",\"seed\":" +
            std::to_string(options.seed) + ",\"digest\":\"" + result.digest +
            "\",\"machine\":" + options.machine_json + "}");
    result.info.emplace_back("trace", options.trace_path);
    return result;
}

}  // namespace statbench
