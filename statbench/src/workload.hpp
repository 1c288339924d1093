#pragma once
// The benchmark's workloads and the run that measures one of them: set-up
// through the public statfi entry points, campaign passes on 1 and N
// workers with the outcome check on every pass, and, in a traced run, the
// per-layer probes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "shard/manifest.hpp"

namespace statbench {

struct Workload {
    std::string name;
    statfi::shard::CampaignRecipe recipe;  ///< seed is set per run
    /// Paper sample size the planner must give this network at e = 1 %,
    /// 99 % confidence, network-wise (Table I / II); 0 = no check.
    std::uint64_t paper_network_wise_n = 0;
};

/// micronet-census, resnet20-dataaware, mobilenetv2-netwise.
const std::vector<Workload>& workloads();
/// @throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

struct RunOptions {
    std::uint64_t seed = 2023;
    double seconds = 10.0;  ///< length of the timed pass loop
    bool trace = false;
    std::size_t threads = 1;     ///< N, the multi-worker pass
    std::string expect_digest;   ///< reference digest; empty = none known
    std::string work_dir;        ///< scratch files (journals, manifests)
    std::string trace_path;      ///< Chrome trace output (traced runs)
    std::string machine_json;    ///< machine record stored in the trace
    double peak_gflops = 0.0;    ///< measured vector peak (probes::peak_gflops)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;  ///< faults the passes set out to classify
    std::uint64_t failed = 0;     ///< faults of passes that failed a check
    std::vector<std::string> failures;
    std::string digest;           ///< outcome digest of the first pass
    std::uint64_t planned = 0;    ///< items per pass
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> info;  ///< printed facts
};

RunResult run_workload(const Workload& workload, const RunOptions& options);

}  // namespace statbench
