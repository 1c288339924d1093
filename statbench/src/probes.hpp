#pragma once
// Per-layer probes: each one times calls into a single statfi layer from
// outside (nn::Network forward paths, the kernel GEMM, the weight injector,
// the campaign journal) on private copies of the workload's objects.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/outcome.hpp"
#include "data/synthetic.hpp"
#include "fault/fault.hpp"
#include "nn/network.hpp"
#include "spans.hpp"

namespace statbench {

struct NetworkProbe {
    double forward_ms = 0.0;           ///< Network::forward, one image
    double golden_ms_per_image = 0.0;  ///< forward_all on the batch / images
    /// Per-node time summed by kind, one entry for every kind the three
    /// benchmark networks contain (0 when a network has none of it).
    std::map<std::string, double> kind_ms;
    double other_kind_ms = 0.0;  ///< time of any kind outside kind_ms
    std::array<double, 4> suffix_ms{};      ///< forward_from(k), per quartile
    double ensemble8_per_lane_ratio = 0.0;
    std::array<std::uint64_t, 4> conv_flops{};  ///< conv2d FLOPs per image
    std::array<double, 4> conv_gflops{};        ///< inside Network::forward
    std::array<double, 4> gemm_gflops{};        ///< kernel GEMM alone
};

/// Probe @p net (cloned; the caller's network and hooks are untouched) on
/// @p eval. Per-node forward spans of one timed pass go to @p tracer.
NetworkProbe probe_network(const statfi::nn::Network& net,
                           const statfi::data::Dataset& eval, Tracer& tracer);

/// Single-core vector multiply + add peak in GFLOP/s, without FMA (the
/// kernel contract forbids it): independent chains of separate multiplies
/// and adds, 8-wide on AVX2 machines, scalar otherwise.
double peak_gflops();

/// Nanoseconds per CampaignJournal::append (plus a flush every
/// @p flush_interval records) over @p records records, on a scratch
/// journal at @p path, which is removed afterwards.
double journal_append_ns(const std::string& path,
                         const statfi::core::CampaignFingerprint& fingerprint,
                         std::uint64_t records, std::uint64_t flush_interval);

/// Nanoseconds per WeightInjector::apply + restore pair over @p faults on
/// a private clone of @p net.
double inject_restore_ns(const statfi::nn::Network& net,
                         const statfi::core::ExecutorConfig& config,
                         const std::vector<statfi::fault::Fault>& faults);

}  // namespace statbench
