#pragma once
// Pure helpers of the benchmark harness: statistics over samples, the
// depth-quartile bucketing of weight layers, convolution FLOP counts, the
// outcome digest, and the per-pass outcome check. Nothing here reads a
// clock, so all of it is unit-tested exactly (tests/statbench_test.cpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace statbench {

/// Median of @p v (mean of the two middle values for an even count).
/// @throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// Quartile (0 = earliest .. 3 = latest) of weight layer @p layer among
/// @p layer_count weight layers: four equal-count depth buckets, the first
/// ones taking no more layers than the later ones take plus one.
int quartile_of(int layer, int layer_count);

/// FLOPs of one image through a standard convolution:
/// 2 * Cout * Cin * k^2 * Hout * Wout (one multiply and one add per tap).
std::uint64_t conv_flops(std::int64_t cout, std::int64_t cin,
                         std::int64_t kernel, std::int64_t hout,
                         std::int64_t wout);

/// FNV-1a 64 over the per-item outcome bytes, spelled as 16 lowercase hex
/// digits. Equal tables give equal digests on every platform.
std::string outcome_digest(std::span<const std::uint8_t> outcomes);

/// What one campaign pass produced, as the outcome check sees it.
struct PassRecord {
    std::uint64_t planned = 0;     ///< items the planner asked for
    std::uint64_t classified = 0;  ///< items the engine classified
    std::uint64_t inferences = 0;  ///< faulty inferences the pass performed
    std::string digest;            ///< outcome_digest of the pass
};

/// Reasons the pass fails, empty when it passes: classified != planned,
/// zero faulty inferences (vacuous work: no fault was ever run against an
/// image, so the timing measures nothing), or a digest different from
/// @p expected (skipped when @p expected is empty).
std::vector<std::string> check_pass(const PassRecord& pass,
                                    const std::string& expected);

}  // namespace statbench
