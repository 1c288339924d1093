#include "measure.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace statbench {

double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int quartile_of(int layer, int layer_count) {
    if (layer_count <= 0 || layer < 0 || layer >= layer_count)
        throw std::invalid_argument("quartile_of: layer out of range");
    return static_cast<int>(4LL * layer / layer_count);
}

std::uint64_t conv_flops(std::int64_t cout, std::int64_t cin,
                         std::int64_t kernel, std::int64_t hout,
                         std::int64_t wout) {
    return 2ULL * static_cast<std::uint64_t>(cout * cin * kernel * kernel *
                                             hout * wout);
}

std::string outcome_digest(std::span<const std::uint8_t> outcomes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
    for (const std::uint8_t b : outcomes) {
        h ^= b;
        h *= 0x100000001b3ULL;  // FNV-1a 64 prime
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string> check_pass(const PassRecord& pass,
                                    const std::string& expected) {
    std::vector<std::string> reasons;
    if (pass.classified != pass.planned)
        reasons.push_back("classified " + std::to_string(pass.classified) +
                          " of " + std::to_string(pass.planned) +
                          " planned faults");
    if (pass.inferences == 0)
        reasons.push_back("vacuous: zero faulty inferences");
    if (!expected.empty() && pass.digest != expected)
        reasons.push_back("outcome digest " + pass.digest + " != " + expected);
    return reasons;
}

}  // namespace statbench
