// statbench: run one benchmark workload and print its metrics.
//
//   statbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID] [--expect-digest HEX]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines record the machine
// and the outcome digest. Exit status 0 means the run completed (its
// checks may still have failed: see "correct"); 2 means bad arguments and
// 1 an error that stopped the run.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "kernels/registry.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "statbench: " << why
              << "\nusage: statbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--expect-digest HEX]\nworkloads:";
    for (const auto& w : statbench::workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, out_dir = ".bench_build/out", commit = "unknown";
    statbench::RunOptions opt;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") workload = value;
            else if (arg == "--seed") { opt.seed = std::stoull(value); have_seed = true; }
            else if (arg == "--seconds") { opt.seconds = std::stod(value); have_seconds = true; }
            else if (arg == "--trace") opt.trace = std::stoi(value) != 0;
            else if (arg == "--out-dir") out_dir = value;
            else if (arg == "--commit") commit = value;
            else if (arg == "--expect-digest") opt.expect_digest = value;
            else usage("unknown option " + arg);
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (workload.empty() || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds are required");

    try {
        const statbench::Workload& w = statbench::find_workload(workload);
        const std::size_t cpus = nproc();
        opt.threads = cpus;
        opt.peak_gflops = statbench::peak_gflops();
        const std::string tag = w.name + "-s" + std::to_string(opt.seed);
        opt.work_dir = out_dir + "/work-" + tag;
        opt.trace_path = out_dir + "/trace-" + tag + ".json";
        opt.machine_json =
            "{\"nproc\":" + std::to_string(cpus) +
            ",\"workers_N\":" + std::to_string(opt.threads) +
            ",\"cpu\":" + json_string(statfi::kernels::detect_cpu().describe()) +
            ",\"kernels\":" + json_string(statfi::kernels::active().name) +
            ",\"compiler\":" + json_string(STATBENCH_COMPILER) +
            ",\"build_type\":" + json_string(STATBENCH_BUILD_TYPE) +
            ",\"commit\":" + json_string(commit) +
            ",\"peak_gflops\":" + number(opt.peak_gflops) + "}";
        std::cout << "{\"machine\":" << opt.machine_json << "}\n";

        const statbench::RunResult r = statbench::run_workload(w, opt);
        std::filesystem::remove_all(opt.work_dir);

        std::cout << "{\"outcome\":{\"workload\":" << json_string(w.name)
                  << ",\"seed\":" << opt.seed
                  << ",\"digest\":" << json_string(r.digest)
                  << ",\"reference\":"
                  << json_string(opt.expect_digest.empty() ? "none"
                                                      : opt.expect_digest)
                  << ",\"items_per_pass\":" << r.planned;
        for (const auto& [key, value] : r.info)
            std::cout << "," << json_string(key) << ":" << json_string(value);
        std::cout << "}}\n";
        for (const auto& f : r.failures)
            std::cerr << "statbench: check failed: " << f << "\n";

        std::cout << "{\"correct\":" << (r.correct ? "true" : "false")
                  << ",\"attempted\":" << r.attempted
                  << ",\"failed\":" << r.failed << ",\"metrics\":{";
        for (std::size_t i = 0; i < r.metrics.size(); ++i)
            std::cout << (i ? "," : "") << json_string(r.metrics[i].name)
                      << ":{\"value\":" << number(r.metrics[i].value)
                      << ",\"unit\":" << json_string(r.metrics[i].unit) << "}";
        std::cout << "}}" << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "statbench: " << e.what() << "\n";
        return 1;
    }
}
