#pragma once
// In-memory span recorder of the harness. Spans are opened around calls
// into the statfi layers from the harness's own code (nothing in src/ is
// instrumented), kept in memory, and written out once as a Chrome trace
// when the run ends. A disabled tracer records nothing and reads no clock.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace statbench {

struct Span {
    std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
    std::uint64_t parent = 0;  ///< id of the enclosing span, 0 at the root
    std::string name;
    double start_us = 0.0;  ///< microseconds since the tracer's epoch
    double end_us = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Returned in the order of @p spans.
std::vector<double> self_times_us(const std::vector<Span>& spans);

class Tracer {
public:
    Tracer(bool enabled, std::uint64_t run_id);

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] std::uint64_t run_id() const noexcept { return run_id_; }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }
    /// Microseconds since the epoch (0 when disabled).
    [[nodiscard]] double now_us() const;

    /// Open a span under the innermost open one; returns its id (0 when
    /// disabled).
    std::uint64_t open(std::string name);
    void close(std::uint64_t id);
    /// Record an already-measured child of the innermost open span.
    void record(std::string name, double start_us, double end_us);

    /// RAII span.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name)
            : tracer_(tracer), id_(tracer.open(std::move(name))) {}
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::uint64_t id_;
    };

    /// Chrome trace JSON ("X" events, args carry span/parent/run ids and
    /// self time). @p metadata_json is a JSON object stored under
    /// "metadata". @throws std::runtime_error when the file cannot be
    /// written.
    void write_chrome_trace(const std::string& path,
                            const std::string& metadata_json) const;

private:
    bool enabled_;
    std::uint64_t run_id_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;  ///< stack of indices into spans_
};

}  // namespace statbench
