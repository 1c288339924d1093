#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace statbench {

std::vector<double> self_times_us(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end()) continue;
        const Span& p = spans[it->second];
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo) kids[it->second].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = 0.0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open) covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open) covered += hi - lo;
        self[i] = (spans[i].end_us - spans[i].start_us) - covered;
    }
    return self;
}

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id),
      epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
    if (!enabled_) return 0.0;
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint64_t Tracer::open(std::string name) {
    if (!enabled_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.name = std::move(name);
    s.start_us = now_us();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    if (open_.empty() || spans_[open_.back()].id != id)
        throw std::logic_error("Tracer::close: spans must close innermost first");
    spans_[open_.back()].end_us = now_us();
    open_.pop_back();
}

void Tracer::record(std::string name, double start_us, double end_us) {
    if (!enabled_) return;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.name = std::move(name);
    s.start_us = start_us;
    s.end_us = end_us;
    spans_.push_back(std::move(s));
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

}  // namespace

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata_json) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    const std::vector<double> self = self_times_us(spans_);
    char run[17];
    std::snprintf(run, sizeof run, "%016llx",
                  static_cast<unsigned long long>(run_id_));
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
        << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"span_id\":%llu,\"parent\":%llu,"
                      "\"run_id\":\"%s\",\"self_us\":%.3f}}",
                      s.start_us, s.end_us - s.start_us,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), run, self[i]);
        out << (i ? "," : "") << "\n{\"name\":\"" << json_escape(s.name)
            << "\",\"ph\":\"X\"," << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace statbench
