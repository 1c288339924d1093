#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "fault/injector.hpp"
#include "kernels/registry.hpp"
#include "measure.hpp"
#include "nn/conv.hpp"
#include "stats/rng.hpp"

namespace statbench {

using namespace statfi;
using Clock = std::chrono::steady_clock;

namespace {

const std::array<const char*, 10> kReportedKinds = {
    "conv2d", "dwconv2d", "linear", "batchnorm2d", "relu",
    "relu6",  "add",      "padshortcut", "avgpool2d", "globalavgpool"};

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median seconds of @p fn over at least @p min_reps calls and until
/// @p min_seconds of calls have run (one untimed warm-up call first).
template <class Fn>
double time_median(Fn&& fn, int min_reps, double min_seconds) {
    fn();
    std::vector<double> samples;
    double total = 0.0;
    while (static_cast<int>(samples.size()) < min_reps || total < min_seconds) {
        const auto t0 = Clock::now();
        fn();
        samples.push_back(seconds_since(t0));
        total += samples.back();
    }
    return median(std::move(samples));
}

/// Image @p image of @p batch repeated @p lanes times along the batch axis.
Tensor stack_lanes(const Tensor& batch, std::int64_t image, std::int64_t lanes) {
    const Shape& s = batch.shape();
    Tensor out(Shape{lanes, s[1], s[2], s[3]});
    const std::size_t per = static_cast<std::size_t>(s[1] * s[2] * s[3]);
    for (std::int64_t l = 0; l < lanes; ++l)
        std::memcpy(out.data() + l * per,
                    batch.data() + static_cast<std::size_t>(image) * per,
                    per * sizeof(float));
    return out;
}

struct ConvShape {
    int node = 0;
    int quartile = 0;
    std::size_t m = 0, n = 0, k = 0;  ///< im2col GEMM: Cout x (Hout*Wout) x Cin*k^2
    std::uint64_t flops = 0;
};

double gemm_seconds(std::size_t m, std::size_t n, std::size_t k) {
    stats::Rng rng(0x5eed);
    std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
    for (float& x : a) x = static_cast<float>(rng.uniform(0.5, 1.5));
    for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto& kern = kernels::active();
    return time_median(
        [&] { kern.gemm_accumulate(m, n, k, a.data(), b.data(), c.data()); },
        5, 0.02);
}

}  // namespace

NetworkProbe probe_network(const nn::Network& source,
                           const data::Dataset& eval, Tracer& tracer) {
    nn::Network net = source.clone();
    NetworkProbe p;
    const Tensor image = eval.image(0);
    const int nodes = net.node_count();

    // Weight layers -> quartiles, conv2d shapes -> FLOPs and GEMM shapes.
    const auto refs = net.weight_layers();
    const int layers = static_cast<int>(refs.size());
    std::vector<int> node_quartile(static_cast<std::size_t>(nodes), -1);
    for (int l = 0; l < layers; ++l)
        node_quartile[static_cast<std::size_t>(refs[l].node_id)] =
            quartile_of(l, layers);
    const std::vector<Shape> shapes = net.infer_shapes(image.shape());
    std::vector<ConvShape> convs;
    for (int id = 0; id < nodes; ++id) {
        const auto* conv = dynamic_cast<const nn::Conv2d*>(&net.layer(id));
        if (!conv) continue;
        const Shape& out = shapes[static_cast<std::size_t>(id)];
        ConvShape c;
        c.node = id;
        c.quartile = node_quartile[static_cast<std::size_t>(id)];
        c.m = static_cast<std::size_t>(conv->out_channels());
        c.n = static_cast<std::size_t>(out[2] * out[3]);
        c.k = static_cast<std::size_t>(conv->in_channels() * conv->kernel() *
                                       conv->kernel());
        c.flops = conv_flops(conv->out_channels(), conv->in_channels(),
                             conv->kernel(), out[2], out[3]);
        p.conv_flops[static_cast<std::size_t>(c.quartile)] += c.flops;
        convs.push_back(c);
    }

    p.forward_ms = 1e3 * time_median([&] { (void)net.forward(image); }, 5, 0.2);
    {
        std::vector<Tensor> acts;
        p.golden_ms_per_image =
            1e3 * time_median([&] { net.forward_all(eval.images, acts); }, 3,
                              0.2) /
            static_cast<double>(eval.size());
    }

    // Per-node time: the gap between consecutive node-hook callbacks.
    std::vector<Clock::time_point> marks(static_cast<std::size_t>(nodes));
    net.set_node_hook([&marks](int id, Tensor&) {
        marks[static_cast<std::size_t>(id)] = Clock::now();
    });
    std::vector<std::vector<double>> node_s(static_cast<std::size_t>(nodes));
    Clock::time_point start;
    auto timed_forward = [&] {
        start = Clock::now();
        (void)net.forward(image);
        for (int id = 0; id < nodes; ++id) {
            const auto from = id ? marks[static_cast<std::size_t>(id - 1)] : start;
            node_s[static_cast<std::size_t>(id)].push_back(
                std::chrono::duration<double>(marks[static_cast<std::size_t>(id)] -
                                              from)
                    .count());
        }
    };
    timed_forward();  // warm-up
    for (auto& v : node_s) v.clear();
    for (int rep = 0; rep < 15; ++rep) timed_forward();
    {
        // One more pass recorded as per-node spans.
        Tracer::Scope forward_span(tracer, "forward");
        const double base = tracer.now_us();
        const auto origin = Clock::now();
        timed_forward();
        auto us = [&](Clock::time_point t) {
            return base + std::chrono::duration<double, std::micro>(t - origin).count();
        };
        for (int id = 0; id < nodes; ++id)
            tracer.record(net.node_name(id),
                          us(id ? marks[static_cast<std::size_t>(id - 1)] : start),
                          us(marks[static_cast<std::size_t>(id)]));
    }
    net.set_node_hook({});
    std::vector<double> node_ms(static_cast<std::size_t>(nodes));
    for (const char* kind : kReportedKinds) p.kind_ms[kind] = 0.0;
    for (int id = 0; id < nodes; ++id) {
        const std::size_t i = static_cast<std::size_t>(id);
        node_ms[i] = 1e3 * median(node_s[i]);
        const auto it = p.kind_ms.find(net.layer(id).kind());
        (it == p.kind_ms.end() ? p.other_kind_ms : it->second) += node_ms[i];
    }
    std::array<double, 4> conv_ms{};
    for (const ConvShape& c : convs)
        conv_ms[static_cast<std::size_t>(c.quartile)] +=
            node_ms[static_cast<std::size_t>(c.node)];
    for (std::size_t q = 0; q < 4; ++q)
        p.conv_gflops[q] = conv_ms[q] > 0
                               ? static_cast<double>(p.conv_flops[q]) /
                                     (conv_ms[q] * 1e6)
                               : 0.0;

    // Suffix cost from each weight layer: the price of one fault there.
    std::vector<Tensor> golden, scratch;
    net.forward_all(image, golden);
    std::array<double, 4> suffix_sum{};
    std::array<int, 4> suffix_n{};
    for (int l = 0; l < layers; ++l) {
        const int node = refs[l].node_id;
        const std::size_t q = static_cast<std::size_t>(quartile_of(l, layers));
        suffix_sum[q] += 1e3 * time_median(
                                   [&] {
                                       (void)net.forward_from(node, image,
                                                              golden, scratch);
                                   },
                                   5, 0.0);
        ++suffix_n[q];
    }
    for (std::size_t q = 0; q < 4; ++q)
        p.suffix_ms[q] = suffix_n[q] ? suffix_sum[q] / suffix_n[q] : 0.0;

    // Eight-lane ensemble from the first weight node vs one lane.
    {
        constexpr std::int64_t kLanes = 8;
        const int first = refs.front().node_id;
        const Tensor lanes = stack_lanes(eval.images, 0, kLanes);
        std::vector<Tensor> golden8, scratch8;
        net.forward_all(lanes, golden8);
        const double single = time_median(
            [&] { (void)net.forward_from(first, image, golden, scratch); }, 5,
            0.1);
        const double ensemble = time_median(
            [&] {
                (void)net.forward_ensemble(first, lanes, golden8, scratch8);
            },
            5, 0.1);
        p.ensemble8_per_lane_ratio = ensemble / kLanes / single;
    }

    // The kernel GEMM alone on each conv2d's im2col shape.
    std::array<double, 4> gemm_s{};
    std::array<std::uint64_t, 4> gemm_flops{};
    std::map<std::array<std::size_t, 3>, double> seen;
    for (const ConvShape& c : convs) {
        const std::array<std::size_t, 3> key{c.m, c.n, c.k};
        auto it = seen.find(key);
        if (it == seen.end())
            it = seen.emplace(key, gemm_seconds(c.m, c.n, c.k)).first;
        gemm_s[static_cast<std::size_t>(c.quartile)] += it->second;
        gemm_flops[static_cast<std::size_t>(c.quartile)] += c.flops;
    }
    for (std::size_t q = 0; q < 4; ++q)
        p.gemm_gflops[q] =
            gemm_s[q] > 0 ? static_cast<double>(gemm_flops[q]) / gemm_s[q] / 1e9
                          : 0.0;
    return p;
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) double peak_avx2(std::int64_t iters) {
    // Six multiply chains and six add chains: enough independent work to
    // keep both vector ports busy through the 4-cycle latencies.
    const __m256 m = _mm256_set1_ps(1.0000001f);
    const __m256 a = _mm256_set1_ps(1e-7f);
    __m256 x0 = _mm256_set1_ps(1.0f), x1 = x0, x2 = x0, x3 = x0, x4 = x0,
           x5 = x0;
    __m256 y0 = _mm256_set1_ps(0.0f), y1 = y0, y2 = y0, y3 = y0, y4 = y0,
           y5 = y0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
        x0 = _mm256_mul_ps(x0, m); y0 = _mm256_add_ps(y0, a);
        x1 = _mm256_mul_ps(x1, m); y1 = _mm256_add_ps(y1, a);
        x2 = _mm256_mul_ps(x2, m); y2 = _mm256_add_ps(y2, a);
        x3 = _mm256_mul_ps(x3, m); y3 = _mm256_add_ps(y3, a);
        x4 = _mm256_mul_ps(x4, m); y4 = _mm256_add_ps(y4, a);
        x5 = _mm256_mul_ps(x5, m); y5 = _mm256_add_ps(y5, a);
    }
    const double s = seconds_since(t0);
    __m256 sum = _mm256_add_ps(_mm256_add_ps(x0, x1), _mm256_add_ps(x2, x3));
    sum = _mm256_add_ps(sum, _mm256_add_ps(x4, x5));
    sum = _mm256_add_ps(sum, _mm256_add_ps(_mm256_add_ps(y0, y1),
                                           _mm256_add_ps(y2, y3)));
    sum = _mm256_add_ps(sum, _mm256_add_ps(y4, y5));
    alignas(32) float out[8];
    _mm256_store_ps(out, sum);
    volatile float sink = out[0];
    (void)sink;
    return static_cast<double>(iters) * 12 * 8 / s / 1e9;
}
#endif

double peak_scalar(std::int64_t iters) {
    volatile float seed = 1.0000001f;
    const float m = seed, a = 1e-7f;
    float x0 = 1, x1 = 1, x2 = 1, x3 = 1, y0 = 0, y1 = 0, y2 = 0, y3 = 0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
        x0 *= m; y0 += a; x1 *= m; y1 += a;
        x2 *= m; y2 += a; x3 *= m; y3 += a;
    }
    const double s = seconds_since(t0);
    volatile float sink = x0 + x1 + x2 + x3 + y0 + y1 + y2 + y3;
    (void)sink;
    return static_cast<double>(iters) * 8 / s / 1e9;
}

}  // namespace

double peak_gflops() {
    std::vector<double> samples;
    for (int rep = 0; rep < 7; ++rep) {
#if defined(__x86_64__) || defined(__i386__)
        if (kernels::detect_cpu().avx2) {
            samples.push_back(peak_avx2(4'000'000));
            continue;
        }
#endif
        samples.push_back(peak_scalar(8'000'000));
    }
    // The best sample is the peak; slower ones were interrupted.
    return *std::max_element(samples.begin(), samples.end());
}

double journal_append_ns(const std::string& path,
                         const core::CampaignFingerprint& fingerprint,
                         std::uint64_t records, std::uint64_t flush_interval) {
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
        auto journal = core::CampaignJournal::open(path, fingerprint);
        const auto t0 = Clock::now();
        std::uint64_t since_flush = 0;
        for (std::uint64_t i = 0; i < records; ++i) {
            journal.append(i, static_cast<std::uint8_t>(i % 3));
            if (++since_flush >= flush_interval) {
                journal.flush();
                since_flush = 0;
            }
        }
        journal.flush();
        samples.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(records));
    }
    std::filesystem::remove(path);
    return median(std::move(samples));
}

double inject_restore_ns(const nn::Network& source,
                         const core::ExecutorConfig& config,
                         const std::vector<fault::Fault>& faults) {
    if (faults.empty())
        throw std::invalid_argument("inject_restore_ns: no faults");
    nn::Network net = source.clone();
    fault::WeightInjector injector(net, config.dtype, config.layer_quant);
    const std::size_t rounds =
        std::max<std::size_t>(1, 200'000 / faults.size());
    const double s = time_median(
        [&] {
            for (std::size_t r = 0; r < rounds; ++r)
                for (const fault::Fault& f : faults)
                    injector.restore(f, injector.apply(f));
        },
        5, 0.0);
    return s * 1e9 / static_cast<double>(rounds * faults.size());
}

}  // namespace statbench
