#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "core/convergence.hpp"
#include "stats/sampling.hpp"

namespace statfi::core {

/// One worker: a private network clone and a per-clone classification core.
struct CampaignEngine::Worker {
    nn::Network net;
    ClassificationCore core;

    Worker(const nn::Network& source, const data::Dataset& eval,
           const ExecutorConfig& config)
        : net(source.clone()), core(net, eval, config) {}
};

CampaignEngine::CampaignEngine(const nn::Network& net,
                               const data::Dataset& eval,
                               ExecutorConfig config, std::size_t threads,
                               telemetry::Session* telemetry)
    : telemetry_(telemetry) {
    if (threads == 0)
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (telemetry_) telemetry_->bind_workers(threads);
    {
        // Worker construction runs the golden forward pass once per clone —
        // the dominant startup cost, so it gets its own phase span.
        telemetry::PhaseScope scope(telemetry_, "golden_pass");
        workers_.reserve(threads);
        for (std::size_t w = 0; w < threads; ++w) {
            workers_.push_back(std::make_unique<Worker>(net, eval, config));
            workers_.back()->core.set_telemetry(telemetry_, w);
        }
    }
    if (telemetry_) {
        auto& reg = telemetry_->metrics();
        reg.set_gauge(telemetry_->ids().worker_count,
                      static_cast<double>(threads));
        reg.set_gauge(telemetry_->ids().golden_accuracy, golden_accuracy());
    }
}

CampaignEngine::~CampaignEngine() = default;
CampaignEngine::CampaignEngine(CampaignEngine&&) noexcept = default;
CampaignEngine& CampaignEngine::operator=(CampaignEngine&&) noexcept = default;

std::size_t CampaignEngine::worker_count() const noexcept {
    return workers_.size();
}

const ExecutorConfig& CampaignEngine::config() const noexcept {
    return workers_.front()->core.config();
}

double CampaignEngine::golden_accuracy() const {
    return workers_.front()->core.golden_accuracy();
}

const std::vector<int>& CampaignEngine::golden_predictions() const {
    return workers_.front()->core.golden_predictions();
}

std::uint64_t CampaignEngine::inference_count() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->core.inference_count();
    return total;
}

ClassificationCore& CampaignEngine::core(std::size_t worker) {
    return workers_.at(worker)->core;
}

CampaignFingerprint CampaignEngine::fingerprint(
    const fault::FaultUniverse& universe, std::string model_id) const {
    return workers_.front()->core.fingerprint(universe, std::move(model_id));
}

CampaignPlan CampaignEngine::plan(const fault::FaultUniverse& universe,
                                  const CampaignSpec& spec) {
    telemetry::PhaseScope scope(telemetry_, "plan");
    switch (spec.approach) {
        case Approach::Exhaustive: return plan_exhaustive(universe);
        case Approach::NetworkWise:
            return plan_network_wise(universe, spec.sample);
        case Approach::LayerWise:
            return plan_layer_wise(universe, spec.sample);
        case Approach::DataUnaware:
            return plan_data_unaware(universe, spec.sample);
        case Approach::DataAware: {
            // Data-aware p(i) comes from per-bit weight criticality; combo
            // ranks and activation elements have no such profile.
            if (universe.kind() != fault::FaultModelKind::WeightStuckAt &&
                universe.kind() != fault::FaultModelKind::WeightBitFlip)
                throw std::invalid_argument(
                    "CampaignEngine::plan: data-aware planning needs "
                    "single-bit weight strata; fault model '" +
                    std::string(fault::to_string(universe.kind())) +
                    "' has none — use layer-wise or data-unaware instead");
            DataAwareConfig analysis = spec.analysis;
            analysis.dtype = config().dtype;
            nn::Network& net = workers_.front()->net;
            if (analysis.dtype == fault::DataType::Int8) {
                // Symmetric per-network scheme. When the fixture deployed a
                // QuantizedStore its per-layer scales are authoritative (the
                // weights are already quantized; re-deriving would drift) —
                // the network-wide analysis scale is their maximum. Otherwise
                // fall back to the golden weights, the same storage view the
                // injector corrupts.
                if (!config().layer_quant.empty()) {
                    float scale = 0.0f;
                    for (const auto& qp : config().layer_quant)
                        scale = std::max(scale, qp.scale);
                    analysis.quant.scale = scale > 0 ? scale : 1.0f;
                } else {
                    float max_abs = 0.0f;
                    for (auto& ref : net.weight_layers())
                        max_abs = std::max(max_abs, ref.weight->max_abs());
                    analysis.quant.scale =
                        max_abs > 0 ? max_abs / 127.0f : 1.0f;
                }
            }
            return plan_data_aware(universe, spec.sample,
                                   analyze_network(net, analysis));
        }
    }
    throw std::invalid_argument("CampaignEngine::plan: unknown approach");
}

std::vector<DrawnFault> draw_plan(const fault::FaultUniverse& universe,
                                  const CampaignPlan& plan, stats::Rng rng) {
    // Draw every sample up front, one forked stream per subpopulation, so
    // the drawn faults are a function of (plan, rng) alone — never of the
    // worker count or the partitioning.
    std::vector<DrawnFault> items;
    std::uint64_t subpop_index = 0;
    for (std::size_t s = 0; s < plan.subpops.size(); ++s) {
        const auto& sp = plan.subpops[s];
        auto stream = rng.fork(subpop_index++);
        for (const std::uint64_t local :
             stats::sample_indices(sp.population, sp.sample_size, stream)) {
            fault::Fault fault;
            if (sp.layer >= 0 && sp.bit >= 0)
                fault = universe.decode_in_subpop(sp.layer, sp.bit, local);
            else if (sp.layer >= 0)
                fault = universe.decode(universe.subpop_offset(sp.layer, 0) +
                                        local);
            else
                fault = universe.decode(local);
            items.push_back(DrawnFault{s, fault});
        }
    }
    return items;
}

CampaignFingerprint item_space_fingerprint(CampaignFingerprint fp,
                                           std::uint64_t item_count) {
    fp.universe_size = item_count;
    fp.model_id += "#items";
    return fp;
}

/// What one execution classifies. The census walks the universe and decodes
/// each global index lazily — its faults are never materialized; a
/// statistical run walks a drawn sample.
struct CampaignEngine::Items {
    const fault::FaultUniverse& universe;
    const std::vector<DrawnFault>* drawn = nullptr;  ///< null: the census

    [[nodiscard]] fault::Fault at(std::uint64_t i) const {
        return drawn ? (*drawn)[i].fault : universe.decode(i);
    }
};

/// What one execution produced over its item range [lo, hi); slot i of
/// each vector describes item lo + i.
struct CampaignEngine::Execution {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::vector<std::uint8_t> outcomes;  ///< FaultOutcome per slot
    std::vector<std::uint8_t> done;      ///< 1: replayed or classified
    bool complete = true;
    std::uint64_t classified = 0;
    std::uint64_t resumed = 0;

    /// Accumulate the known outcomes of drawn @p items serially, in
    /// canonical item order, so the tallies — and the estimator updates
    /// emitted into @p log — are a function of (plan, rng, model) alone:
    /// byte-identical across worker counts, claim orders and resume points.
    /// Cadence: one update per stratum at each power-of-two done count, plus
    /// a final point per stratum. @p log is null for range-restricted
    /// (shard) runs: a slice is not a population.
    CampaignResult tally(const fault::FaultUniverse& universe,
                         const CampaignPlan& plan,
                         const std::vector<DrawnFault>& items,
                         telemetry::EventLog* log) const {
        CampaignResult result = make_empty_result(
            static_cast<std::size_t>(universe.layer_count()), plan);
        result.interrupted = !complete;
        std::vector<std::uint64_t> last_emit(
            plan.subpops.size(), std::numeric_limits<std::uint64_t>::max());
        for (std::uint64_t i = 0; i < done.size(); ++i) {
            if (!done[i]) continue;
            const DrawnFault& item = items[lo + i];
            SubpopResult& sub = result.subpops[item.subpop];
            accumulate_outcome(sub, item.fault.layer,
                               static_cast<FaultOutcome>(outcomes[i]));
            if (log && (sub.injected & (sub.injected - 1)) == 0) {
                emit_stratum_update(*log, item.subpop, sub.plan, sub.injected,
                                    sub.critical, plan.spec.confidence);
                last_emit[item.subpop] = sub.injected;
            }
        }
        if (log) {
            // Final point per stratum — also the only point for strata an
            // interruption left untouched (done = 0).
            for (std::size_t s = 0; s < result.subpops.size(); ++s) {
                const SubpopResult& sub = result.subpops[s];
                if (last_emit[s] != sub.injected)
                    emit_stratum_update(*log, s, sub.plan, sub.injected,
                                        sub.critical, plan.spec.confidence);
            }
        }
        return result;
    }
};

CampaignEngine::Execution CampaignEngine::execute(
    const Items& items, const DurabilityOptions& options,
    const ProgressFn& progress) {
    // Range restriction (shard runner hook): every count and heartbeat
    // below is relative to [lo, hi). A whole run over nothing is vacuously
    // complete; any other empty or overlong range is a caller error.
    const std::uint64_t total =
        items.drawn ? items.drawn->size() : items.universe.total();
    Execution ex;
    ex.lo = options.range_begin;
    ex.hi = options.range_end == 0 ? total : options.range_end;
    if ((ex.lo >= ex.hi && total != 0) || ex.hi > total)
        throw std::invalid_argument(
            std::string(items.drawn ? "run_durable: item" :
                                      "run_exhaustive_durable: fault") +
            " range [" + std::to_string(ex.lo) + ", " + std::to_string(ex.hi) +
            ") is empty or exceeds the " + std::to_string(total) +
            (items.drawn ? "-item sample" : "-fault universe"));
    const std::uint64_t span = ex.hi - ex.lo;
    ex.outcomes.assign(span, 0);
    ex.done.assign(span, 0);

    // Resume: replay every journaled record, then classify the remainder. A
    // statistical journal lives in the item space (item_space_fingerprint),
    // so it never resumes into a census and vice versa.
    std::optional<CampaignJournal> journal;
    if (!options.journal_path.empty()) {
        telemetry::PhaseScope replay_scope(telemetry_, "resume_replay");
        CampaignFingerprint fp = fingerprint(items.universe, options.model_id);
        if (items.drawn) fp = item_space_fingerprint(std::move(fp), total);
        auto recovery = CampaignJournal::recover(options.journal_path, fp);
        if (!recovery.note.empty())
            std::cerr << "statfi: " << recovery.note << "\n";
        for (const JournalRecord& rec : recovery.records) {
            // Out-of-range records are defensive no-ops: an index past the
            // end would be corruption (CRC passed, so unlikely), one outside
            // [lo, hi) a journal shared across shards.
            if (rec.fault_index < ex.lo || rec.fault_index >= ex.hi) continue;
            const std::uint64_t slot = rec.fault_index - ex.lo;
            ex.outcomes[slot] = rec.outcome;
            if (!ex.done[slot]) {
                ex.done[slot] = 1;
                ++ex.resumed;
            }
        }
        journal.emplace(CampaignJournal::open(options.journal_path, fp,
                                              recovery.valid_bytes));
        if (telemetry_) {
            telemetry_->metrics().inc(
                0, telemetry_->ids().journal_resumed_total, ex.resumed);
            if (ex.resumed && telemetry_->events())
                telemetry_->events()->emit(
                    telemetry::Event("resume").field("replayed", ex.resumed));
        }
    }

    // Claimable groups: runs of pending items sharing (layer, ensemble
    // family), at most ensemble_width of them, as slot boundaries — group g
    // is [bounds[g], bounds[g + 1]). Resumed items inside a group are
    // stepped over. Both item orders (the universe's layer-slowest
    // enumeration, draw_plan's plan order) keep same-layer items adjacent,
    // so groups fill naturally.
    const std::size_t width = std::max<std::size_t>(1, config().ensemble_width);
    std::vector<std::uint64_t> bounds;
    {
        fault::Fault first;
        std::size_t members = 0;
        for (std::uint64_t i = 0; i < span; ++i) {
            if (ex.done[i]) continue;
            const fault::Fault f = items.at(ex.lo + i);
            if (members == 0 || members == width || f.layer != first.layer ||
                !fault::same_ensemble_family(f.model, first.model)) {
                bounds.push_back(i);
                first = f;
                members = 0;
            }
            ++members;
        }
        bounds.push_back(span);
    }

    // Heartbeat about 64 times per run, at most every 4096 items (the
    // stride must stay a power of two).
    std::uint64_t stride = 1;
    while (stride < 4096 && stride * 64 < span) stride <<= 1;
    telemetry::ProgressReporter reporter(progress, span, ex.resumed, stride);

    // Sink-side telemetry (journal appends, flushes) happens under
    // sink_mutex, so it is serialized into worker 0's slot regardless of
    // which worker reached the sink — the mutex provides the single-writer
    // guarantee the registry's relaxed load+store increments need.
    const telemetry::MetricIds* ids = telemetry_ ? &telemetry_->ids() : nullptr;
    std::mutex sink_mutex;  // guards journal appends + progress callback
    std::uint64_t since_flush = 0;
    const auto flush = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        journal->flush();
        if (telemetry_) {
            telemetry_->metrics().observe(
                0, ids->flush_seconds,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            telemetry_->metrics().inc(0, ids->checkpoint_flushes_total);
        }
    };

    // Workers claim the next group from one shared cursor, so the load
    // balances itself. Every outcome lands in its own slot, which only the
    // claiming worker writes; claim order therefore never reaches a result.
    std::atomic<std::size_t> next_group{0};
    std::atomic<std::uint64_t> classified{0};
    std::atomic<bool> cancelled{false};
    const auto work = [&](std::size_t w) {
        std::vector<fault::Fault> batch;
        std::vector<std::uint64_t> slots;  // slot per batch member
        std::vector<FaultOutcome> outs;
        for (;;) {
            const std::size_t g =
                next_group.fetch_add(1, std::memory_order_relaxed);
            if (g + 1 >= bounds.size()) return;
            if (cancelled.load(std::memory_order_relaxed) ||
                (options.cancel && options.cancel->stop_requested())) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            batch.clear();
            slots.clear();
            for (std::uint64_t i = bounds[g]; i < bounds[g + 1]; ++i) {
                if (ex.done[i]) continue;
                batch.push_back(items.at(ex.lo + i));
                slots.push_back(i);
            }
            outs.assign(batch.size(), FaultOutcome::NonCritical);
            workers_[w]->core.evaluate_group(batch, outs.data());
            for (std::size_t b = 0; b < batch.size(); ++b) {
                ex.outcomes[slots[b]] = static_cast<std::uint8_t>(outs[b]);
                ex.done[slots[b]] = 1;
            }
            const std::uint64_t n =
                classified.fetch_add(batch.size(), std::memory_order_relaxed) +
                batch.size();
            // A group advances the count by its size, so a heartbeat is due
            // when any stride boundary inside the jump was crossed.
            bool beat = false;
            for (std::uint64_t m = n - batch.size() + 1; m <= n && !beat; ++m)
                beat = reporter.due(ex.resumed + m);
            if (!journal && !beat) continue;
            std::lock_guard<std::mutex> lock(sink_mutex);
            if (journal) {
                for (std::size_t b = 0; b < batch.size(); ++b) {
                    journal->append(ex.lo + slots[b],
                                    static_cast<std::uint8_t>(outs[b]));
                    if (++since_flush >= options.flush_interval) {
                        flush();
                        since_flush = 0;
                    }
                }
                if (telemetry_)
                    telemetry_->metrics().inc(0, ids->journal_records_total,
                                              batch.size());
            }
            if (beat) reporter.report(ex.resumed + n);
        }
    };
    if (workers_.size() == 1) {
        work(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers_.size());
        for (std::size_t w = 0; w < workers_.size(); ++w)
            threads.emplace_back(work, w);
        for (auto& t : threads) t.join();
    }

    ex.classified = classified.load();
    ex.complete = !cancelled.load();
    if (journal) flush();
    if (ex.complete) reporter.finish(ex.classified);
    return ex;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

CampaignResult CampaignEngine::run(const fault::FaultUniverse& universe,
                                   const CampaignPlan& plan, stats::Rng rng,
                                   const CancellationToken* cancel) {
    telemetry::PhaseScope scope(telemetry_, "classify");
    const auto start = std::chrono::steady_clock::now();
    const std::vector<DrawnFault> items =
        draw_plan(universe, plan, std::move(rng));
    DurabilityOptions options;
    options.cancel = cancel;
    const Execution ex = execute(Items{universe, &items}, options, {});
    CampaignResult result = ex.tally(
        universe, plan, items, telemetry_ ? telemetry_->events() : nullptr);
    result.wall_seconds = seconds_since(start);
    return result;
}

StatisticalRun CampaignEngine::run_durable(const fault::FaultUniverse& universe,
                                           const CampaignPlan& plan,
                                           const std::vector<DrawnFault>& items,
                                           const DurabilityOptions& options,
                                           const ProgressFn& progress) {
    telemetry::PhaseScope scope(telemetry_, "classify");
    const auto start = std::chrono::steady_clock::now();
    Execution ex = execute(Items{universe, &items}, options, progress);
    const bool full_range = ex.lo == 0 && ex.hi == items.size();
    CampaignResult result =
        ex.tally(universe, plan, items,
                 (telemetry_ && full_range) ? telemetry_->events() : nullptr);
    result.wall_seconds = seconds_since(start);
    return StatisticalRun{std::move(result), std::move(ex.outcomes),
                          ex.complete, ex.classified, ex.resumed};
}

CampaignResult CampaignEngine::run_campaign(const fault::FaultUniverse& universe,
                                            const CampaignSpec& spec,
                                            stats::Rng rng,
                                            const CancellationToken* cancel) {
    return run(universe, plan(universe, spec), rng, cancel);
}

ExhaustiveOutcomes CampaignEngine::run_exhaustive(
    const fault::FaultUniverse& universe, const ProgressFn& progress) {
    return run_exhaustive_durable(universe, DurabilityOptions{}, progress)
        .outcomes;
}

ExhaustiveRun CampaignEngine::run_exhaustive_durable(
    const fault::FaultUniverse& universe, const DurabilityOptions& options,
    const ProgressFn& progress) {
    telemetry::PhaseScope census_scope(telemetry_, "census");
    const Execution ex = execute(Items{universe}, options, progress);
    ExhaustiveRun run{ExhaustiveOutcomes(universe.total()), ex.complete,
                      ex.classified, ex.resumed};
    for (std::uint64_t i = 0; i < ex.done.size(); ++i)
        if (ex.done[i])
            run.outcomes.set(ex.lo + i,
                             static_cast<FaultOutcome>(ex.outcomes[i]));
    return run;
}

}  // namespace statfi::core
