#include "core/adaptive.hpp"

#include <algorithm>
#include <functional>

#include "stats/sampling.hpp"

namespace statfi::core {

namespace {

/// Classifies one phase's drawn faults, one outcome per item in item order
/// (live injection through the executor, or a ground-truth lookup).
/// @p phase has one subpopulation per (layer, bit); items index into it.
using ClassifyBatch = std::function<std::vector<FaultOutcome>(
    const CampaignPlan& phase, const std::vector<DrawnFault>& items)>;

/// Shared two-phase logic.
AdaptiveResult run_two_phase(const fault::FaultUniverse& universe,
                             const AdaptiveConfig& config, stats::Rng rng,
                             const ClassifyBatch& classify) {
    // Phase 1: the pilot, one subpopulation per (layer, bit).
    CampaignPlan plan;
    plan.approach = Approach::DataAware;  // closest family
    plan.spec = config.spec;
    for (int l = 0; l < universe.layer_count(); ++l)
        for (int bit = 0; bit < universe.bits(); ++bit) {
            SubpopPlan sp;
            sp.layer = l;
            sp.bit = bit;
            sp.population = universe.bit_population(l);
            sp.sample_size = std::min(config.pilot_size, sp.population);
            plan.subpops.push_back(sp);
        }
    const std::vector<DrawnFault> pilot = draw_plan(universe, plan, rng);
    const std::vector<FaultOutcome> pilot_out = classify(plan, pilot);

    // Pilot indices local to each subpopulation (ascending, as drawn) and
    // the measured critical counts.
    const std::size_t subpops = plan.subpops.size();
    std::vector<std::vector<std::uint64_t>> drawn(subpops);
    std::vector<std::uint64_t> pilot_critical(subpops, 0);
    for (std::size_t i = 0; i < pilot.size(); ++i) {
        const DrawnFault& item = pilot[i];
        const SubpopPlan& sp = plan.subpops[item.subpop];
        drawn[item.subpop].push_back(universe.encode(item.fault) -
                                     universe.subpop_offset(sp.layer, sp.bit));
        pilot_critical[item.subpop] += pilot_out[i] == FaultOutcome::Critical;
    }

    // Phase 2: re-plan Eq. 1 at each measured rate and draw the remainder,
    // skipping faults the pilot already classified.
    AdaptiveResult result;
    std::vector<DrawnFault> refinement;
    for (std::size_t s = 0; s < subpops; ++s) {
        SubpopPlan& sp = plan.subpops[s];
        const std::uint64_t n_pilot = sp.sample_size;
        result.pilot_injected += n_pilot;
        const double p_hat =
            n_pilot ? static_cast<double>(pilot_critical[s]) /
                          static_cast<double>(n_pilot)
                    : config.p_ceiling;
        stats::SampleSpec spec = config.spec;
        spec.p = std::clamp(p_hat, config.p_floor, config.p_ceiling);
        sp.p = spec.p;
        const std::uint64_t n_final = stats::sample_size(sp.population, spec);
        if (n_final <= n_pilot) continue;
        auto stream = rng.fork(s + 0x100000);
        const auto& indices = drawn[s];
        for (const std::uint64_t local :
             stats::sample_indices(sp.population, n_final, stream)) {
            if (std::binary_search(indices.begin(), indices.end(), local))
                continue;
            refinement.push_back(DrawnFault{
                s, universe.decode_in_subpop(sp.layer, sp.bit, local)});
            ++sp.sample_size;
        }
    }
    result.refinement_injected = refinement.size();
    std::vector<FaultOutcome> refinement_out;
    if (!refinement.empty()) refinement_out = classify(plan, refinement);

    // Tallies over the distinct faults of both phases.
    result.combined =
        make_empty_result(static_cast<std::size_t>(universe.layer_count()),
                          plan);
    for (std::size_t i = 0; i < pilot.size(); ++i)
        accumulate_outcome(result.combined.subpops[pilot[i].subpop],
                           pilot[i].fault.layer, pilot_out[i]);
    for (std::size_t i = 0; i < refinement.size(); ++i)
        accumulate_outcome(result.combined.subpops[refinement[i].subpop],
                           refinement[i].fault.layer, refinement_out[i]);
    return result;
}

}  // namespace

AdaptiveResult run_adaptive(CampaignEngine& engine,
                            const fault::FaultUniverse& universe,
                            const AdaptiveConfig& config, stats::Rng rng) {
    return run_two_phase(
        universe, config, rng,
        [&](const CampaignPlan& phase, const std::vector<DrawnFault>& items) {
            const StatisticalRun run =
                engine.run_durable(universe, phase, items, DurabilityOptions{});
            std::vector<FaultOutcome> out;
            out.reserve(run.outcomes.size());
            for (const std::uint8_t o : run.outcomes)
                out.push_back(static_cast<FaultOutcome>(o));
            return out;
        });
}

AdaptiveResult replay_adaptive(const fault::FaultUniverse& universe,
                               const ExhaustiveOutcomes& truth,
                               const AdaptiveConfig& config, stats::Rng rng) {
    if (truth.size() != universe.total())
        throw std::invalid_argument("replay_adaptive: outcome table mismatch");
    return run_two_phase(
        universe, config, rng,
        [&](const CampaignPlan&, const std::vector<DrawnFault>& items) {
            std::vector<FaultOutcome> out;
            out.reserve(items.size());
            for (const DrawnFault& item : items)
                out.push_back(truth.at(universe.encode(item.fault)));
            return out;
        });
}

}  // namespace statfi::core
