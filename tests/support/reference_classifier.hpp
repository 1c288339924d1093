#pragma once
// ReferenceClassifier: the per-fault classification loop, kept as the test
// oracle for ClassificationCore::evaluate_group.
//
// It shares no classification state with the core: its own golden cache
// (core::build_golden_cache), its own WeightInjector, its own mitigation
// clip hook (plain std::clamp, the reference semantics of the kernels'
// clamp), and a full Network::forward_from of every node from the dirty one
// onwards, one image and one fault at a time — no row-only recompute, no
// lane stacking. It applies the same classification policies with the same
// per-image early exit and counts inferences the same way (one per image
// evaluated), so a grouped run must match it in outcomes AND in
// inference_count().

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/classification_core.hpp"
#include "fault/codec.hpp"
#include "fault/mitigation.hpp"

namespace statfi::testsupport {

class ReferenceClassifier {
public:
    /// Operates on @p net's weights directly (restoring them after every
    /// fault); installs the config's clip hook on @p net before the golden
    /// pass, so both see the hardened network.
    ReferenceClassifier(nn::Network& net, const data::Dataset& eval,
                        core::ExecutorConfig config = {})
        : net_(&net), config_(std::move(config)),
          mitigation_(install_clips(config_.mitigation, net)),
          injector_(net, config_.dtype, config_.layer_quant),
          golden_(core::build_golden_cache(net, eval)) {}

    [[nodiscard]] std::uint64_t inference_count() const noexcept {
        return inferences_;
    }

    core::FaultOutcome evaluate(const fault::Fault& fault) {
        if (fault.model == fault::FaultModel::ActivationFlip)
            return evaluate_activation(fault);
        if (mitigation_.tmr_protects(fault.layer) || injector_.masked(fault))
            return core::FaultOutcome::Masked;
        fault::WeightInjector::Scoped guard(injector_, fault);
        return classify_weight_fault(injector_.node_of_layer(fault.layer));
    }

private:
    static fault::ResolvedMitigation install_clips(
        const fault::MitigationConfig& config, nn::Network& net) {
        auto resolved = fault::resolve_mitigation(config, net);
        if (resolved.any_clip)
            net.set_node_hook(
                [clips = resolved.node_clips](int id, Tensor& out) {
                    const auto& range = clips[static_cast<std::size_t>(id)];
                    if (!range) return;
                    for (std::size_t i = 0; i < out.numel(); ++i)
                        out[i] = std::clamp(out[i], range->first,
                                            range->second);
                });
        return resolved;
    }

    /// Top-1 prediction; -1 when the winning logit is not finite.
    static int predict(const Tensor& logits) {
        const int best = nn::argmax_row(logits, 0);
        if (!std::isfinite(logits[static_cast<std::size_t>(best)])) return -1;
        return best;
    }

    const Tensor& faulty_forward(int first_dirty, std::size_t image) {
        ++inferences_;
        return net_->forward_from(first_dirty, golden_.images[image],
                                  golden_.acts[image], scratch_);
    }

    core::FaultOutcome classify_weight_fault(int node) {
        using core::ClassificationPolicy;
        using core::FaultOutcome;
        const std::size_t count = golden_.images.size();
        switch (config_.policy) {
            case ClassificationPolicy::AnyMisprediction:
                for (std::size_t k = 0; k < count; ++k) {
                    const std::size_t i = golden_.correct_order[k];
                    if (golden_.preds[i] != golden_.labels[i]) break;
                    if (predict(faulty_forward(node, i)) != golden_.labels[i])
                        return FaultOutcome::Critical;
                }
                return FaultOutcome::NonCritical;
            case ClassificationPolicy::GoldenMismatch:
                for (std::size_t i = 0; i < count; ++i)
                    if (predict(faulty_forward(node, i)) != golden_.preds[i])
                        return FaultOutcome::Critical;
                return FaultOutcome::NonCritical;
            case ClassificationPolicy::AccuracyDrop: {
                const double threshold = config_.accuracy_drop_threshold *
                                         static_cast<double>(count);
                std::uint64_t correct = 0;
                for (std::size_t i = 0; i < count; ++i) {
                    if (predict(faulty_forward(node, i)) == golden_.labels[i])
                        ++correct;
                    // Stop once the drop is unavoidable even if every
                    // remaining image comes out right.
                    const std::uint64_t remaining = count - 1 - i;
                    if (static_cast<double>(golden_.correct) -
                            static_cast<double>(correct + remaining) >
                        threshold)
                        return FaultOutcome::Critical;
                }
                return static_cast<double>(golden_.correct) -
                                   static_cast<double>(correct) >
                               threshold
                           ? FaultOutcome::Critical
                           : FaultOutcome::NonCritical;
            }
        }
        return FaultOutcome::NonCritical;
    }

    /// One inference on image (element + bit) mod |eval|, with one element
    /// of node fault.layer's golden output flipped for its duration.
    core::FaultOutcome evaluate_activation(const fault::Fault& fault) {
        const std::size_t i = static_cast<std::size_t>(
            (fault.weight_index + static_cast<std::uint64_t>(fault.bit)) %
            golden_.images.size());
        Tensor& act = golden_.acts[i].at(static_cast<std::size_t>(fault.layer));
        if (fault.weight_index >= static_cast<std::uint64_t>(act.numel()))
            throw std::out_of_range("activation element index out of range");
        const auto element = static_cast<std::size_t>(fault.weight_index);
        const float saved = act[element];
        act[element] = fault::apply_bit_flip(saved, fault.bit, config_.dtype);
        const int prediction = predict(faulty_forward(fault.layer + 1, i));
        act[element] = saved;

        const bool critical =
            config_.policy == core::ClassificationPolicy::AnyMisprediction
                ? golden_.preds[i] == golden_.labels[i] &&
                      prediction != golden_.labels[i]
                : prediction != golden_.preds[i];
        return critical ? core::FaultOutcome::Critical
                        : core::FaultOutcome::NonCritical;
    }

    nn::Network* net_;
    core::ExecutorConfig config_;
    fault::ResolvedMitigation mitigation_;
    fault::WeightInjector injector_;
    core::GoldenCache golden_;
    std::vector<Tensor> scratch_;
    std::uint64_t inferences_ = 0;
};

}  // namespace statfi::testsupport
