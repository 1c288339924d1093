#pragma once
// Shard runner: execute ONE shard of a manifest in this process, durably.
//
// The runner rebuilds the campaign fixture from the manifest's recipe (or
// takes one the caller already built), proves it matches by comparing
// campaign fingerprints, and then classifies its item slice through the
// ordinary CampaignEngine — so it inherits the engine's checkpoint/resume
// journal, cooperative cancellation, progress/ETA, and multi-worker
// execution unchanged. On completion it writes the checksummed shard-result
// artifact next to the manifest and removes its journal; on interruption it
// leaves the journal for a `--resume` rerun.
//
// Census shards journal GLOBAL FAULT indices (the engine's range-restricted
// durable census). Statistical shards journal ITEM indices into the
// canonical drawn sample; their journal fingerprint swaps the universe size
// for the item count and tags the model id, so a census journal can never
// be resumed into a statistical shard or vice versa.

#include <string>

#include "core/outcome.hpp"
#include "shard/manifest.hpp"
#include "shard/result.hpp"
#include "telemetry/session.hpp"

namespace statfi::shard {

struct CampaignFixture;

struct ShardRunOptions {
    std::uint32_t shard = 0;
    bool resume = false;   ///< continue from a matching journal if present
    std::size_t threads = 1;  ///< engine workers (0 = hardware concurrency)
    const core::CancellationToken* cancel = nullptr;
    core::ProgressFn progress;  ///< heartbeat over this shard's item span
    /// Optional telemetry sink (borrowed); handed to the shard's engine, so
    /// counters/spans cover fixture build, classification, and journaling.
    telemetry::Session* telemetry = nullptr;
};

struct ShardRunReport {
    bool complete = false;
    std::uint64_t resumed = 0;     ///< items replayed from the journal
    std::uint64_t classified = 0;  ///< items classified by this run
    std::uint64_t critical = 0;    ///< Critical outcomes known in the slice
    std::string result_path;       ///< written artifact (complete runs only)
    std::string journal_path;      ///< checkpoint journal (interrupted runs)
};

/// Run shard @p options.shard of @p manifest; artifacts are placed next to
/// @p manifest_path. @throws std::runtime_error when the rebuilt fixture's
/// fingerprint does not match the manifest (diverged binary/data), and
/// std::invalid_argument for an out-of-range shard id.
ShardRunReport run_shard(const ShardManifest& manifest,
                         const std::string& manifest_path,
                         const ShardRunOptions& options);

/// run_shard over a prebuilt @p fixture instead of a rebuild — for a
/// process that froze the manifest from that fixture and must not build it
/// twice (`--train` would train twice). The engine only reads the network
/// (it clones it per worker), so the fixture is shared safely; its
/// fingerprint is still checked against the manifest.
ShardRunReport run_shard(const ShardManifest& manifest,
                         const std::string& manifest_path,
                         const CampaignFixture& fixture,
                         const ShardRunOptions& options);

}  // namespace statfi::shard
