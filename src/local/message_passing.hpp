// Randomized message-passing algorithms on the SyncRunner engine: Luby's
// MIS and (Delta+1)-coloring by color trials. They back the registry's
// "mis" and "trial" algorithms and serve as baselines next to the paper's
// pipelines.
//
// Like every primitive in the library, they run on SyncRunner, so the
// information discipline is structural: a node's transition function
// cannot read anything but its neighbors' previous-round states.
//
// Both algorithms accept EngineOptions: results are bit-identical across
// worker counts (per-node randomness keys on (seed, id, round), so the
// schedule cannot leak in). Wall-clock is charged to the ledger next to
// the round count through ScopedPhaseTimer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

/// Luby's MIS, each iteration as two SyncRunner rounds (draw-compare,
/// then neighbor elimination). Returns the independent-set flags.
std::vector<bool> mis_message_passing(const Graph& g, std::uint64_t seed,
                                      RoundLedger& ledger,
                                      const std::string& phase = "mis-mp",
                                      const EngineOptions& engine = {});

/// Randomized (Delta+1)-coloring by color trials, one trial per two
/// SyncRunner rounds (try, then commit-if-unique).
std::vector<Color> color_trial_message_passing(
    const Graph& g, std::uint64_t seed, RoundLedger& ledger,
    const std::string& phase = "color-trial-mp",
    const EngineOptions& engine = {});

}  // namespace deltacolor
