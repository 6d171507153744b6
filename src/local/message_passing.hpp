// Reference message-passing implementations on the SyncRunner engine.
//
// The library's primitives are written as explicit per-round loops with
// the same information discipline; these SyncRunner versions make the
// discipline *structural* (a node's transition function literally cannot
// read anything but its neighbors' previous-round states) and serve as
// cross-checks: the test suite verifies they deliver the same guarantees
// as the direct implementations.
//
// Both algorithms accept EngineOptions: results are bit-identical across
// worker counts (per-node randomness keys on (seed, id, round), so the
// schedule cannot leak in). Wall-clock is charged to the ledger next to
// the round count (RoundLedger::charge_time).
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
