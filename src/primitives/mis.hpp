// Maximal independent set: deterministic class-greedy over a Linial
// coloring (O(Delta^2 + log* n) rounds) and Luby's randomized algorithm
// (O(log n) rounds w.h.p.) [Gha16-role].
//
// Both are stepped through the SyncRunner engine via LocalContext: the
// class sweep runs one engine round per color class, Luby runs a 3-round
// draw/join/eliminate protocol per iteration. Results are bit-identical to
// the sequential reference at any worker count.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

std::vector<bool> mis_deterministic(const Graph& g, LocalContext& ctx);

/// Luby's algorithm; randomness is drawn from ctx.seed().
std::vector<bool> mis_luby(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
