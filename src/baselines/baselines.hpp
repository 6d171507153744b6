// Distributed baselines for bench E7:
//
//  * greedy (Delta+1)-coloring — the "one extra color makes it a greedy
//    problem" contrast from the introduction: O(Delta^2 + log* n) rounds
//    via one deg+1-list instance, but it uses Delta+1 colors;
//  * layered loophole coloring — the prior-approach stand-in: BFS-layer
//    the *whole* graph from its loopholes and color inward. On graphs with
//    frequent loopholes this works, with round complexity proportional to
//    the distance to the nearest loophole; on hard (loophole-free) regions
//    it stalls — exactly the paper's motivation for slack triads.
#pragma once

#include <optional>
#include <vector>

#include "core/loopholes.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// (Delta+1)-coloring by one deg+1-list instance over the full palette
/// {0..Delta}. Always succeeds. Default phase "greedy".
std::vector<Color> greedy_delta_plus_one(const Graph& g, LocalContext& ctx);

struct LayeredBaselineResult {
  std::vector<Color> color;
  bool success = false;       ///< every vertex was reachable from a loophole
  std::size_t unreachable = 0;  ///< vertices no loophole chain reaches
  int layers = 0;             ///< ~ round cost driver (graph eccentricity)
};

/// Layered Delta-coloring from the given loopholes (no slack triads): BFS
/// layering over the whole graph, colored outside-in, loopholes last.
/// Fails (success = false) when some vertex is unreachable — e.g. on
/// loophole-free hard instances.
LayeredBaselineResult layered_loophole_coloring(const Graph& g,
                                                const LoopholeSet& loopholes,
                                                LocalContext& ctx);

}  // namespace deltacolor
