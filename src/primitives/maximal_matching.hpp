// Maximal matching [PR01-role]: deterministic class-greedy over a Linial
// coloring of the line graph (each line-graph round dilates to 2 real
// rounds: the two endpoints of an edge hold its state and sync over the
// edge) and the randomized Israeli-Itai-style proposal algorithm.
//
// All three variants step through the SyncRunner engine via LocalContext;
// the deterministic variant runs its palette reduction and class sweep
// directly on the lazy LineGraphView.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// Flags by EdgeId; a maximal matching of g. Default phase
/// "maximal-matching".
std::vector<bool> maximal_matching_deterministic(const Graph& g,
                                                 LocalContext& ctx);

/// Panconesi-Rizzi maximal matching in O(Delta + log* n) rounds: orient
/// every edge toward its higher-identifier endpoint, split the out-edges
/// into <= Delta rooted forests (the i-th out-edge of every node forms
/// forest i; identifiers increase along edges, so each forest is acyclic),
/// 3-color all forests at once with Cole-Vishkin, then process forests
/// sequentially — within a forest, three proposal rounds (one per color
/// class, children propose to parents) leave no free tree edge. Default
/// phase "maximal-matching-pr".
std::vector<bool> maximal_matching_pr(const Graph& g, LocalContext& ctx);

/// Randomized proposal matching; randomness from ctx.seed(). Default phase
/// "maximal-matching-rand".
std::vector<bool> maximal_matching_randomized(const Graph& g,
                                              LocalContext& ctx);

}  // namespace deltacolor
