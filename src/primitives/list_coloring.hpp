// (deg+1)-list coloring [MT20-role; realized as class-greedy over a Linial
// coloring, O(Delta^2 + log* n) rounds] plus a randomized color-trial
// variant for comparison benches.
//
// Instance semantics (Section 2 of the paper): a set of *active* nodes must
// be colored; every active node v must have an allowed list whose colors,
// after removing the colors of already-colored neighbors, number at least
// (number of active neighbors of v) + 1. Under this precondition the
// class-greedy schedule always finds a free color.
//
// The deterministic schedule is computed on a lazy InducedSubgraphView of
// the active nodes (the subgraph is never materialized); both variants step
// their sweeps through the SyncRunner engine via LocalContext. Lists live
// in flat CSR storage (ColorLists) and the per-step exclusion set is a
// word-parallel PaletteSet (palette.hpp) — the steady-state sweep performs
// no heap allocation and no sorting.
#pragma once

#include <vector>

#include "common/palette.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// Deterministically colors all nodes with active[v] != 0. `color` holds
/// the global partial coloring and is extended in place; `lists[v]` is the
/// allowed palette of active node v (entries for inactive nodes ignored).
/// The deg+1 precondition is checked (throws on violation). Returns the
/// number of LOCAL rounds consumed (also charged to the context's phase,
/// default "deg+1-list").
int deg_plus_one_list_color(const Graph& g, const NodeMask& active,
                            const ColorLists& lists,
                            std::vector<Color>& color, LocalContext& ctx);

/// Randomized variant: active nodes repeatedly try a uniform color from
/// their remaining list; a trial sticks if no neighbor tried or holds the
/// same color. Terminates w.h.p. in O(log n) rounds under the same deg+1
/// precondition. Randomness comes from ctx.seed().
int deg_plus_one_list_color_randomized(const Graph& g, const NodeMask& active,
                                       const ColorLists& lists,
                                       std::vector<Color>& color,
                                       LocalContext& ctx);

/// Builds the default (Delta+1)-coloring lists {0..Delta} for every node.
ColorLists uniform_lists(const Graph& g, int num_colors);

}  // namespace deltacolor
