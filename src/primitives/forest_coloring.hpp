// Cole-Vishkin 3-coloring of rooted forests in O(log* n) rounds.
//
// Each node knows its parent (kNoNode for roots). Colors start as the
// LOCAL identifiers; one Cole-Vishkin step maps a color to
// 2*i + bit_i(color), where i is the lowest bit position at which the
// color differs from the parent's (roots diff against their own color
// xor 1). After O(log* n) steps the palette stabilizes at {0..5}; colors
// 5, 4, 3 are then eliminated by shift-down + recolor rounds: after every
// node adopts its parent's color (roots pick a fresh one), all siblings
// agree, so a node sees at most two colors in its neighborhood and can
// move into {0, 1, 2}.
//
// Both phases are stepped through the SyncRunner engine over a lazy
// parent-pointer view (each node's only visible neighbor is its parent).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "local/context.hpp"

namespace deltacolor {

struct ForestColoringResult {
  std::vector<Color> color;  ///< proper 3-coloring of the forest edges
  int rounds = 0;
};

/// `parent[v]` is v's parent in the forest or kNoNode for roots; `ids`
/// are the unique node identifiers the reduction starts from. Rounds are
/// charged to the context's phase (default "forest-3col").
ForestColoringResult forest_3_coloring(const std::vector<NodeId>& parent,
                                       const std::vector<std::uint64_t>& ids,
                                       LocalContext& ctx);

/// Validity helper: no node shares a color with its parent.
bool is_proper_forest_coloring(const std::vector<NodeId>& parent,
                               const std::vector<Color>& color,
                               int num_colors);

}  // namespace deltacolor
