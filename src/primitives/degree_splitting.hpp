// Distributed degree splitting (Lemma 21 / Corollary 22 role, GHK+17-style).
//
// Construction: every node pairs up its incident edges; the pairing splices
// edges into walks (paths and cycles, since each edge-end joins at most one
// pair). Each walk is chopped into segments of ~`segment_length` edges and
// the edges of a segment are 2-colored alternately. A pair whose two edges
// are consecutive within one segment contributes one edge to each side, so
// a node's discrepancy is bounded by (2 * #cut pairs at the node) + 3.
// Cuts are `segment_length` apart along each walk, so a node's expected
// number of cut pairs is ~ deg / segment_length — choose segment_length =
// Theta(1/epsilon) for discrepancy ~ epsilon * deg + O(1). Recursing i
// times yields a 2^i-way split (Corollary 22).
//
// Substitution note (DESIGN.md): the paper cites the recursive GHK+17
// splitter with a deterministic worst-case guarantee; our walk-chopper has
// the same structure, runs in O(i * (1/epsilon + log* n)) simulated rounds,
// and its discrepancy is verified empirically (bench E9 / property tests).
//
// The core splitter works on an abstract edge list over virtual node ids
// (parallel edges allowed) because the paper applies it to the virtual
// multigraph G_Q of Phase 2; the Graph overload wraps it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

struct DegreeSplitResult {
  /// Part index per edge (input order), in {0, .., 2^levels - 1}.
  std::vector<int> part;
  int num_parts = 0;
  int rounds = 0;
};

/// Splits an abstract multigraph's edges into 2^levels parts of near-equal
/// per-node degree. `edges[k]` joins two virtual nodes in [0, num_nodes).
/// The global walk extraction is a centralized stand-in for the recursive
/// GHK+17 splitter (see the substitution note above): it is not stepped
/// through the engine; only round accounting and the execution context
/// flow through LocalContext. Default phase "degree-split".
DegreeSplitResult degree_split_edges(
    int num_nodes, const std::vector<std::pair<int, int>>& edges, int levels,
    int segment_length, std::uint64_t seed, LocalContext& ctx);

/// Graph overload: part indices are by EdgeId.
DegreeSplitResult degree_split(const Graph& g, int levels, int segment_length,
                               std::uint64_t seed, LocalContext& ctx);

/// Per-node edge count inside one part (verification helper).
std::vector<int> part_degrees(const Graph& g, const DegreeSplitResult& split,
                              int part);

}  // namespace deltacolor
