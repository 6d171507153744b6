// Unit tests for the degree-balanced vertex partitioner behind the
// engine's worker chunks: contiguity and coverage of the bounds, degree
// weighting, alignment, degenerate part counts and graphs, and argument
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace deltacolor {
namespace {

Graph path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph(n, std::move(edges));
}

TEST(DegreeBalancedBounds, CoversRangeContiguously) {
  const Graph g = random_regular(1000, 8, 3);
  for (int parts : {1, 2, 3, 7, 16}) {
    const auto bounds = degree_balanced_bounds(g, parts, /*align=*/1);
    ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), g.num_nodes());
    for (int p = 0; p < parts; ++p) EXPECT_LE(bounds[p], bounds[p + 1]);
  }
}

TEST(DegreeBalancedBounds, BalancesByDegreeWeight) {
  // A star center carries almost all the weight; with 2 parts the split
  // must isolate it rather than halving the index range.
  const NodeId n = 1001;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  const Graph g = Graph(n, std::move(edges));
  const auto bounds = degree_balanced_bounds(g, 2, /*align=*/1);
  // Center weight = deg + 1 = n, leaves weight 2; total ~ 3n. The first
  // part hits its half-total target after the center plus ~n/4 leaves —
  // far left of the n/2 midpoint an unweighted split would pick.
  EXPECT_GT(bounds[1], 0u);
  EXPECT_LT(bounds[1], n / 3);
}

TEST(DegreeBalancedBounds, AlignmentRoundsBoundaries) {
  const Graph g = random_regular(1000, 8, 3);
  const auto bounds = degree_balanced_bounds(g, 4, /*align=*/64);
  for (std::size_t p = 1; p + 1 < bounds.size(); ++p)
    EXPECT_EQ(bounds[p] % 64, 0u) << "part " << p;
  EXPECT_EQ(bounds.back(), g.num_nodes());
}

TEST(DegreeBalancedBounds, MorePartsThanNodes) {
  const Graph g = path_graph(3);
  const auto bounds = degree_balanced_bounds(g, 8, /*align=*/1);
  ASSERT_EQ(bounds.size(), 9u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 3u);
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p)
    EXPECT_LE(bounds[p], bounds[p + 1]);
}

TEST(DegreeBalancedBounds, EachBoundOvershootsItsTargetByLessThanOneNode) {
  // Unaligned, the cut after part p is the first prefix whose (deg + 1)
  // weight reaches p/parts of the total, so it overshoots by less than
  // the weight of the node that crossed the target.
  const Graph g = random_graph(500, 0.05, 11);
  std::vector<std::uint64_t> prefix(g.num_nodes() + 1, 0);
  std::uint64_t max_weight = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint64_t w = static_cast<std::uint64_t>(g.degree(v)) + 1;
    prefix[v + 1] = prefix[v] + w;
    max_weight = std::max(max_weight, w);
  }
  const std::uint64_t total = prefix.back();
  for (int parts : {2, 3, 5, 8}) {
    const auto bounds = degree_balanced_bounds(g, parts, /*align=*/1);
    for (int p = 1; p < parts; ++p) {
      const std::uint64_t target = total * p / parts;
      const std::uint64_t seen = prefix[bounds[p]];
      EXPECT_GE(seen, target) << "parts=" << parts << " p=" << p;
      EXPECT_LT(seen, target + max_weight) << "parts=" << parts << " p=" << p;
    }
  }
}

TEST(DegreeBalancedBounds, SinglePartOwnsEveryNode) {
  const Graph g = random_regular(100, 4, 1);
  const auto bounds = degree_balanced_bounds(g, 1, /*align=*/64);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 100u);
}

TEST(DegreeBalancedBounds, EmptyGraphYieldsOnlyEmptyParts) {
  const Graph g(0, {});
  const auto bounds = degree_balanced_bounds(g, 4, /*align=*/1);
  ASSERT_EQ(bounds.size(), 5u);
  for (const std::size_t b : bounds) EXPECT_EQ(b, 0u);
}

TEST(DegreeBalancedBounds, AlignmentWiderThanTheGraphLeavesOnePart) {
  // Every interior cut rounds up past n and clamps to it: part 0 owns the
  // whole graph and the rest are empty.
  const Graph g = random_regular(1000, 8, 3);
  const auto bounds = degree_balanced_bounds(g, 4, /*align=*/4096);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  for (std::size_t p = 1; p < bounds.size(); ++p)
    EXPECT_EQ(bounds[p], g.num_nodes()) << "part " << p;
}

TEST(DegreeBalancedBounds, RejectsZeroPartsAndZeroAlignment) {
  const Graph g = path_graph(10);
  EXPECT_THROW(degree_balanced_bounds(g, 0, /*align=*/1), std::logic_error);
  EXPECT_THROW(degree_balanced_bounds(g, 2, /*align=*/0), std::logic_error);
}

}  // namespace
}  // namespace deltacolor
