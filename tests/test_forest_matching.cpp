// Tests for Cole-Vishkin forest 3-coloring and the Panconesi-Rizzi
// O(Delta + log* n) maximal matching built on it.
#include <gtest/gtest.h>

#include "bench_support/workloads.hpp"
#include "common/rng.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/ledger.hpp"
#include "primitives/forest_coloring.hpp"
#include "primitives/maximal_matching.hpp"

namespace deltacolor {
namespace {

// Parent array of a path rooted at its last node.
std::vector<NodeId> path_parents(NodeId n) {
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 0; v + 1 < n; ++v) parent[v] = v + 1;
  return parent;
}

TEST(ForestColoring, PathProper3Coloring) {
  for (const NodeId n : {2u, 3u, 17u, 1000u}) {
    const auto parent = path_parents(n);
    const auto ids = shuffled_ids(n, n);
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto res = forest_3_coloring(parent, ids, ctx);
    EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3))
        << "n=" << n;
  }
}

TEST(ForestColoring, RandomForest) {
  Rng rng(5);
  const NodeId n = 4000;
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 1; v < n; ++v)
    if (rng.chance(0.9)) parent[v] = static_cast<NodeId>(rng.below(v));
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto res = forest_3_coloring(parent, identity_ids(n), ctx);
  EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3));
}

TEST(ForestColoring, StarAndSingletons) {
  // Star: every leaf's parent is the center; isolated roots elsewhere.
  const NodeId n = 12;
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 1; v < 8; ++v) parent[v] = 0;
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto res = forest_3_coloring(parent, shuffled_ids(n, 3), ctx);
  EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3));
}

TEST(ForestColoring, RoundsLogStarShaped) {
  RoundLedger l1, l2;
  LocalContext l1_ctx(l1);
  LocalContext l2_ctx(l2);
  const auto r1 =
      forest_3_coloring(path_parents(512), shuffled_ids(512, 1), l1_ctx);
  const auto r2 =
      forest_3_coloring(path_parents(65536), shuffled_ids(65536, 2), l2_ctx);
  EXPECT_LE(r2.rounds, r1.rounds + 3);  // log* growth is negligible
}

TEST(ForestColoring, DuplicateIdAlongEdgeThrows) {
  std::vector<NodeId> parent = {1, kNoNode};
  std::vector<std::uint64_t> ids = {7, 7};
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(forest_3_coloring(parent, ids, ctx), std::logic_error);
}

// --- PR matching ----------------------------------------------------------

TEST(PrMatching, MaximalOnFamilies) {
  std::vector<Graph> gs;
  gs.push_back(path_graph(40));
  gs.push_back(cycle_graph(41));
  gs.push_back(complete_graph(9));
  gs.push_back(torus_grid(6, 7));
  gs.push_back(random_tree(120, 5));
  gs.push_back(random_graph(80, 0.1, 6));
  gs.push_back(random_regular(60, 4, 7));
  gs.push_back(bench::hard_instance(16, 12, 3).graph);
  for (const Graph& g : gs) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto m = maximal_matching_pr(g, ctx);
    EXPECT_TRUE(is_maximal_matching(g, m)) << "n=" << g.num_nodes();
  }
}

TEST(PrMatching, AdversarialIds) {
  Graph g = random_regular(128, 6, 9);
  std::vector<std::uint64_t> ids(128);
  for (NodeId v = 0; v < 128; ++v) ids[v] = 127 - v;
  g.set_ids(ids);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto m = maximal_matching_pr(g, ctx);
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(PrMatching, FewerRoundsThanEdgeColoringVariant) {
  const Graph g = bench::hard_instance(32, 32, 5).graph;
  RoundLedger pr, ec;
  LocalContext pr_ctx(pr);
  LocalContext ec_ctx(ec);
  const auto m1 = maximal_matching_pr(g, pr_ctx);
  const auto m2 = maximal_matching_deterministic(g, ec_ctx);
  EXPECT_TRUE(is_maximal_matching(g, m1));
  EXPECT_TRUE(is_maximal_matching(g, m2));
  // O(Delta + log* n) vs O(Delta log Delta + log* n) with dilation-2
  // line-graph rounds: PR wins clearly at Delta = 32.
  EXPECT_LT(pr.total(), ec.total());
}

TEST(PrMatching, EdgelessAndTiny) {
  Graph g0(5, {});
  RoundLedger l;
  LocalContext l_ctx(l);
  EXPECT_TRUE(maximal_matching_pr(g0, l_ctx).empty());
  Graph g1(2, {{0, 1}});
  const auto m = maximal_matching_pr(g1, l_ctx);
  EXPECT_TRUE(is_maximal_matching(g1, m));
}

}  // namespace
}  // namespace deltacolor
