// Tests for degree splitting (Lemma 21 / Corollary 22 role) and hyperedge
// grabbing (Lemma 5 role).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "local/ledger.hpp"
#include "primitives/degree_splitting.hpp"
#include "primitives/heg.hpp"

namespace deltacolor {
namespace {

// --- degree splitting ---------------------------------------------------------

TEST(DegreeSplit, PartitionCoversAllEdges) {
  Graph g = random_regular(200, 8, 1);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto split = degree_split(g, 2, 32, 5, ctx);
  ASSERT_EQ(split.part.size(), g.num_edges());
  EXPECT_EQ(split.num_parts, 4);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(split.part[e], 0);
    EXPECT_LT(split.part[e], 4);
  }
  // part_degrees over all parts sums to the degree.
  std::vector<int> total(g.num_nodes(), 0);
  for (int p = 0; p < 4; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) total[v] += deg[v];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(total[v], g.degree(v));
}

class SplitDiscrepancyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitDiscrepancyTest, PerNodeDiscrepancyBounded) {
  const auto [levels, degree] = GetParam();
  Graph g = random_regular(600, degree, 77 + degree);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const int segment_length = 32;
  const auto split = degree_split(g, levels, segment_length, 9, ctx);
  const int parts = 1 << levels;
  // Corollary 22 shape: each part's per-node degree lies within
  // deg/2^i +- (eps * deg + a). Our empirical bound uses eps = 2/segment
  // per level plus the alternation defect of 3 per level.
  const double eps = 2.0 * levels / segment_length;
  const double a = 3.0 * levels + 1;
  for (int p = 0; p < parts; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double expect = static_cast<double>(g.degree(v)) / parts;
      const double slack = eps * g.degree(v) + a;
      EXPECT_GE(deg[v], std::floor(expect - slack))
          << "node " << v << " part " << p;
      EXPECT_LE(deg[v], std::ceil(expect + slack))
          << "node " << v << " part " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LevelsAndDegrees, SplitDiscrepancyTest,
                         ::testing::Values(std::tuple{1, 8},
                                           std::tuple{1, 16},
                                           std::tuple{2, 16},
                                           std::tuple{2, 32},
                                           std::tuple{3, 32}));

TEST(DegreeSplit, SingleHalvingOnCycleIsNearPerfect) {
  // A cycle is one closed walk; alternation errs by at most the defects at
  // segment boundaries and the odd-cycle closure.
  Graph g = cycle_graph(257);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto split = degree_split(g, 1, 64, 3, ctx);
  const auto deg0 = part_degrees(g, split, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_LE(deg0[v], 2);
}

TEST(DegreeSplit, RejectsBadParameters) {
  Graph g = cycle_graph(8);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(degree_split(g, 0, 16, 1, ctx), std::logic_error);
  EXPECT_THROW(degree_split(g, 1, 1, 1, ctx), std::logic_error);
}

// --- hyperedge grabbing -------------------------------------------------------

// Random multihypergraph with all vertex degrees >= delta and rank <= r.
Hypergraph random_heg_instance(int num_vertices, int delta, int rank,
                               std::uint64_t seed) {
  Rng rng(seed);
  Hypergraph h;
  h.num_vertices = num_vertices;
  // Enough hyperedges that average degree exceeds delta, then patch any
  // deficient vertex with extra singleton-ish edges.
  const int num_edges = (num_vertices * delta) / std::max(1, rank / 2) + 1;
  for (int f = 0; f < num_edges; ++f) {
    std::vector<int> members;
    const int size = 1 + static_cast<int>(rng.below(rank));
    for (int i = 0; i < size; ++i)
      members.push_back(static_cast<int>(rng.below(num_vertices)));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    h.edges.push_back(std::move(members));
  }
  // Patch degrees.
  std::vector<int> deg(num_vertices, 0);
  for (const auto& e : h.edges)
    for (const int v : e) ++deg[v];
  for (int v = 0; v < num_vertices; ++v)
    while (deg[v] < delta) {
      h.edges.push_back({v});
      ++deg[v];
    }
  h.build_incidence();
  return h;
}

TEST(Heg, RankAndDegreeAccessors) {
  Hypergraph h;
  h.num_vertices = 3;
  h.edges = {{0, 1}, {1, 2, 0}, {2}};
  h.build_incidence();
  EXPECT_EQ(h.rank(), 3);
  EXPECT_EQ(h.min_degree(), 2);
}

TEST(Heg, CentralizedSolvesFeasibleInstances) {
  const Hypergraph h = random_heg_instance(60, 6, 4, 1);
  const HegResult r = solve_heg_centralized(h);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r));
}

TEST(Heg, DistributedMatchesCentralizedFeasibility) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Hypergraph h = random_heg_instance(80, 7, 5, seed);
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const HegResult dist = solve_heg(h, ctx);
    const HegResult cent = solve_heg_centralized(h);
    EXPECT_EQ(dist.complete, cent.complete) << "seed " << seed;
    EXPECT_TRUE(is_valid_heg(h, dist, dist.complete));
    EXPECT_GT(ledger.total(), 0);
  }
}

TEST(Heg, SinklessOrientationViaHeg) {
  // Rank-2 HEG on a 3-regular graph == sinkless orientation: every vertex
  // grabs (orients outward) one incident edge, no edge claimed twice.
  const Graph g = random_regular(128, 3, 5);
  Hypergraph h;
  h.num_vertices = static_cast<int>(g.num_nodes());
  for (const auto& [u, v] : g.edges())
    h.edges.push_back({static_cast<int>(u), static_cast<int>(v)});
  h.build_incidence();
  EXPECT_EQ(h.rank(), 2);
  EXPECT_EQ(h.min_degree(), 3);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult r = solve_heg(h, ctx);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r));
}

TEST(Heg, InfeasibleInstanceReportsIncomplete) {
  // Two vertices, one shared hyperedge: only one can grab it.
  Hypergraph h;
  h.num_vertices = 2;
  h.edges = {{0, 1}};
  h.build_incidence();
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult r = solve_heg(h, ctx);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r, /*require_complete=*/false));
  EXPECT_FALSE(solve_heg_centralized(h).complete);
}

TEST(Heg, ValidityCheckerCatchesBadGrabs) {
  Hypergraph h;
  h.num_vertices = 2;
  h.edges = {{0}, {1}, {0, 1}};
  h.build_incidence();
  HegResult r;
  r.grabbed_edge = {2, 2};  // double grab
  r.grabber = {-1, -1, 0};
  EXPECT_FALSE(is_valid_heg(h, r));
  r.grabbed_edge = {1, 2};  // vertex 0 not a member of edge 1
  EXPECT_FALSE(is_valid_heg(h, r));
  r.grabbed_edge = {0, 2};
  EXPECT_TRUE(is_valid_heg(h, r));
}

}  // namespace
}  // namespace deltacolor
