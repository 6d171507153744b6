// Tests for the almost-clique decomposition (Lemma 2) and loophole
// detection (Definition 6 / Definition 8 support).
#include <gtest/gtest.h>

#include "acd/acd.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "common/rng.hpp"
#include "local/ledger.hpp"

namespace deltacolor {
namespace {

CliqueInstance blowup(int cliques, int delta, int s, double easy = 0.0,
                      std::uint64_t seed = 3) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = s;
  opt.easy_fraction = easy;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

AcdParams params_for(int delta) {
  // epsilon * Delta >= 2 keeps degree-(Delta-1) loophole vertices inside
  // their almost clique (Lemma 2 (ii)); the paper's 1/63 assumes Delta
  // large enough, so moderate-Delta instances scale epsilon up.
  AcdParams p;
  p.epsilon = std::max(kAcdEpsilon, 2.5 / delta);
  return p;
}

// --- ACD ----------------------------------------------------------------------

TEST(Acd, RecoversGroundTruthCliques) {
  const CliqueInstance inst = blowup(24, 16, 16);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), static_cast<int>(inst.cliques.size()));
  // Every ground-truth clique must be one AC.
  for (const auto& clique : inst.cliques) {
    const int c = acd.clique_of[clique.front()];
    ASSERT_NE(c, -1);
    for (const NodeId v : clique) EXPECT_EQ(acd.clique_of[v], c);
  }
  EXPECT_TRUE(validate_acd(inst.graph, acd).empty());
}

TEST(Acd, ValidOnLemma2TermsAtPaperEpsilon) {
  // Delta = 63 is the smallest maximum degree at which exact
  // Delta-cliques satisfy Lemma 2 (ii) with the paper's epsilon = 1/63.
  const CliqueInstance inst = blowup(8, 63, 63);
  RoundLedger ledger;
  AcdParams p;  // defaults: epsilon = 1/63
  const Acd acd = compute_acd(inst.graph, ledger, p);
  EXPECT_TRUE(acd.is_dense());
  const auto violations = validate_acd(inst.graph, acd);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(Acd, EasifiedCliquesStayInDecomposition) {
  const CliqueInstance inst = blowup(20, 16, 16, /*easy=*/0.3);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), static_cast<int>(inst.cliques.size()));
}

TEST(Acd, SparseGraphClassifiedSparse) {
  Graph g = random_regular(128, 6, 9);
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_FALSE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), 0);
  EXPECT_EQ(acd.sparse.size(), g.num_nodes());
}

TEST(Acd, TreeIsAllSparse) {
  Graph g = random_tree(100, 4);
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_FALSE(acd.is_dense());
}

TEST(Acd, EmptyGraph) {
  Graph g(0, {});
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), 0);
}

TEST(Acd, ChargesConstantRounds) {
  const CliqueInstance small = blowup(12, 12, 12);
  const CliqueInstance large = blowup(48, 12, 12);
  RoundLedger l1, l2;
  compute_acd(small.graph, l1, params_for(12));
  compute_acd(large.graph, l2, params_for(12));
  EXPECT_EQ(l1.total(), l2.total());  // O(1) rounds, independent of n
}

// Order-sensitive FNV-1a hash of an ACD's clique assignment.
std::uint64_t clique_hash(const Acd& acd) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int c : acd.clique_of)
    h = (h ^ static_cast<std::uint64_t>(c + 1)) * 1099511628211ULL;
  return h;
}

// A hard blow-up with about 1/32 of its edges dropped and n/64 random edges
// added: cliques that are only nearly cliques, with noise between them.
Graph perturbed_blowup(std::uint64_t seed) {
  const CliqueInstance inst = blowup(24, 16, 16, 0.0, seed);
  const Graph& g = inst.graph;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (hash_mix(seed, e, 0) % 32 != 0) edges.push_back(g.endpoints(e));
  std::uint64_t rng = seed;
  for (NodeId i = 0; i < g.num_nodes() / 64; ++i) {
    const NodeId a = static_cast<NodeId>(splitmix64(rng) % g.num_nodes());
    const NodeId b = static_cast<NodeId>(splitmix64(rng) % g.num_nodes());
    if (a != b) edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  return Graph(g.num_nodes(), std::move(edges));
}

// Pins compute_acd's clique assignment on three seeded instances (hashes
// recorded before friend-edge marking moved from per-edge sorted merges to
// per-node neighbor stamps), so a rewrite of the marking loop must
// reproduce the decomposition exactly.
TEST(Acd, CliqueAssignmentPinnedOnSeededInstances) {
  struct Case {
    const char* name;
    Graph graph;
    AcdParams params;
    int cliques;
    std::size_t sparse;
    std::uint64_t hash;
  };
  const auto eps = [](double e) {
    AcdParams p;
    p.epsilon = e;
    return p;
  };
  const Case cases[] = {
      {"blowup-25%-easy", blowup(32, 16, 16, 0.25, 5).graph, params_for(16),
       32, 0, 9628916773060306563ULL},
      {"perturbed-blowup", perturbed_blowup(9), eps(0.4), 29, 48,
       7075330134639124307ULL},
      {"gnp", random_graph(120, 0.93, 11), eps(0.2), 1, 1,
       5141094873153652636ULL},
  };
  for (const Case& c : cases) {
    RoundLedger ledger;
    const Acd acd = compute_acd(c.graph, ledger, c.params);
    EXPECT_EQ(acd.num_cliques(), c.cliques) << c.name;
    EXPECT_EQ(acd.sparse.size(), c.sparse) << c.name;
    EXPECT_EQ(clique_hash(acd), c.hash) << c.name;
  }
}

// --- loophole validity checker ---------------------------------------------------

TEST(Loopholes, ValidityChecker) {
  // Path: middle vertex has deg 2 = Delta, ends have deg 1 < Delta.
  Graph p = path_graph(3);
  EXPECT_TRUE(is_valid_loophole(p, Loophole{{0}}));
  EXPECT_FALSE(is_valid_loophole(p, Loophole{{1}}));

  // C4 is a non-clique 4-cycle.
  Graph c4 = cycle_graph(4);
  EXPECT_TRUE(is_valid_loophole(c4, Loophole{{0, 1, 2, 3}}));
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 2, 1, 3}}));  // non-cycle
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 1, 2}}));     // odd

  // K4 contains 4-cycles but they induce cliques: not loopholes.
  Graph k4 = complete_graph(4);
  EXPECT_FALSE(is_valid_loophole(k4, Loophole{{0, 1, 2, 3}}));

  // Duplicated vertices rejected.
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 1, 0, 1}}));
}

// --- brute-force detector ---------------------------------------------------------

TEST(Loopholes, BruteForceOnEvenCycle) {
  Graph g = cycle_graph(6);  // Delta = 2; the whole 6-cycle is a loophole
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_TRUE(set.vertex_in_loophole(v));
}

TEST(Loopholes, BruteForceOnOddCycle) {
  Graph g = cycle_graph(7);  // odd cycle: no loophole anywhere
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_FALSE(set.vertex_in_loophole(v));
  EXPECT_TRUE(set.loopholes.empty());
}

TEST(Loopholes, BruteForceOnCompleteGraph) {
  Graph g = complete_graph(6);  // K6: Delta = 5, no loopholes
  const auto set = find_loopholes_bruteforce(g);
  EXPECT_TRUE(set.loopholes.empty());
}

TEST(Loopholes, BruteForceFindsDegreeLoopholes) {
  Graph g = star_graph(5);  // leaves have degree 1 < Delta = 5
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_TRUE(set.vertex_in_loophole(v));
}

TEST(Loopholes, AllDetectedLoopholesAreValid) {
  Graph g = random_graph(40, 0.2, 12);
  const auto set = find_loopholes_bruteforce(g);
  for (const auto& l : set.loopholes) EXPECT_TRUE(is_valid_loophole(g, l));
}

// --- dense detector vs ground truth -----------------------------------------------

TEST(Loopholes, DenseDetectorFindsNothingOnHardInstance) {
  const CliqueInstance inst = blowup(24, 16, 16);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  EXPECT_TRUE(set.loopholes.empty())
      << "hard instance must have no <=6-vertex loopholes";
}

TEST(Loopholes, DenseDetectorFlagsEasifiedCliques) {
  const CliqueInstance inst = blowup(20, 16, 16, /*easy=*/0.4, 8);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  for (std::size_t c = 0; c < inst.cliques.size(); ++c) {
    bool has_loophole_vertex = false;
    for (const NodeId v : inst.cliques[c])
      if (set.vertex_in_loophole(v)) has_loophole_vertex = true;
    EXPECT_EQ(has_loophole_vertex, static_cast<bool>(inst.easified[c]))
        << "clique " << c;
  }
  for (const auto& l : set.loopholes)
    EXPECT_TRUE(is_valid_loophole(inst.graph, l));
}

TEST(Loopholes, DenseAgreesWithBruteForceOnSmallInstances) {
  // The dense detector records *witness* loopholes (one per structural
  // cause), so the correct agreement granularity is: (1) every dense-flagged
  // vertex is brute-flagged, and (2) per almost clique, "intersects some
  // loophole" coincides — that is what hard/easy classification consumes.
  for (const double easy : {0.0, 0.25, 0.5}) {
    const CliqueInstance inst = blowup(10, 10, 10, easy, 21);
    RoundLedger ledger;
    const Acd acd = compute_acd(inst.graph, ledger, params_for(10));
    ASSERT_TRUE(acd.is_dense()) << "easy_fraction " << easy;
    const auto dense = find_loopholes_dense(inst.graph, acd, ledger);
    const auto brute = find_loopholes_bruteforce(inst.graph);
    for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
      EXPECT_LE(dense.vertex_in_loophole(v), brute.vertex_in_loophole(v))
          << "vertex " << v << " easy_fraction " << easy;
    for (int c = 0; c < acd.num_cliques(); ++c) {
      bool dense_hit = false, brute_hit = false;
      for (const NodeId v : acd.cliques[static_cast<std::size_t>(c)]) {
        dense_hit |= dense.vertex_in_loophole(v);
        brute_hit |= brute.vertex_in_loophole(v);
      }
      EXPECT_EQ(dense_hit, brute_hit)
          << "AC " << c << " easy_fraction " << easy;
    }
  }
}

TEST(Loopholes, CliqueRingIsEasyEverywhere) {
  const CliqueInstance inst = clique_ring(8, 6);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(6));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  // Each clique has s-2 vertices of degree < Delta: all flagged.
  int flagged = 0;
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    if (set.vertex_in_loophole(v)) ++flagged;
  EXPECT_GE(flagged, 8 * (6 - 2));
}

// Order-sensitive FNV-1a hash of a loophole set: every witness's vertex
// list in detection order, then vote_of.
std::uint64_t loophole_hash(const LoopholeSet& set) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  for (const Loophole& l : set.loopholes) {
    mix(l.vertices.size());
    for (const NodeId v : l.vertices) mix(v);
  }
  for (const int idx : set.vote_of) mix(static_cast<std::uint64_t>(idx + 1));
  return h;
}

// Fourteen K9s (Delta = 10) whose cross edges give single vertices two
// cross edges, so that every case of the dense detector fires: AC pairs
// linked by two and by three cross edges (d), an AC triangle (e), a 4-cycle
// of cross edges through four ACs (f), an outsider with two neighbors in
// one AC (c) and a K9 with one edge removed (b). Vertices with fewer than
// two cross edges have degree < Delta (a).
Graph cross_linked_cliques() {
  constexpr int kSize = 9;
  const auto v = [](int clique, int i) {
    return static_cast<NodeId>(clique * kSize + i);
  };
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int c = 0; c < 14; ++c)
    for (int i = 0; i < kSize; ++i)
      for (int j = i + 1; j < kSize; ++j)
        if (c != 13 || i != 0 || j != 1) edges.emplace_back(v(c, i), v(c, j));
  const int cross[][4] = {
      {0, 0, 1, 0}, {0, 1, 1, 1},                 // (d), two edges
      {2, 0, 3, 0}, {2, 1, 3, 1}, {2, 2, 3, 2},   // (d), three edges
      {4, 0, 5, 0}, {5, 1, 6, 0}, {6, 1, 4, 1},   // (e)
      {7, 0, 8, 0}, {8, 0, 9, 0}, {9, 0, 10, 0}, {10, 0, 7, 0},  // (f)
      {11, 0, 12, 0}, {11, 0, 12, 1},             // (c)
  };
  for (const auto& e : cross) edges.emplace_back(v(e[0], e[1]), v(e[2], e[3]));
  return Graph(14 * kSize, std::move(edges));
}

// Pins find_loopholes_dense's output (witnesses, their order and vote_of)
// on seeded instances; the hashes were recorded before the detector's
// bookkeeping moved from ordered maps to flat arrays, so a rewrite must keep
// the order contract of loopholes.hpp exactly.
TEST(Loopholes, DenseDetectorPinnedOnSeededInstances) {
  struct Case {
    const char* name;
    Graph graph;
    AcdParams params;
    std::size_t loopholes;
    std::uint64_t hash;
  };
  AcdParams eps04;
  eps04.epsilon = 0.4;
  const Case cases[] = {
      {"hard-blowup", blowup(32, 16, 16, 0.0, 5).graph, params_for(16), 0,
       2413988172825303939ULL},
      {"blowup-25%-easy", blowup(32, 16, 16, 0.25, 5).graph, params_for(16),
       24, 4752808649405997600ULL},
      {"perturbed-blowup-9", perturbed_blowup(9), eps04, 555,
       11389214465147755951ULL},
      {"perturbed-blowup-13", perturbed_blowup(13), eps04, 588,
       2212219168930945048ULL},
      {"clique-ring", clique_ring(8, 6).graph, params_for(6), 32,
       5595561768249116099ULL},
      {"cross-linked-cliques", cross_linked_cliques(), eps04, 127,
       2528567834969248549ULL},
  };
  for (const Case& c : cases) {
    RoundLedger ledger;
    const Acd acd = compute_acd(c.graph, ledger, c.params);
    const LoopholeSet set = find_loopholes_dense(c.graph, acd, ledger);
    EXPECT_EQ(set.loopholes.size(), c.loopholes) << c.name;
    EXPECT_EQ(loophole_hash(set), c.hash) << c.name;
  }
}

// --- Lemma 9 runtime checks -----------------------------------------------

// The DC_CHECK message classify_hardness throws when every AC of `acd` is
// declared hard (no loopholes), or "" if it returns.
std::string lemma9_failure(const Graph& g,
                           std::vector<std::vector<NodeId>> cliques) {
  Acd acd;
  acd.clique_of.assign(g.num_nodes(), -1);
  for (std::size_t c = 0; c < cliques.size(); ++c)
    for (const NodeId v : cliques[c]) acd.clique_of[v] = static_cast<int>(c);
  acd.cliques = std::move(cliques);
  LoopholeSet none;
  none.vote_of.assign(g.num_nodes(), -1);
  try {
    classify_hardness(g, acd, none);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

TEST(Hardness, Lemma9RejectsNonCliqueHardAc) {
  // {0, 1, 2, 3} lacks edge 0-1; 0 and 1 make up degree Delta = 3 outside.
  const Graph g(6, {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4}, {1, 5}});
  const std::string msg = lemma9_failure(g, {{0, 1, 2, 3}});
  EXPECT_TRUE(contains(msg, "hard AC 0 is not a clique at member 0")) << msg;
}

TEST(Hardness, Lemma9RejectsHardMemberBelowDelta) {
  // A K4 beside a star of degree Delta = 4.
  const Graph g(9, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                    {4, 5}, {4, 6}, {4, 7}, {4, 8}});
  const std::string msg = lemma9_failure(g, {{0, 1, 2, 3}});
  EXPECT_TRUE(contains(msg, "hard clique member 0 has degree 3 != 4")) << msg;
}

TEST(Hardness, Lemma9RejectsOutsiderWithTwoNeighborsInside) {
  // Outsider 4 sees 0 and 1 of the K4; every member has degree Delta = 4.
  const Graph g(7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                    {4, 0}, {4, 1}, {2, 5}, {3, 6}});
  const std::string msg = lemma9_failure(g, {{0, 1, 2, 3}});
  EXPECT_TRUE(contains(msg, "outsider 4 has two neighbors in hard clique 0"))
      << msg;
  // The same K4 with the outsider's second edge rerouted passes.
  const Graph ok(8, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                     {4, 0}, {7, 1}, {2, 5}, {3, 6}});
  EXPECT_EQ(lemma9_failure(ok, {{0, 1, 2, 3}}), "");
}

}  // namespace
}  // namespace deltacolor
