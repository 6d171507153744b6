// Tests for Kuhn-Wattenhofer color reduction and the schedule coloring it
// enables (Linial -> Delta+1 classes), and the divide-free arithmetic of
// the Linial step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/ledger.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(cycle_graph(33));
  gs.push_back(complete_graph(10));
  gs.push_back(torus_grid(7, 8));
  gs.push_back(random_regular(128, 6, 4));
  gs.push_back(random_graph(96, 0.08, 5));
  gs.push_back(random_tree(150, 6));
  return gs;
}

TEST(FastDiv, MatchesHardwareDivideAndModulo) {
  const std::uint64_t max = ~std::uint64_t{0};
  std::uint64_t rng = 17;
  for (const std::uint64_t q : {2ull, 3ull, 37ull, 65537ull, 4294967291ull}) {
    const detail::FastDiv div(q);
    std::vector<std::uint64_t> as = {0, q - 1, q, q * q, max, max - 1,
                                     max / q * q, max / q * q - 1};
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t r = splitmix64(rng);
      as.push_back(r);
      as.push_back(r >> (r % 64));  // small magnitudes too
    }
    for (const std::uint64_t a : as) {
      const auto [quot, rem] = div.divmod(a);
      ASSERT_EQ(quot, a / q) << "a=" << a << " q=" << q;
      ASSERT_EQ(rem, a % q) << "a=" << a << " q=" << q;
      ASSERT_EQ(div.mod(a), a % q) << "a=" << a << " q=" << q;
    }
  }
}

TEST(KwReduce, ReachesDeltaPlusOneEverywhere) {
  for (const Graph& g : family()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult lin = linial_coloring(g, ctx);
    const int target = g.max_degree() + 1;
    const LinialResult red =
        kw_reduce(g, lin.color, lin.num_colors, target, ctx);
    EXPECT_LE(red.num_colors, target);
    EXPECT_TRUE(is_proper_coloring(g, red.color, target))
        << "n=" << g.num_nodes() << " Delta=" << g.max_degree();
  }
}

TEST(KwReduce, IdentityWhenAlreadyAtTarget) {
  Graph g = cycle_graph(12);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  std::vector<Color> c(12);
  for (NodeId v = 0; v < 12; ++v) c[v] = v % 3;
  const LinialResult red = kw_reduce(g, c, 3, 3, ctx);
  EXPECT_EQ(red.rounds, 0);
  EXPECT_EQ(red.color, c);
}

TEST(KwReduce, RejectsTargetBelowDeltaPlusOne) {
  Graph g = complete_graph(4);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  std::vector<Color> c = {0, 1, 2, 3};
  EXPECT_THROW(kw_reduce(g, c, 4, 3, ctx), std::logic_error);
}

TEST(KwReduce, RoundsAreDeltaLogShaped) {
  // Rounds ~ target * #stages with #stages ~ log(k / target).
  Graph g = random_regular(256, 8, 9);
  g.set_ids(shuffled_ids(256, 10));
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult lin = linial_coloring(g, ctx);
  const int target = 9;
  const LinialResult red =
      kw_reduce(g, lin.color, lin.num_colors, target, ctx);
  const int stages =
      static_cast<int>(std::ceil(std::log2(
          static_cast<double>(lin.num_colors) / target))) + 1;
  EXPECT_LE(red.rounds, target * (stages + 1));
  EXPECT_TRUE(is_proper_coloring(g, red.color, target));
}

TEST(KwReduce, TargetAboveDeltaPlusOneAllowed) {
  Graph g = random_regular(64, 4, 2);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult lin = linial_coloring(g, ctx);
  const LinialResult red =
      kw_reduce(g, lin.color, lin.num_colors, 12, ctx);
  EXPECT_LE(red.num_colors, 12);
  EXPECT_TRUE(is_proper_coloring(g, red.color, 12));
}

TEST(ScheduleColoring, DeltaPlusOneClassesLogStarRounds) {
  for (const Graph& g : family()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult sch = schedule_coloring(g, ctx);
    EXPECT_LE(sch.num_colors, g.max_degree() + 1);
    EXPECT_TRUE(is_proper_coloring(g, sch.color,
                                   std::max(1, g.max_degree() + 1)));
    // O(Delta log Delta + log* n): generous numeric cap.
    const int delta = std::max(1, g.max_degree());
    EXPECT_LE(sch.rounds, delta * (8 + 2 * static_cast<int>(
                                            std::log2(delta + 1))) +
                              4 * log_star(g.num_nodes()) + 32);
  }
}

TEST(ScheduleColoring, EmptyGraph) {
  Graph g(0, {});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult sch = schedule_coloring(g, ctx);
  EXPECT_EQ(sch.num_colors, 1);
}

}  // namespace
}  // namespace deltacolor
