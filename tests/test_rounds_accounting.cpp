// Tests for the round-accounting contracts: the edge coloring that backs
// the matching subroutines, and the n-(in)dependence shape of every
// pipeline phase that Lemma 18's decomposition predicts.
#include <gtest/gtest.h>

#include "bench_support/workloads.hpp"
#include "core/delta_coloring.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "primitives/linial.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/maximal_matching.hpp"
#include "randomized/randomized_coloring.hpp"

namespace deltacolor {
namespace {

TEST(EdgeColoring, ProperOnFamilies) {
  std::vector<Graph> gs;
  gs.push_back(path_graph(20));
  gs.push_back(complete_graph(7));
  gs.push_back(torus_grid(5, 5));
  gs.push_back(random_regular(64, 5, 3));
  gs.push_back(bench::hard_instance(12, 10, 4).graph);
  for (const Graph& g : gs) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult ec = linial_edge_coloring(g, ctx);
    ASSERT_EQ(ec.color.size(), g.num_edges());
    // Properness on the line graph: incident edges differ in color.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto inc = g.incident_edges(v);
      for (std::size_t i = 0; i < inc.size(); ++i)
        for (std::size_t j = i + 1; j < inc.size(); ++j)
          EXPECT_NE(ec.color[inc[i]], ec.color[inc[j]])
              << "edges " << inc[i] << "," << inc[j] << " at " << v;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_GE(ec.color[e], 0);
      EXPECT_LT(ec.color[e], ec.num_colors);
    }
  }
}

TEST(EdgeColoring, EmptyGraph) {
  Graph g(4, {});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult ec = linial_edge_coloring(g, ctx);
  EXPECT_TRUE(ec.color.empty());
}

TEST(RoundAccounting, OnlyHegPhaseDependsOnN) {
  // Lemma 18: T_MM, T_SP, T_deg+1 are n-independent at fixed Delta (up to
  // the log* term, invisible at these sizes); T_HEG carries the log n.
  const auto small = bench::hard_instance(32, 16, 7);
  const auto large = bench::hard_instance(512, 16, 7);
  const auto rs = delta_color_dense(small.graph, scaled_options(16));
  const auto rl = delta_color_dense(large.graph, scaled_options(16));
  ASSERT_TRUE(rs.valid && rl.valid);
  for (const char* phase :
       {"acd", "loopholes", "phase2-split", "phase3-triads"}) {
    EXPECT_EQ(rs.ledger.phase_total(phase), rl.ledger.phase_total(phase))
        << phase;
  }
  // Matching and list-coloring phases may shift by a few rounds (log*
  // term, schedule size); bound the drift.
  for (const char* phase :
       {"phase1-matching", "phase4a-pairs", "phase4b-rest"}) {
    const auto a = rs.ledger.phase_total(phase);
    const auto b = rl.ledger.phase_total(phase);
    EXPECT_LE(std::abs(a - b), a / 2 + 32) << phase;
  }
}

TEST(RoundAccounting, LedgerTotalsMatchPhaseSums) {
  const auto inst = bench::mixed_instance(24, 16, 0.2, 9);
  const auto res = delta_color_dense(inst.graph, scaled_options(16));
  ASSERT_TRUE(res.valid);
  std::int64_t sum = 0;
  for (const auto& [phase, rounds] : res.ledger.phases()) sum += rounds;
  EXPECT_EQ(sum, res.ledger.total());
  EXPECT_GT(res.ledger.phase_total("acd"), 0);
}

TEST(RoundAccounting, RandomizedAdversarialIds) {
  CliqueInstance inst = bench::hard_instance(24, 16, 5);
  std::vector<std::uint64_t> ids(inst.graph.num_nodes());
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    ids[v] = inst.graph.num_nodes() - 1 - v;
  inst.graph.set_ids(ids);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 3));
  EXPECT_TRUE(res.valid);
}

TEST(RoundAccounting, DeterministicIsSeedInvariantGivenIds) {
  // The deterministic pipeline must produce identical colorings across
  // runs (its only "seed" feeds the splitter's simulated chopping).
  const auto inst = bench::hard_instance(16, 12, 6);
  const auto r1 = delta_color_dense(inst.graph, scaled_options(12));
  const auto r2 = delta_color_dense(inst.graph, scaled_options(12));
  EXPECT_EQ(r1.color, r2.color);
  EXPECT_EQ(r1.ledger.total(), r2.ledger.total());
}

TEST(RoundAccounting, DilationFramesMultiplyAndBranchesTakeTheMax) {
  RoundLedger ledger;
  LocalContext ctx(ledger);
  {
    ScopedPhase outer(ctx, "outer", 3);
    ctx.charge(1);  // 1 x 3
    {
      ScopedPhase inner(ctx, "inner", 2);
      ctx.charge(1, 5);  // 1 x 5 x 2 x 3
    }
    ParallelBranches branches(ctx);
    for (const int rounds : {4, 9, 2}) {
      branches.next();
      ScopedPhase branch(ctx, "branch", 2);
      ctx.charge(rounds);  // into the branch, without outer's x3
    }
    const std::int64_t longest = branches.close();
    EXPECT_EQ(longest, 18);
    ctx.charge(longest);  // outer's x3 applies once
  }
  EXPECT_EQ(ledger.phase_total("outer"), 3 + 54);
  EXPECT_EQ(ledger.phase_total("inner"), 30);
  EXPECT_EQ(ledger.phases().size(), 2u) << "branch charges stay out";
  EXPECT_EQ(ledger.total(), 87);
}

/// Order-sensitive hash of a ledger's per-phase list: every label (zero-round
/// entries included) with its rounds, in first-charge order. Unlike a
/// total, it moves when a round moves from one phase to another.
std::uint64_t phases_hash(const RoundLedger& ledger) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const auto& [phase, rounds] : ledger.phases()) {
    for (const char c : phase) mix(static_cast<unsigned char>(c));
    mix(0);
    mix(static_cast<std::uint64_t>(rounds));
  }
  return h;
}

TEST(RoundAccounting, PhaseLedgersPinned) {
  struct Pin {
    const char* run;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {"det-hard", 0x88cc022c77b5847bULL},
      {"det-mixed", 0x86461567c0eedd49ULL},
      {"rand-shattered", 0x4bcf301c026bab83ULL},
      {"matching-det", 0x1c8705c28a4beb46ULL},
      {"matching-pr", 0xe5d6c21a58d5b90bULL},
      {"deg+1-list", 0x0d09c34fe74a94d6ULL},
  };
  const CliqueInstance hard = bench::hard_instance(64, 16, 3);
  const CliqueInstance mixed = bench::mixed_instance(64, 16, 0.25, 3);
  // The Randomized.PreshatteringPinnedOnBlowups point spacing=2, rounds=2,
  // which leaves two shattered components.
  const CliqueInstance shattered = bench::mixed_instance(256, 16, 0.25, 71);
  const Graph regular = random_regular(256, 8, 5);

  for (const int workers : {1, 4}) {
    const EngineOptions engine{workers};
    const auto ledger_of = [&](std::string_view run) -> RoundLedger {
      if (run == "det-hard" || run == "det-mixed") {
        DeltaColoringOptions opt = scaled_options(16);
        opt.engine = engine;
        auto res = delta_color_dense(
            run == "det-hard" ? hard.graph : mixed.graph, opt);
        EXPECT_TRUE(res.valid) << run;
        return std::move(res.ledger);
      }
      if (run == "rand-shattered") {
        RandomizedOptions opt = scaled_randomized_options(16, 13);
        opt.engine = engine;
        opt.spacing = 2;
        opt.placement_rounds = 2;
        auto res = randomized_delta_color(shattered.graph, opt);
        EXPECT_TRUE(res.valid);
        EXPECT_GE(res.stats.components, 1);
        return std::move(res.ledger);
      }
      RoundLedger ledger;
      LocalContext ctx(ledger, engine);
      if (run == "matching-det") {
        maximal_matching_deterministic(regular, ctx);
      } else if (run == "matching-pr") {
        maximal_matching_pr(regular, ctx);
      } else {
        std::vector<Color> color(regular.num_nodes(), kNoColor);
        deg_plus_one_list_color(regular, NodeMask(regular.num_nodes(), 1),
                                uniform_lists(regular, 9), color, ctx);
        EXPECT_TRUE(is_proper_coloring(regular, color, 9));
      }
      return ledger;
    };
    for (const Pin& pin : kPins) {
      const RoundLedger ledger = ledger_of(pin.run);
      EXPECT_EQ(phases_hash(ledger), pin.hash)
          << pin.run << " workers=" << workers << std::hex << " got 0x"
          << phases_hash(ledger) << "\n"
          << ledger.report();
    }
  }
}

}  // namespace
}  // namespace deltacolor
