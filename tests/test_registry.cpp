// Tests for the shared algorithm registry: lookup, the did-you-mean
// suggestions dcolor prints for unknown names, and the run contract the
// CLI and the benches both rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bench_support/workloads.hpp"
#include "graph/checker.hpp"
#include "registry/registry.hpp"

namespace deltacolor {
namespace {

TEST(Registry, FindsEveryRegisteredName) {
  for (const AlgorithmEntry& e : algorithm_registry()) {
    const AlgorithmEntry* found = find_algorithm(e.name);
    ASSERT_NE(found, nullptr) << e.name;
    EXPECT_EQ(found->name, e.name);
    EXPECT_FALSE(found->description.empty()) << e.name;
  }
}

TEST(Registry, UnknownNamesReturnNull) {
  EXPECT_EQ(find_algorithm("no-such-algorithm"), nullptr);
  EXPECT_EQ(find_algorithm(""), nullptr);
  EXPECT_EQ(find_algorithm("DET"), nullptr);  // lookups are case-sensitive
}

TEST(Registry, SuggestsCloseNamesForTypos) {
  const auto det = suggest_algorithms("detr");
  ASSERT_FALSE(det.empty());
  EXPECT_EQ(det.front(), "det");

  const auto matching = suggest_algorithms("matchng");
  ASSERT_FALSE(matching.empty());
  EXPECT_EQ(matching.front(), "matching");

  const auto mis = suggest_algorithms("mis-dt");
  ASSERT_FALSE(mis.empty());
  EXPECT_EQ(mis.front(), "mis-det");
}

TEST(Registry, DoesNotSuggestForGibberish) {
  EXPECT_TRUE(suggest_algorithms("qqqqqqqqqqqqqqqq").empty());
}

TEST(Registry, SuggestionsRespectMaxResults) {
  EXPECT_LE(suggest_algorithms("m", 2).size(), 2u);
}

TEST(Registry, RunProducesValidatedResults) {
  const Graph g = bench::hard_instance(16, 8, 9).graph;
  for (const AlgorithmEntry& e : algorithm_registry()) {
    AlgorithmRequest req;
    req.seed = 11;
    const AlgorithmResult res = e.run(g, req);
    EXPECT_TRUE(res.ok) << e.name;
    EXPECT_FALSE(res.summary.empty()) << e.name;
    // Every entry yields a coloring or a set; never neither.
    EXPECT_TRUE(!res.color.empty() || !res.in_set.empty()) << e.name;
    if (!res.color.empty() && res.palette > 0) {
      EXPECT_TRUE(is_proper_coloring(g, res.color, res.palette)) << e.name;
    }
  }
}

TEST(Registry, BenchHelperResolvesByName) {
  const Graph g = bench::hard_instance(8, 6, 2).graph;
  const AlgorithmResult res = bench::run_registered("greedy", g);
  EXPECT_TRUE(res.ok);
  EXPECT_GT(res.ledger.total(), 0);
}

}  // namespace
}  // namespace deltacolor
