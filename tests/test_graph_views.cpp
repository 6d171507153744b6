// Lazy GraphView parity tests: every view (InducedSubgraphView,
// PowerGraphView, LineGraphView) must enumerate exactly the adjacency of
// its eager materializer oracle (induced_subgraph, and power_graph /
// line_graph from derived_graphs.hpp), with matching degrees, identifiers,
// and dilation — and view-generic primitives must produce identical
// results on the view and on the materialized graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_support/workloads.hpp"
#include "derived_graphs.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/subgraph.hpp"
#include "local/context.hpp"
#include "primitives/ruling_set.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(cycle_graph(31));
  gs.push_back(random_regular(200, 5, 3));
  gs.push_back(random_graph(150, 0.06, 4));
  gs.push_back(bench::hard_instance(16, 12, 8).graph);
  return gs;
}

template <typename ViewT>
std::vector<NodeId> sorted_view_neighbors(const ViewT& view, NodeId v) {
  std::vector<NodeId> nbrs;
  view.for_each_neighbor(v, [&](NodeId u) { nbrs.push_back(u); });
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

std::vector<NodeId> sorted_graph_neighbors(const Graph& g, NodeId v) {
  const auto span = g.neighbors(v);
  std::vector<NodeId> nbrs(span.begin(), span.end());
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

TEST(GraphViews, InducedSubgraphViewMatchesMaterializedOracle) {
  for (const Graph& g : family()) {
    // Every third node, deliberately unsorted and with duplicates.
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < g.num_nodes(); v += 3) nodes.push_back(v);
    std::reverse(nodes.begin(), nodes.end());
    if (!nodes.empty()) nodes.push_back(nodes.front());

    const Subgraph oracle = induced_subgraph(g, nodes);
    const InducedSubgraphView view(g, nodes);

    ASSERT_EQ(view.num_nodes(), oracle.graph.num_nodes());
    EXPECT_EQ(view.max_degree(), oracle.graph.max_degree());
    EXPECT_EQ(view.dilation(), 1);
    for (NodeId i = 0; i < view.num_nodes(); ++i) {
      EXPECT_EQ(view.orig_of(i), oracle.orig_of[i]);
      EXPECT_EQ(view.id(i), oracle.graph.id(i));
      EXPECT_EQ(view.degree(i), oracle.graph.degree(i));
      EXPECT_EQ(sorted_view_neighbors(view, i),
                sorted_graph_neighbors(oracle.graph, i));
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(view.sub_of(v), oracle.sub_of[v]);
  }
}

TEST(GraphViews, PowerGraphViewMatchesMaterializedOracle) {
  for (const Graph& g : family()) {
    for (const int r : {1, 2, 3}) {
      const Graph oracle = power_graph(g, r);
      const PowerGraphView view(g, r);

      ASSERT_EQ(view.num_nodes(), oracle.num_nodes());
      EXPECT_EQ(view.max_degree(), oracle.max_degree());
      EXPECT_EQ(view.dilation(), r);
      for (NodeId v = 0; v < view.num_nodes(); ++v) {
        EXPECT_EQ(view.id(v), g.id(v));
        EXPECT_EQ(view.degree(v), oracle.degree(v));
        EXPECT_EQ(sorted_view_neighbors(view, v),
                  sorted_graph_neighbors(oracle, v));
      }
    }
  }
}

TEST(GraphViews, LineGraphViewMatchesMaterializedOracle) {
  for (const Graph& g : family()) {
    const Graph oracle = line_graph(g);
    const LineGraphView view(g);

    ASSERT_EQ(view.num_nodes(), oracle.num_nodes());
    // The view reports the structural bound 2*Delta - 2; the materialized
    // line graph's max degree can only be tighter.
    EXPECT_GE(view.max_degree(), oracle.max_degree());
    EXPECT_EQ(view.dilation(), 2);
    for (NodeId e = 0; e < view.num_nodes(); ++e) {
      EXPECT_EQ(view.id(e), oracle.id(e));
      EXPECT_EQ(view.degree(e), oracle.degree(e));
      EXPECT_EQ(sorted_view_neighbors(view, e),
                sorted_graph_neighbors(oracle, e));
    }
  }
}

// View-generic primitive parity: the bit-peeling ruling set run on the
// lazy power view must select exactly the set it selects on the
// materialized power graph (identifiers and degrees agree, so the Linial
// labels and every peel decision agree).
TEST(GraphViews, RulingSetOnLazyPowerViewMatchesMaterialized) {
  for (const Graph& g : family()) {
    for (const int r : {2, 3}) {
      RoundLedger lazy_ledger;
      LocalContext lazy_ctx(lazy_ledger);
      const RulingSetResult lazy = ruling_set_power(g, r, lazy_ctx);

      RoundLedger mat_ledger;
      LocalContext mat_ctx(mat_ledger);
      const Graph pg = power_graph(g, r);
      const RulingSetResult mat = ruling_set(pg, mat_ctx);

      EXPECT_EQ(lazy.in_set, mat.in_set);
      // Virtual rounds agree; the lazy run charges them dilated by r.
      EXPECT_EQ(lazy_ledger.total(), r * mat_ledger.total());
      EXPECT_EQ(lazy.domination_radius, r * mat.domination_radius);
    }
  }
}

}  // namespace
}  // namespace deltacolor
