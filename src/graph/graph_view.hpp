// Lazy graph views: uniform read-only access to the host graph and to the
// derived graphs the paper's subroutines run on (induced subgraphs, power
// graphs G^r, line graphs), without materializing edge sets.
//
// The GraphView concept is the contract every view-generic subroutine
// (linial_reduce, kw_reduce, schedule_coloring, ruling_set, SyncRunner)
// compiles against:
//
//   num_nodes()              node count of the view
//   degree(v) / max_degree() degrees *in the view*
//   id(v)                    unique LOCAL identifier of view node v
//   for_each_neighbor(v, fn) fn(u) for every view-neighbor u of v,
//                            each exactly once, u != v
//   dilation()               real communication rounds needed to simulate
//                            one synchronous round of the view on the host
//                            network (1 for the host and induced subgraphs,
//                            r for G^r, 2 for the line graph)
//
// A host Graph models the concept itself (dilation 1), so subroutines take
// "const ViewT&" and run unchanged on real and virtual graphs. Laziness
// means no view stores an adjacency structure: neighbor enumeration walks
// the host CSR on demand (induced/line views) or runs a bounded BFS
// (power view). Construction is O(n) memory for the node-indexed arrays
// (mappings, exact degrees) — never O(edges-of-the-view).
//
// The eager materializers (induced_subgraph in graph/subgraph.hpp;
// power_graph and line_graph in the test suite) serve as test oracles:
// tests assert that each view enumerates exactly the materialized
// adjacency.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

namespace detail {
struct NeighborProbe {
  void operator()(NodeId) const {}
};
}  // namespace detail

template <typename G>
concept GraphView =
    requires(const G& g, NodeId v, detail::NeighborProbe probe) {
      { g.num_nodes() } -> std::convertible_to<NodeId>;
      { g.degree(v) } -> std::convertible_to<int>;
      { g.max_degree() } -> std::convertible_to<int>;
      { g.id(v) } -> std::convertible_to<std::uint64_t>;
      { g.dilation() } -> std::convertible_to<int>;
      g.for_each_neighbor(v, probe);
    };

static_assert(GraphView<Graph>);

/// View of the subgraph induced by a node set. Nodes are re-indexed
/// 0..k-1 in ascending host order (the same mapping induced_subgraph()
/// produces, so schedules computed on the view are interchangeable with
/// the materialized oracle). Identifiers are inherited from the host.
class InducedSubgraphView {
 public:
  /// `nodes` need not be sorted or unique. O(n + sum of host degrees).
  InducedSubgraphView(const Graph& host, const std::vector<NodeId>& nodes);

  NodeId num_nodes() const { return static_cast<NodeId>(orig_of_.size()); }
  int degree(NodeId i) const { return degree_[i]; }
  int max_degree() const { return max_degree_; }
  std::uint64_t id(NodeId i) const { return host_->id(orig_of_[i]); }
  static constexpr int dilation() { return 1; }

  /// View node -> host node (ascending in the view index).
  NodeId orig_of(NodeId i) const { return orig_of_[i]; }
  /// Host node -> view node, kNoNode if the host node is not in the view.
  NodeId sub_of(NodeId host_v) const { return sub_of_[host_v]; }

  template <typename Fn>
  void for_each_neighbor(NodeId i, Fn&& fn) const {
    for (const NodeId u : host_->neighbors(orig_of_[i])) {
      const NodeId j = sub_of_[u];
      if (j != kNoNode) fn(j);
    }
  }

 private:
  const Graph* host_;
  std::vector<NodeId> orig_of_;  // sorted ascending, unique
  std::vector<NodeId> sub_of_;   // size host n
  std::vector<int> degree_;      // exact view degrees
  int max_degree_ = 0;
};

static_assert(GraphView<InducedSubgraphView>);

/// View of the power graph G^r: same nodes as the host, u ~ v iff
/// 0 < dist_G(u, v) <= r. Neighbor enumeration is a depth-r BFS from the
/// query node (no edges are stored); exact view degrees are precomputed at
/// construction. One G^r round costs r host rounds, so dilation() == r.
class PowerGraphView {
 public:
  PowerGraphView(const Graph& host, int radius);

  NodeId num_nodes() const { return host_->num_nodes(); }
  int degree(NodeId v) const { return degree_[v]; }
  int max_degree() const { return max_degree_; }
  std::uint64_t id(NodeId v) const { return host_->id(v); }
  int dilation() const { return radius_; }
  int radius() const { return radius_; }

  /// BFS order; each ball member enumerated exactly once, source excluded.
  template <typename Fn>
  void for_each_neighbor(NodeId s, Fn&& fn) const {
    // Per-thread scratch so concurrent engine workers do not collide; the
    // touched-list reset keeps a query O(ball size), not O(n).
    thread_local std::vector<int> dist;
    thread_local std::vector<NodeId> queue;
    thread_local std::vector<NodeId> touched;
    if (dist.size() < host_->num_nodes())
      dist.assign(host_->num_nodes(), -1);
    queue.clear();
    touched.clear();
    dist[s] = 0;
    touched.push_back(s);
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      if (dist[x] >= radius_) continue;
      for (const NodeId y : host_->neighbors(x)) {
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        touched.push_back(y);
        queue.push_back(y);
        fn(y);
      }
    }
    for (const NodeId t : touched) dist[t] = -1;
  }

 private:
  const Graph* host_;
  int radius_;
  std::vector<int> degree_;  // exact ball sizes minus one
  int max_degree_ = 0;
};

static_assert(GraphView<PowerGraphView>);

/// View of the line graph L(G): one node per host EdgeId, adjacency iff
/// the edges share an endpoint. Identifiers match the line-graph oracle's
/// encoding of the endpoint identifier pair. max_degree() is the structural
/// bound 2*Delta(G) - 2 — computable without communication and the bound the
/// paper's dilation arguments (and the pre-existing edge-coloring palette
/// arithmetic) use; per-node degree(e) is exact. One line-graph round
/// dilates to 2 host rounds (the endpoints sync the edge state over the
/// edge), so dilation() == 2.
class LineGraphView {
 public:
  explicit LineGraphView(const Graph& host) : host_(&host) {}

  NodeId num_nodes() const { return static_cast<NodeId>(host_->num_edges()); }
  int degree(NodeId e) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    return host_->degree(u) + host_->degree(v) - 2;
  }
  int max_degree() const { return std::max(0, 2 * host_->max_degree() - 2); }
  std::uint64_t id(NodeId e) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    const std::uint64_t a = std::min(host_->id(u), host_->id(v));
    const std::uint64_t b = std::max(host_->id(u), host_->id(v));
    return a * (2 * static_cast<std::uint64_t>(host_->num_nodes()) + 1) + b;
  }
  static constexpr int dilation() { return 2; }

  /// Incident edges at both endpoints, excluding e itself. In a simple
  /// graph no other edge shares both endpoints, so each neighbor appears
  /// exactly once.
  template <typename Fn>
  void for_each_neighbor(NodeId e, Fn&& fn) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    for (const EdgeId f : host_->incident_edges(u))
      if (f != static_cast<EdgeId>(e)) fn(static_cast<NodeId>(f));
    for (const EdgeId f : host_->incident_edges(v))
      if (f != static_cast<EdgeId>(e)) fn(static_cast<NodeId>(f));
  }

 private:
  const Graph* host_;
};

static_assert(GraphView<LineGraphView>);

}  // namespace deltacolor
