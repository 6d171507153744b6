#include "derived_graphs.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.hpp"

namespace deltacolor {

Graph power_graph(const Graph& g, int r) {
  DC_CHECK(r >= 1);
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<int> dist(g.num_nodes(), -1);
  std::vector<NodeId> touched;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    // BFS to depth r from s; add edges s->t for t > s.
    std::queue<NodeId> q;
    dist[s] = 0;
    touched.push_back(s);
    q.push(s);
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop();
      if (dist[x] >= r) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        touched.push_back(y);
        q.push(y);
      }
    }
    for (const NodeId t : touched)
      if (t > s) edges.emplace_back(s, t);
    for (const NodeId t : touched) dist[t] = -1;
    touched.clear();
  }
  Graph pg(g.num_nodes(), std::move(edges));
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = g.id(v);
  pg.set_ids(std::move(ids));
  return pg;
}

Graph line_graph(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incident_edges(v);
    for (std::size_t i = 0; i < inc.size(); ++i)
      for (std::size_t j = i + 1; j < inc.size(); ++j)
        edges.emplace_back(std::min(inc[i], inc[j]),
                           std::max(inc[i], inc[j]));
  }
  Graph lg(g.num_edges(), std::move(edges));
  // Unique edge identifier: position of the edge in the host graph's sorted
  // edge list is already unique; fold in endpoint ids to stay unique under
  // arbitrary host identifier permutations.
  std::vector<std::uint64_t> ids(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const std::uint64_t a = std::min(g.id(u), g.id(v));
    const std::uint64_t b = std::max(g.id(u), g.id(v));
    ids[e] = a * (2 * static_cast<std::uint64_t>(g.num_nodes()) + 1) + b;
  }
  lg.set_ids(std::move(ids));
  return lg;
}

}  // namespace deltacolor
