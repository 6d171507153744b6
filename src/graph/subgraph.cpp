#include "graph/subgraph.hpp"

#include <algorithm>

namespace deltacolor {

Subgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& nodes) {
  Subgraph s;
  s.orig_of = nodes;
  std::sort(s.orig_of.begin(), s.orig_of.end());
  s.orig_of.erase(std::unique(s.orig_of.begin(), s.orig_of.end()),
                  s.orig_of.end());
  s.sub_of.assign(g.num_nodes(), kNoNode);
  for (NodeId i = 0; i < s.orig_of.size(); ++i)
    s.sub_of[s.orig_of[i]] = i;

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < s.orig_of.size(); ++i) {
    const NodeId host = s.orig_of[i];
    for (const NodeId nbr : g.neighbors(host)) {
      const NodeId j = s.sub_of[nbr];
      if (j != kNoNode && i < j) edges.emplace_back(i, j);
    }
  }
  s.graph = Graph(static_cast<NodeId>(s.orig_of.size()), std::move(edges));
  std::vector<std::uint64_t> ids(s.orig_of.size());
  for (NodeId i = 0; i < s.orig_of.size(); ++i) ids[i] = g.id(s.orig_of[i]);
  s.graph.set_ids(std::move(ids));
  return s;
}

Components connected_components(const Graph& g) {
  Components c;
  c.component_of.assign(g.num_nodes(), -1);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (c.component_of[s] != -1) continue;
    c.component_of[s] = c.count;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (const NodeId y : g.neighbors(x)) {
        if (c.component_of[y] == -1) {
          c.component_of[y] = c.count;
          stack.push_back(y);
        }
      }
    }
    ++c.count;
  }
  return c;
}

std::vector<std::vector<NodeId>> component_node_lists(const Components& c) {
  std::vector<std::vector<NodeId>> lists(c.count);
  for (NodeId v = 0; v < c.component_of.size(); ++v)
    lists[static_cast<std::size_t>(c.component_of[v])].push_back(v);
  return lists;
}

}  // namespace deltacolor
