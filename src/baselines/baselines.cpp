#include "baselines/baselines.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "core/easy_coloring.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/ruling_set.hpp"

namespace deltacolor {

std::vector<Color> greedy_delta_plus_one(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "greedy");
  std::vector<Color> color(g.num_nodes(), kNoColor);
  NodeMask active(g.num_nodes(), 1);
  const auto lists = uniform_lists(g, g.max_degree() + 1);
  if (g.num_nodes() > 0)
    deg_plus_one_list_color(g, active, lists, color, ctx);
  return color;
}

LayeredBaselineResult layered_loophole_coloring(const Graph& g,
                                                const LoopholeSet& loopholes,
                                                LocalContext& ctx) {
  LayeredBaselineResult res;
  const NodeId n = g.num_nodes();
  res.color.assign(n, kNoColor);
  if (n == 0) {
    res.success = true;
    return res;
  }
  const int delta = g.max_degree();

  // Select pairwise non-conflicting loopholes exactly as Algorithm 3 does,
  // but then layer the whole graph from them (no hard-clique machinery).
  if (loopholes.loopholes.empty()) {
    res.unreachable = n;
    return res;
  }

  // Simple selection: greedy independent subset of loopholes (centralized
  // stand-in for the ruling set; the baseline's cost driver is layering).
  NodeMask blocked(n, 0);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < loopholes.loopholes.size(); ++i) {
    const auto& vs = loopholes.loopholes[i].vertices;
    bool ok = true;
    for (const NodeId v : vs) {
      if (blocked[v]) ok = false;
      for (const NodeId u : g.neighbors(v))
        if (blocked[u]) ok = false;
    }
    if (!ok) continue;
    chosen.push_back(i);
    for (const NodeId v : vs) blocked[v] = true;
  }
  {
    ScopedPhase phase(ctx, "baseline-select");
    ctx.charge(4);
  }

  std::vector<int> layer(n, -1);
  std::queue<NodeId> q;
  for (const std::size_t i : chosen)
    for (const NodeId v : loopholes.loopholes[i].vertices) {
      layer[v] = 0;
      q.push(v);
    }
  int max_layer = 0;
  while (!q.empty()) {
    const NodeId x = q.front();
    q.pop();
    for (const NodeId y : g.neighbors(x)) {
      if (layer[y] != -1) continue;
      layer[y] = layer[x] + 1;
      max_layer = std::max(max_layer, layer[y]);
      q.push(y);
    }
  }
  res.layers = max_layer;
  for (NodeId v = 0; v < n; ++v)
    if (layer[v] == -1) ++res.unreachable;
  if (res.unreachable > 0) return res;  // hard region: baseline stalls

  const auto lists = uniform_lists(g, delta);
  for (int l = max_layer; l >= 1; --l) {
    NodeMask active(n, 0);
    for (NodeId v = 0; v < n; ++v) active[v] = layer[v] == l;
    ScopedPhase phase(ctx, "baseline-layers");
    deg_plus_one_list_color(g, active, lists, res.color, ctx);
  }
  for (const std::size_t i : chosen)
    color_loophole(g, loopholes.loopholes[i], res.color);
  ScopedPhase phase(ctx, "baseline-loopholes");
  ctx.charge(3);
  res.success = true;
  return res;
}

}  // namespace deltacolor
