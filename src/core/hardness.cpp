#include "core/hardness.hpp"

#include "common/check.hpp"

namespace deltacolor {

Hardness classify_hardness(const Graph& g, const Acd& acd,
                           const LoopholeSet& loopholes, bool verify_lemma9) {
  Hardness h;
  h.is_hard.assign(acd.cliques.size(), true);
  h.in_hard.assign(g.num_nodes(), false);

  for (const auto& l : loopholes.loopholes) {
    for (const NodeId v : l.vertices) {
      const int c = acd.clique_of[v];
      if (c != -1) h.is_hard[static_cast<std::size_t>(c)] = false;
    }
  }
  // A loophole vertex also certifies easiness of adjacent... no: Definition
  // 8 only demands the clique *contain* a loophole vertex; detected
  // loopholes list their member vertices explicitly, handled above.

  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (h.is_hard[c]) {
      ++h.num_hard;
      for (const NodeId v : acd.cliques[c]) h.in_hard[v] = true;
    } else {
      ++h.num_easy;
    }
  }

  if (verify_lemma9) {
    // One pass over the arcs checks Lemma 9 for every hard clique.
    // 9.1/9.2: clique, and every member has degree exactly Delta (internal
    // |C|-1 plus e_C = Delta - |C| + 1 external). 9.3: no vertex outside a
    // hard clique has two neighbors in it; last_seen[c] = last w that had a
    // neighbor in clique c, and since w ascends, a repeat within one w's
    // scan means two neighbors in c.
    const int delta = g.max_degree();
    std::vector<int> last_seen(acd.cliques.size(), -1);
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      const int cw = acd.clique_of[w];
      const bool member = cw != -1 && h.is_hard[static_cast<std::size_t>(cw)];
      if (member)
        DC_CHECK_MSG(g.degree(w) == delta,
                     "hard clique member " << w << " has degree "
                                           << g.degree(w) << " != " << delta);
      int internal = 0;
      for (const NodeId u : g.neighbors(w)) {
        const int c = acd.clique_of[u];
        if (c == -1) continue;
        if (c == cw) {
          ++internal;
          continue;
        }
        if (!h.is_hard[static_cast<std::size_t>(c)]) continue;
        DC_CHECK_MSG(last_seen[static_cast<std::size_t>(c)] !=
                         static_cast<int>(w),
                     "outsider " << w << " has two neighbors in hard clique "
                                 << c << " (undetected loophole)");
        last_seen[static_cast<std::size_t>(c)] = static_cast<int>(w);
      }
      if (member)
        DC_CHECK_MSG(
            internal ==
                static_cast<int>(
                    acd.cliques[static_cast<std::size_t>(cw)].size()) - 1,
            "hard AC " << cw << " is not a clique at member " << w);
    }
  }
  return h;
}

}  // namespace deltacolor
