#include "core/loopholes.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

bool is_valid_loophole(const Graph& g, const Loophole& l) {
  const auto& vs = l.vertices;
  if (vs.empty()) return false;
  for (const NodeId v : vs)
    if (v >= g.num_nodes()) return false;
  if (vs.size() == 1) return g.degree(vs[0]) < g.max_degree();
  // Even cycle of distinct vertices...
  if (vs.size() % 2 != 0 || vs.size() < 4) return false;
  auto sorted = vs;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;
  for (std::size_t i = 0; i < vs.size(); ++i)
    if (!g.has_edge(vs[i], vs[(i + 1) % vs.size()])) return false;
  // ...that does not induce a clique.
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      if (!g.has_edge(vs[i], vs[j])) return true;
  return false;
}

void LoopholeSet::add(const Graph& g, Loophole l) {
  DC_CHECK(is_valid_loophole(g, l));
  const int idx = static_cast<int>(loopholes.size());
  for (const NodeId v : l.vertices)
    if (vote_of[v] == -1) vote_of[v] = idx;
  loopholes.push_back(std::move(l));
}

std::optional<Loophole> find_loophole_through(const Graph& g, NodeId v,
                                              int max_vertices) {
  DC_CHECK(max_vertices <= 8);
  if (g.degree(v) < g.max_degree()) return Loophole{{v}};
  // DFS over simple paths from v; a neighbor closing back to v forms a
  // cycle, accepted if even, length >= 4, and non-clique. The path is a
  // simple cycle over existing edges by construction, so only a missing
  // chord is left to test.
  std::vector<NodeId> path{v};
  NodeMask on_path(g.num_nodes(), 0);
  on_path[v] = 1;
  const auto has_missing_chord = [&] {
    for (std::size_t i = 0; i < path.size(); ++i)
      for (std::size_t j = i + 2; j < path.size(); ++j)
        if (!g.has_edge(path[i], path[j])) return true;
    return false;
  };
  std::optional<Loophole> found;
  auto dfs = [&](auto&& self, NodeId x) -> void {
    if (found) return;
    for (const NodeId y : g.neighbors(x)) {
      if (found) return;
      if (y == v) {
        if (path.size() >= 4 && path.size() % 2 == 0 && has_missing_chord()) {
          found = Loophole{path};
          DC_CHECK(is_valid_loophole(g, *found));
          return;
        }
        continue;
      }
      if (static_cast<int>(path.size()) >= max_vertices) continue;
      if (on_path[y]) continue;
      path.push_back(y);
      on_path[y] = 1;
      self(self, y);
      on_path[y] = 0;
      path.pop_back();
    }
  };
  dfs(dfs, v);
  return found;
}

namespace {

// Deduplicating accumulator for detected loopholes + votes.
class Accumulator {
 public:
  Accumulator(const Graph& g, LoopholeSet& out) : g_(g), out_(out) {
    out_.vote_of.assign(g.num_nodes(), -1);
  }

  void add(Loophole l) {
    DC_CHECK_MSG(is_valid_loophole(g_, l),
                 "constructed witness is not a loophole");
    auto key = l.vertices;
    std::sort(key.begin(), key.end());
    const auto [it, inserted] =
        index_.try_emplace(std::move(key), out_.loopholes.size());
    if (inserted) out_.loopholes.push_back(std::move(l));
    const int idx = static_cast<int>(it->second);
    for (const NodeId v : out_.loopholes[static_cast<std::size_t>(idx)]
             .vertices)
      if (out_.vote_of[v] == -1) out_.vote_of[v] = idx;
  }

 private:
  const Graph& g_;
  LoopholeSet& out_;
  struct KeyHash {
    std::size_t operator()(const std::vector<NodeId>& key) const {
      std::uint64_t h = key.size();
      for (const NodeId v : key) h = hash_mix(h, v);
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<NodeId>, std::size_t, KeyHash> index_;
};

}  // namespace

LoopholeSet find_loopholes_bruteforce(const Graph& g, int max_vertices) {
  LoopholeSet res;
  Accumulator acc(g, res);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (res.vote_of[v] != -1) continue;
    if (auto l = find_loophole_through(g, v, max_vertices)) acc.add(*l);
  }
  return res;
}

namespace {

// Common neighbors of u1, u2 restricted to clique `members`, excluding the
// given vertices; returns up to `want`.
std::vector<NodeId> common_in(const Graph& g, const std::vector<NodeId>& pool,
                              NodeId u1, NodeId u2,
                              const std::vector<NodeId>& exclude, int want) {
  std::vector<NodeId> out;
  for (const NodeId w : pool) {
    if (std::find(exclude.begin(), exclude.end(), w) != exclude.end())
      continue;
    if (g.has_edge(w, u1) && g.has_edge(w, u2)) {
      out.push_back(w);
      if (static_cast<int>(out.size()) == want) break;
    }
  }
  return out;
}

// A cross edge (endpoints in ACs lo < hi).
struct CrossEdge {
  int lo, hi;
  EdgeId edge;
};

// An AC pair linked by cross edges, with the first two of them by edge id.
struct AcPair {
  int lo, hi;
  EdgeId edges[2];
  int size;
};

}  // namespace

LoopholeSet find_loopholes_dense(const Graph& g, const Acd& acd,
                                 RoundLedger& ledger,
                                 const std::string& phase) {
  LoopholeSet res;
  Accumulator acc(g, res);
  const int delta = g.max_degree();
  const NodeId n = g.num_nodes();
  const std::size_t num_acs = acd.cliques.size();

  // (a) degree loopholes.
  for (NodeId v = 0; v < n; ++v)
    if (g.degree(v) < delta) acc.add(Loophole{{v}});

  // Internal degrees (needed by (b)); cliques flagged per AC.
  std::vector<bool> ac_is_clique(num_acs, true);
  for (std::size_t c = 0; c < num_acs; ++c) {
    const auto& members = acd.cliques[c];
    for (const NodeId v : members) {
      int internal = 0;
      for (const NodeId u : g.neighbors(v))
        if (acd.clique_of[u] == static_cast<int>(c)) ++internal;
      if (internal != static_cast<int>(members.size()) - 1) {
        ac_is_clique[c] = false;
      }
    }
  }
  // (b) non-clique ACs: witness 4-cycle u1-u3-u2-u4 around a missing pair.
  for (std::size_t c = 0; c < num_acs; ++c) {
    if (ac_is_clique[c]) continue;
    const auto& members = acd.cliques[c];
    bool added = false;
    for (std::size_t i = 0; i < members.size() && !added; ++i) {
      for (std::size_t j = i + 1; j < members.size() && !added; ++j) {
        const NodeId u1 = members[i], u2 = members[j];
        if (g.has_edge(u1, u2)) continue;
        const auto mids = common_in(g, members, u1, u2, {u1, u2}, 2);
        if (mids.size() < 2) continue;
        acc.add(Loophole{{u1, mids[0], u2, mids[1]}});
        added = true;
      }
    }
    // If no witness closes, the AC is left to the runtime checks; with a
    // valid ACD (Lemma 2) the witness always exists (Lemma 9.1's proof).
  }

  // (c) outsiders with two neighbors in a foreign AC:
  // witness 4-cycle w-u1-c1-u2 with c1 in the AC non-adjacent to w.
  std::vector<std::pair<int, NodeId>> by_ac;
  for (NodeId w = 0; w < n; ++w) {
    // Group neighbors by foreign AC.
    by_ac.clear();
    for (const NodeId u : g.neighbors(w)) {
      const int c = acd.clique_of[u];
      if (c == -1 || c == acd.clique_of[w]) continue;
      by_ac.emplace_back(c, u);
    }
    if (by_ac.size() < 2) continue;
    std::sort(by_ac.begin(), by_ac.end());
    for (std::size_t i = 0; i + 1 < by_ac.size(); ++i) {
      if (by_ac[i].first != by_ac[i + 1].first) continue;
      const NodeId u1 = by_ac[i].second, u2 = by_ac[i + 1].second;
      const auto& members = acd.cliques[static_cast<std::size_t>(
          by_ac[i].first)];
      bool added = false;
      for (const NodeId c1 : members) {
        if (c1 == u1 || c1 == u2 || g.has_edge(c1, w)) continue;
        if (g.has_edge(c1, u1) && g.has_edge(c1, u2)) {
          acc.add(Loophole{{w, u1, c1, u2}});
          added = true;
          break;
        }
      }
      if (added) break;  // one witness per w suffices
    }
  }

  // Cross-edge bookkeeping for (d), (e), (f). Cross edges (endpoints in
  // two different ACs), in edge-id order; `multi` records whether some
  // vertex carries two of them.
  std::vector<CrossEdge> cross;
  std::vector<char> has_cross(n, 0);
  bool multi = false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const int cu = acd.clique_of[u], cv = acd.clique_of[v];
    if (cu == -1 || cv == -1 || cu == cv) continue;
    cross.push_back({std::min(cu, cv), std::max(cu, cv), e});
    for (const NodeId x : {u, v}) {
      multi |= has_cross[x] != 0;
      has_cross[x] = 1;
    }
  }
  // Stable counting sorts by hi, then by lo, visit the cross edges in AC
  // pair key order (lo, hi), edge ids ascending within a pair. Each pair
  // keeps its first two edges.
  const int num_classes = static_cast<int>(num_acs);
  std::vector<Color> key(cross.size());
  std::vector<std::size_t> start;
  std::vector<NodeId> by_hi, by_pair;
  for (std::size_t i = 0; i < cross.size(); ++i) key[i] = cross[i].hi;
  bucket_by_class(key, num_classes, start, by_hi);
  for (std::size_t i = 0; i < cross.size(); ++i) key[i] = cross[by_hi[i]].lo;
  bucket_by_class(key, num_classes, start, by_pair);
  std::vector<AcPair> pairs;
  for (const NodeId i : by_pair) {
    const CrossEdge& x = cross[by_hi[i]];
    if (pairs.empty() || pairs.back().lo != x.lo || pairs.back().hi != x.hi)
      pairs.push_back({x.lo, x.hi, {x.edge, kNoEdge}, 1});
    else if (pairs.back().size < 2)
      pairs.back().edges[pairs.back().size++] = x.edge;
  }

  // (d) doubly-linked AC pairs: 4-cycle across the two cross edges.
  for (const AcPair& p : pairs) {
    if (p.size < 2) continue;
    auto [a1, b1] = g.endpoints(p.edges[0]);
    auto [a2, b2] = g.endpoints(p.edges[1]);
    // Normalize sides: a* in p.lo's AC.
    if (acd.clique_of[a1] != p.lo) std::swap(a1, b1);
    if (acd.clique_of[a2] != p.lo) std::swap(a2, b2);
    if (a1 == a2 || b1 == b2) continue;            // case (c) territory
    if (!g.has_edge(a1, a2) || !g.has_edge(b1, b2)) continue;
    if (g.has_edge(a1, b2) || g.has_edge(a2, b1)) continue;  // (c) catches
    acc.add(Loophole{{a1, b1, b2, a2}});
  }

  // (e) AC triangles c1 < c2 < c3: assemble an even cycle from the three
  // witness cross edges if the connector parity works out (always does
  // when every vertex has a single cross edge).
  {
    // AC adjacency lists: entry 2p is pair p seen from its lo AC, 2p + 1
    // from its hi AC. Bucketed in entry order, i.e. pair key order, every
    // list ascends by neighbor.
    key.resize(2 * pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      key[2 * p] = pairs[p].lo;
      key[2 * p + 1] = pairs[p].hi;
    }
    std::vector<std::size_t> ac_off;
    std::vector<NodeId> ac_entry;
    bucket_by_class(key, num_classes, ac_off, ac_entry);
    const auto nbrs = [&](std::size_t c) {
      return std::span<const NodeId>(ac_entry.data() + ac_off[c],
                                     ac_off[c + 1] - ac_off[c]);
    };
    const auto neighbor = [&](NodeId entry) {
      const AcPair& p = pairs[entry / 2];
      return entry % 2 == 0 ? p.hi : p.lo;
    };
    // stamp[c] == c1 iff AC c is linked to c1, through pair with_c1[c].
    std::vector<int> stamp(num_acs, -1);
    std::vector<NodeId> with_c1(num_acs, 0);
    const auto side = [&](EdgeId f, int c) {  // endpoints of f, first in c
      auto [x, y] = g.endpoints(f);
      if (acd.clique_of[x] != c) std::swap(x, y);
      return std::pair<NodeId, NodeId>{x, y};
    };
    std::vector<NodeId> cyc;
    for (std::size_t c1 = 0; c1 < num_acs; ++c1) {
      const int ic1 = static_cast<int>(c1);
      for (const NodeId entry : nbrs(c1)) {
        const auto c = static_cast<std::size_t>(neighbor(entry));
        stamp[c] = ic1;
        with_c1[c] = entry / 2;
      }
      for (const NodeId entry12 : nbrs(c1)) {
        const int c2 = neighbor(entry12);
        if (c2 < ic1) continue;
        for (const NodeId entry23 : nbrs(static_cast<std::size_t>(c2))) {
          const int c3 = neighbor(entry23);
          if (c3 <= c2 || stamp[static_cast<std::size_t>(c3)] != ic1)
            continue;
          // Try the stored witness combinations for an even assembly.
          const AcPair& e12 = pairs[entry12 / 2];
          const AcPair& e23 = pairs[entry23 / 2];
          const AcPair& e31 = pairs[with_c1[static_cast<std::size_t>(c3)]];
          bool added = false;
          for (int i = 0; i < e12.size && !added; ++i) {
            const auto [a, b] = side(e12.edges[i], ic1);  // a in C1, b in C2
            for (int j = 0; j < e23.size && !added; ++j) {
              const auto [cc, d] = side(e23.edges[j], c2);  // cc in C2, d in C3
              for (int k = 0; k < e31.size && !added; ++k) {
                const auto [x, y] = side(e31.edges[k], c3);  // x in C3, y in C1
                cyc.assign({a, b});
                if (cc != b) cyc.push_back(cc);
                cyc.push_back(d);
                if (x != d) cyc.push_back(x);
                if (y != a) cyc.push_back(y);
                if (cyc.size() % 2 != 0) continue;
                Loophole cand{cyc};
                if (is_valid_loophole(g, cand)) {
                  acc.add(std::move(cand));
                  added = true;
                }
              }
            }
          }
        }
      }
    }
  }

  // (f) short cycles of the cross-edge subgraph (only possible when
  // vertices carry two or more cross edges).
  if (multi) {
    std::vector<std::pair<NodeId, NodeId>> cross_pairs;
    cross_pairs.reserve(cross.size());
    for (const CrossEdge& x : cross) cross_pairs.push_back(g.endpoints(x.edge));
    const Graph cross_graph(n, std::move(cross_pairs));
    std::vector<NodeId> path;
    for (NodeId v = 0; v < n; ++v) {
      if (res.vote_of[v] != -1) continue;
      path.assign(1, v);
      bool found = false;
      auto dfs = [&](auto&& self, NodeId x) -> void {
        if (found) return;
        for (const NodeId y : cross_graph.neighbors(x)) {
          if (found) return;
          if (y == v && path.size() >= 4 && path.size() % 2 == 0) {
            Loophole cand{path};
            if (is_valid_loophole(g, cand)) {
              acc.add(cand);
              found = true;
              return;
            }
          }
          if (y == v || static_cast<int>(path.size()) >= 6) continue;
          if (std::find(path.begin(), path.end(), y) != path.end())
            continue;
          path.push_back(y);
          self(self, y);
          path.pop_back();
        }
      };
      dfs(dfs, v);
    }
  }

  // Every case inspects a bounded-radius neighborhood: O(1) rounds.
  ledger.charge(phase, 6);
  return res;
}

}  // namespace deltacolor
