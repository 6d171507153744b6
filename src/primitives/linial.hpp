// Linial's O(log* n) color reduction [Lin92].
//
// From any proper k-coloring (initially the unique identifiers), one round
// of communication reduces to a proper q^2-coloring, where q is the
// smallest prime with q > Delta * d and q^(d+1) > k: each node interprets
// its color as a polynomial of degree <= d over F_q and picks an evaluation
// point on which it differs from every neighbor (at most d collisions per
// neighbor, so Delta*d < q points are excluded). Iterating reaches the
// fixed point q0^2, q0 ~ Delta, in O(log* k) rounds.
//
// The core reduction is generic over any GraphView (graph_view.hpp), so it
// runs unchanged on host graphs, induced subgraphs, power graphs, and line
// graphs — all without materializing the virtual graph. Each stage is one
// synchronous round stepped through SyncRunner (multi-worker, bit-identical
// across worker counts); rounds are charged to the LocalContext's active
// phase with the view's dilation factor.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

struct LinialResult {
  std::vector<Color> color;  ///< proper coloring, palette {0..num_colors-1}
  int num_colors = 0;
  int rounds = 0;  ///< virtual rounds of the view (not dilation-scaled)
};

namespace detail {

/// Divide-free `a / q` and `a % q` for a fixed divisor 2 <= q < 2^32 and
/// any 64-bit `a` (Barrett reduction). m = floor((2^64 - 1) / q) makes the
/// high word of a * m either floor(a / q) or one less, so a single
/// correction step gives the exact quotient and remainder of `/` and `%`.
class FastDiv {
 public:
  explicit FastDiv(std::uint64_t q) : q_(q), m_(~std::uint64_t{0} / q) {
    DC_DCHECK(q >= 2 && q <= 0xffffffffu);
  }

  std::uint64_t divisor() const { return q_; }

  /// Quotient and remainder of a / q.
  std::pair<std::uint64_t, std::uint64_t> divmod(std::uint64_t a) const {
    std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * m_) >> 64);
    std::uint64_t rem = a - quot * q_;
    if (rem >= q_) {
      rem -= q_;
      ++quot;
    }
    return {quot, rem};
  }

  std::uint64_t mod(std::uint64_t a) const { return divmod(a).second; }

 private:
  std::uint64_t q_;
  std::uint64_t m_;
};

std::uint64_t linial_pow_sat(std::uint64_t q, int e);
int linial_degree_for(std::uint64_t q, std::uint64_t max_val);
/// Smallest prime q with q > delta * degree and q^(degree+1) > max_val.
std::pair<std::uint64_t, int> linial_choose_field(int delta,
                                                  std::uint64_t max_val);

}  // namespace detail

/// Generic reduction over any GraphView. `initial` must be a proper
/// coloring of the view (pairwise distinct along every view edge).
/// Charges rounds * view.dilation() to the context's active phase
/// ("linial" when the caller opened none).
template <GraphView ViewT>
LinialResult linial_reduce(const ViewT& view,
                           const std::vector<std::uint64_t>& initial,
                           LocalContext& ctx) {
  DefaultPhase scope(ctx, "linial");
  const NodeId n = view.num_nodes();
  LinialResult res;
  res.color.assign(n, 0);
  if (n == 0) {
    res.num_colors = 1;
    return res;
  }
  DC_CHECK(initial.size() == n);

  std::uint64_t max_val = 0;
  for (const std::uint64_t c : initial) max_val = std::max(max_val, c);
  const int max_degree = view.max_degree();

  // Every stage is one engine round; the transition depends on the stage
  // field (q, d), which changes between run() calls.
  SyncRunner<std::uint64_t, ViewT> runner(view, initial, ctx.engine());
  std::atomic<bool> failed{false};
  // Per-stage coefficient table: row v holds the d + 1 base-q digits of
  // node v's round-(t-1) color, i.e. the polynomial v publishes in stage t.
  // It is a pure function of the round-(t-1) states, filled once per stage
  // before the stage's round.
  std::vector<std::uint32_t> coeff;

  // One stage = one engine round with stage-specific (q, d); the step
  // closure is rebuilt per stage with those scalars and the table captured
  // by value, together with q's precomputed reciprocal (no hardware divide
  // per Horner step). A step reads only its own and its neighbors' rows.
  const auto make_step = [&failed](const detail::FastDiv& div, int d,
                                   const std::uint32_t* table) {
    return [div, d, table, &failed](const auto& v) -> std::uint64_t {
    const std::uint64_t q = div.divisor();
    const std::size_t terms = static_cast<std::size_t>(d) + 1;
    const std::uint32_t* self = table + v.node() * terms;
    // Neighbor rows go into the worker's round-local arena (one frame per
    // step, degree() bounds the count), so the round allocates nothing
    // once arenas are warm. At x = 0 every polynomial evaluates to its
    // constant coefficient, so that point is tested while collecting.
    ScratchArena::Frame frame(ScratchArena::local());
    const std::uint32_t** nbr = frame.alloc<const std::uint32_t*>(
        static_cast<std::size_t>(v.degree()));
    std::size_t nbrs = 0;
    bool zero_separates = true;
    v.for_each_neighbor([&](NodeId u) {
      if (u == v.node()) return;
      const std::uint32_t* a = table + u * terms;
      zero_separates = zero_separates && a[0] != self[0];
      nbr[nbrs++] = a;
    });
    if (zero_separates) return self[0];
    const auto eval = [&](const std::uint32_t* a, std::uint64_t x) {
      std::uint64_t acc = 0;
      for (int i = d; i >= 0; --i) acc = div.mod(acc * x + a[i]);
      return acc;
    };
    // Scan the remaining evaluation points until one separates this node
    // from every neighbor; guaranteed to exist since bad points number
    // <= Delta*d < q.
    for (std::uint64_t x = 1; x < q; ++x) {
      const std::uint64_t mine = eval(self, x);
      bool ok = true;
      for (std::size_t j = 0; j < nbrs && ok; ++j) {
        if (eval(nbr[j], x) == mine) ok = false;
      }
      if (ok) return x * q + mine;
    }
    failed.store(true, std::memory_order_relaxed);
    return v.self();
    };
  };
  for (;;) {
    const auto [q, d] = detail::linial_choose_field(max_degree, max_val);
    if (q * q > max_val) break;  // fixed point: no further progress
    const detail::FastDiv div(q);
    const std::size_t terms = static_cast<std::size_t>(d) + 1;
    coeff.resize(static_cast<std::size_t>(n) * terms);
    const auto& states = runner.states();
    for (NodeId v = 0; v < n; ++v) {
      std::uint64_t c = states[v];
      for (std::size_t i = 0; i < terms; ++i) {
        const auto [quot, rem] = div.divmod(c);
        coeff[v * terms + i] = static_cast<std::uint32_t>(rem);
        c = quot;
      }
    }
    runner.run_rounds(1, make_step(div, d, coeff.data()));
    DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
                 "Linial: no collision-free point (q=" << q << ")");
    max_val = q * q - 1;
    ++res.rounds;
    DC_CHECK_MSG(res.rounds < 64, "Linial failed to converge");
  }

  res.num_colors = static_cast<int>(max_val + 1);
  const auto& states = runner.states();
  for (NodeId v = 0; v < n; ++v)
    res.color[v] = static_cast<Color>(states[v]);
  ctx.charge(res.rounds, view.dilation());
  return res;
}

/// O(Delta^2)-coloring of the view in O(log* n) rounds from its LOCAL
/// identifiers (works on any GraphView; "linial" default phase).
template <GraphView ViewT>
LinialResult linial_coloring(const ViewT& view, LocalContext& ctx) {
  DefaultPhase scope(ctx, "linial");
  const NodeId n = view.num_nodes();
  std::vector<std::uint64_t> initial(n);
  for (NodeId v = 0; v < n; ++v) initial[v] = view.id(v);
  return linial_reduce(view, initial, ctx);
}

/// Proper *edge* coloring of g with an O(Delta^2)-sized palette, indexed by
/// EdgeId, computed on the lazy LineGraphView (the line graph is never
/// materialized): a vertex Linial coloring is composed with per-endpoint
/// port numbers into a proper (huge-palette) edge coloring, which the
/// generic reduction then shrinks. Costs O(log* n) rounds; each line-graph
/// round dilates to 2 real rounds (charged via the view's dilation).
LinialResult linial_edge_coloring(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
