// Double-buffered synchronous execution engine for LOCAL-model node
// programs, with optional multi-threaded stepping.
//
// Fidelity contract: in round t, a node's transition function sees only its
// own round-(t-1) state and the round-(t-1) states of its direct neighbors
// (unbounded messages in LOCAL make "publish full state" the most general
// message). The engine enforces this structurally: transitions write into a
// shadow buffer that becomes visible only after every node has stepped.
//
// Execution engine. `run()` is a template over the step functor, so the
// per-node call is devirtualized and inlined (no std::function in the hot
// loop). A `run()` round steps every node; a `run_classes()` round steps
// only the nodes of that round's class (schedule-driven sweeps, where every
// other node would return its own state unchanged). Stepped nodes are
// partitioned into contiguous chunks across a thread pool, and because
// every transition writes only its own slot of the shadow buffer, the
// schedule cannot affect results — states are bit-identical across worker
// counts and to the serial engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "local/faults.hpp"

namespace deltacolor {

/// Execution options for SyncRunner (and the engine algorithms built on
/// it). The defaults reproduce the library-wide default worker count
/// (DELTACOLOR_THREADS / hardware_concurrency).
struct EngineOptions {
  /// Worker threads stepping nodes each round. 0 = library default
  /// (ThreadPool::default_workers()), 1 = serial in the calling thread.
  int num_threads = 0;
};

/// `GraphT` is any type modeling the GraphView concept (graph_view.hpp):
/// the host Graph (the default), or a lazy InducedSubgraphView /
/// PowerGraphView / LineGraphView — the engine itself never materializes
/// virtual-graph adjacency.
template <typename State, typename GraphT = Graph>
class SyncRunner {
 public:
  /// The per-node view a transition function receives.
  class View {
   public:
    View(const GraphT& g, NodeId v, const std::vector<State>& prev,
         int round)
        : g_(g), v_(v), prev_(prev), round_(round) {}

    NodeId node() const { return v_; }
    std::uint64_t id() const { return g_.id(v_); }
    int degree() const { return g_.degree(v_); }

    /// Contiguous sorted neighbor span — host graphs only; lazy views
    /// enumerate via for_each_neighbor instead.
    std::span<const NodeId> neighbors() const
      requires requires(const GraphT& g, NodeId v) { g.neighbors(v); }
    {
      return g_.neighbors(v_);
    }

    /// fn(u) for every neighbor u of this node in the (possibly virtual)
    /// graph — the view-generic way to read the neighborhood.
    template <typename Fn>
    void for_each_neighbor(Fn&& fn) const {
      g_.for_each_neighbor(v_, fn);
    }

    /// The round being computed's predecessor index: 0 in the first
    /// executed round. Global lockstep round counters are shared knowledge
    /// in a synchronous network, so exposing this does not weaken the
    /// LOCAL fidelity contract.
    int round() const { return round_; }

    const State& self() const { return prev_[v_]; }

    /// Round-(t-1) state of a *neighbor* u. Adjacency is checked in debug
    /// builds when the graph type supports the query — reading a
    /// non-neighbor's state would break the LOCAL model.
    const State& neighbor(NodeId u) const {
      if constexpr (requires(const GraphT& g) { g.has_edge(v_, u); }) {
        DC_DCHECK(g_.has_edge(v_, u));
      }
      return prev_[u];
    }

   private:
    const GraphT& g_;
    NodeId v_;
    const std::vector<State>& prev_;
    int round_;
  };

  /// Transition: given the view of round t-1, produce the round-t state.
  /// (Type-erased alias for storage; run() itself is a template so direct
  /// lambdas are devirtualized.)
  using Step = std::function<State(const View&)>;
  /// Global halting predicate, evaluated between rounds by the harness.
  /// (This is a simulation-harness convenience, not node knowledge; all
  /// algorithms in the library also have explicit round bounds.)
  using Done = std::function<bool(const std::vector<State>&)>;

  SyncRunner(const GraphT& g, std::vector<State> initial,
             EngineOptions options = {})
      : g_(g), options_(options), cur_(std::move(initial)) {
    DC_CHECK(cur_.size() == g_.num_nodes());
    nxt_.resize(cur_.size());
    if (options_.num_threads == 1) {
      pool_ = nullptr;  // serial: no pool, step inline
    } else if (options_.num_threads <= 0) {
      pool_ = &ThreadPool::global();
    } else {
      // Cached process-wide pool for this worker count: runners are
      // constructed per primitive call, and spawning/joining OS threads
      // per runner would swamp the per-round parallel gains in composed
      // pipelines (see ThreadPool::shared).
      pool_ = &ThreadPool::shared(options_.num_threads);
    }
  }

  SyncRunner(const SyncRunner&) = delete;
  SyncRunner& operator=(const SyncRunner&) = delete;

  /// Runs until `done` or `max_rounds`; returns rounds executed.
  /// StepFn: State(const View&). DoneFn: bool(const std::vector<State>&).
  template <typename StepFn, typename DoneFn>
  int run(int max_rounds, StepFn&& step, DoneFn&& done) {
    int rounds = 0;
    while (rounds < max_rounds && !done(cur_)) {
      if (FaultInjector::armed())
        FaultInjector::global().on_engine_round(rounds);
      const int r = rounds;
      each_chunk([&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          nxt_[v] = step(View(g_, v, cur_, r));
        }
      });
      cur_.swap(nxt_);
      ++rounds;
    }
    return rounds;
  }

  /// Runs until every node satisfies `done_node(v, state_v)` — a halting
  /// predicate that decomposes as a conjunction over nodes, which is what
  /// every engine algorithm in the library actually checks — or until
  /// `max_rounds`. DoneNodeFn: bool(NodeId, const State&).
  template <typename StepFn, typename DoneNodeFn>
  int run_until(int max_rounds, StepFn&& step, DoneNodeFn&& done_node) {
    return run(max_rounds, step, [&](const std::vector<State>& states) {
      for (std::size_t v = 0; v < states.size(); ++v)
        if (!done_node(static_cast<NodeId>(v), states[v])) return false;
      return true;
    });
  }

  /// Runs exactly `max_rounds` rounds (fixed-length stages where every node
  /// may act: Linial stages, bit peeling, Cole-Vishkin shifts). Equivalent
  /// to run() with a constant-false predicate.
  template <typename StepFn>
  int run_rounds(int max_rounds, StepFn&& step) {
    return run(max_rounds, step,
               [](const std::vector<State>&) { return false; });
  }

  /// Runs one round per class of a class-keyed schedule: round t steps
  /// only the nodes `nodes[start[t] .. start[t+1])` (a CSR bucket, e.g.
  /// from bucket_by_class) and commits only their slots; every other node
  /// keeps its state. This equals run_rounds(start.size() - 1, step') where
  /// step' returns v.self() for nodes outside round t's class, so a step
  /// needs no "not my round" guard. A node must appear at most once per
  /// bucket. View::round() is t, and the fault hook and arena reset run as
  /// in run(). Returns the number of rounds, start.size() - 1 (empty
  /// classes still take their round).
  template <typename StepFn>
  int run_classes(std::span<const std::size_t> start,
                  std::span<const NodeId> nodes, StepFn&& step) {
    const int rounds = start.empty() ? 0 : static_cast<int>(start.size()) - 1;
    for (int t = 0; t < rounds; ++t) {
      if (FaultInjector::armed())
        FaultInjector::global().on_engine_round(t);
      const std::size_t lo = start[t], hi = start[t + 1];
      if (lo == hi) continue;
      each_slice(lo, hi, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = nodes[i];
          nxt_[v] = step(View(g_, v, cur_, t));
        }
      });
      for (std::size_t i = lo; i < hi; ++i) cur_[nodes[i]] = nxt_[nodes[i]];
    }
    return rounds;
  }

  const std::vector<State>& states() const { return cur_; }
  std::vector<State> take_states() { return std::move(cur_); }

  /// Zero-round local relabeling: every node applies `fn` to its own state
  /// with no communication (e.g. KW palette compaction between stages).
  /// Runs on the worker pool; slots are disjoint, so results are
  /// schedule-independent like regular rounds.
  template <typename Fn>
  void mutate_states(Fn&& fn) {
    each_chunk([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        cur_[i] = fn(std::move(cur_[i]));
    });
  }

 private:
  /// Runs fn(begin, end) over contiguous chunks of [0, n), one per worker
  /// (the whole range in the calling thread when serial, i.e. when
  /// options_.num_threads == 1). Each worker's ScratchArena is reset
  /// before its chunk: round-local scratch carved by step kernels never
  /// survives into the next round (arena.hpp contract), and the reset is
  /// free once arenas are warm.
  template <typename ChunkFn>
  void each_chunk(ChunkFn&& fn) {
    const std::size_t n = g_.num_nodes();
    if (pool_ == nullptr || pool_->num_workers() == 1) {
      ScratchArena::local().reset();
      fn(std::size_t{0}, n);
      return;
    }
    const auto chunk = [&](int, std::size_t begin, std::size_t end) {
      ScratchArena::local().reset();
      fn(begin, end);
    };
    // Sweeps over the host graph run on *stable* degree-balanced chunk
    // bounds: every round hands worker w the same node range, so the
    // CSR/state pages a worker faulted in (first touch) stay its own, and
    // skewed-degree graphs don't leave the high-degree stripe's worker as
    // the round's straggler. Bounds depend only on the degree sequence and
    // worker count — chunks stay contiguous ascending ranges, so results
    // are bit-identical to uniform striping.
    if constexpr (requires(const GraphT& g, NodeId v) {
                    g.neighbors(v);
                    g.num_edges();
                  }) {
      if (n > 0) {
        if (chunk_bounds_.empty()) compute_chunk_bounds();
        pool_->for_chunks(chunk_bounds_, chunk);
        return;
      }
    }
    pool_->for_range(0, n, chunk);
  }

  /// Runs fn(begin, end) over [lo, hi) split uniformly across the
  /// workers (inline when serial), resetting each worker's ScratchArena
  /// first, like each_chunk. Class buckets are scattered node subsets, so
  /// the stable degree-balanced bounds do not apply.
  template <typename SliceFn>
  void each_slice(std::size_t lo, std::size_t hi, SliceFn&& fn) {
    if (pool_ == nullptr || pool_->num_workers() == 1) {
      ScratchArena::local().reset();
      fn(lo, hi);
      return;
    }
    pool_->for_range(lo, hi, [&](int, std::size_t begin, std::size_t end) {
      ScratchArena::local().reset();
      fn(begin, end);
    });
  }

  /// Degree-balanced 64-node-aligned chunk bounds over [0, n): worker w
  /// gets nodes [bounds[w], bounds[w+1]) whose (deg+1)-weight sums to
  /// ~1/workers of the total. Boundaries round up to 64-node groups so a
  /// cache line of the (typically word-sized) state arrays never straddles
  /// two workers. The weighting is graph/partition.hpp's. Host graphs
  /// only (lazy views may have expensive degree()); computed once per
  /// runner, O(n).
  void compute_chunk_bounds() {
    chunk_bounds_ =
        degree_balanced_bounds(g_, pool_->num_workers(), /*align=*/64);
  }

  const GraphT& g_;
  EngineOptions options_;
  ThreadPool* pool_ = nullptr;
  std::vector<State> cur_;
  std::vector<State> nxt_;
  // Stable degree-balanced worker chunk bounds (see compute_chunk_bounds);
  // empty until the first parallel sweep needs them.
  std::vector<std::size_t> chunk_bounds_;
};

/// Counting sort of node indices by class label, the CSR input of
/// SyncRunner::run_classes: on return, class c's nodes are
/// `nodes[start[c] .. start[c+1])` in ascending index order, and
/// start.size() == num_classes + 1. Labels outside [0, num_classes) belong
/// to no class. The vectors are reused, so warm calls allocate nothing.
inline void bucket_by_class(std::span<const Color> labels, int num_classes,
                            std::vector<std::size_t>& start,
                            std::vector<NodeId>& nodes) {
  DC_CHECK(num_classes >= 0);
  const std::size_t k = static_cast<std::size_t>(num_classes);
  start.assign(k + 1, 0);
  for (const Color c : labels)
    if (c >= 0 && static_cast<std::size_t>(c) < k)
      ++start[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < k; ++c) start[c + 1] += start[c];
  nodes.resize(start[k]);
  // Fill through start[c] (advanced per node), then shift back by one
  // class: afterwards start[c] is again class c's first slot.
  for (std::size_t v = 0; v < labels.size(); ++v) {
    const Color c = labels[v];
    if (c >= 0 && static_cast<std::size_t>(c) < k)
      nodes[start[static_cast<std::size_t>(c)]++] = static_cast<NodeId>(v);
  }
  for (std::size_t c = k; c > 0; --c) start[c] = start[c - 1];
  start[0] = 0;
}

}  // namespace deltacolor
