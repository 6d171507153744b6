// Tests for the parallel execution engine:
//  (a) states bit-identical across worker counts {1, 2, 8} and equal to an
//      independent serial reference of the pre-change engine semantics, on
//      Luby MIS and color-trial workloads;
//  (b) class-keyed rounds (run_classes) equal guarded full sweeps on host
//      graphs and lazy views at every worker count;
//  (c) RoundLedger wall-clock totals are monotone and merge per phase.
#include <gtest/gtest.h>

#include <numeric>

#include "bench_support/workloads.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "local/message_passing.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(cycle_graph(31));  // odd cycle
  gs.push_back(random_regular(200, 5, 3));
  gs.push_back(random_graph(150, 0.06, 4));
  gs.push_back(bench::hard_instance(16, 12, 8).graph);
  return gs;
}

// ---------------------------------------------------------------------------
// Independent references for the pre-change serial engine semantics: plain
// double-buffered sweeps with a per-node round counter, transcribed from the
// original message_passing.cpp. The engine must reproduce these bit-exactly.

std::vector<bool> reference_mis(const Graph& g, std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  enum class St : std::uint8_t { kUndecided, kCandidate, kIn, kOut };
  struct S {
    St status = St::kUndecided;
    std::uint64_t draw = 0;
  };
  std::vector<S> cur(n), nxt(n);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));
  auto done = [&] {
    for (const S& s : cur)
      if (s.status == St::kUndecided || s.status == St::kCandidate)
        return false;
    return true;
  };
  int round = 0;
  for (; round < max_rounds && !done(); ++round) {
    for (NodeId v = 0; v < n; ++v) {
      S s = cur[v];
      if (s.status == St::kIn || s.status == St::kOut) {
        nxt[v] = s;
        continue;
      }
      if (round % 2 == 0) {
        s.draw = hash_mix(seed, g.id(v),
                          static_cast<std::uint64_t>(round)) |
                 1;
        s.status = St::kCandidate;
        nxt[v] = s;
        continue;
      }
      bool is_max = true;
      bool out = false;
      for (const NodeId u : g.neighbors(v)) {
        const S& nb = cur[u];
        if (nb.status == St::kIn) {
          out = true;
          break;
        }
        if (nb.status != St::kCandidate) continue;
        if (nb.draw > s.draw || (nb.draw == s.draw && g.id(u) > g.id(v)))
          is_max = false;
      }
      s.status = out ? St::kOut : (is_max ? St::kIn : St::kUndecided);
      nxt[v] = s;
    }
    cur.swap(nxt);
  }
  std::vector<bool> in_set(n, false);
  for (NodeId v = 0; v < n; ++v) in_set[v] = cur[v].status == St::kIn;
  return in_set;
}

std::vector<Color> reference_color_trial(const Graph& g,
                                         std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  const int palette = g.max_degree() + 1;
  struct S {
    Color color = kNoColor;
    Color trial = kNoColor;
  };
  std::vector<S> cur(n), nxt(n);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));
  auto done = [&] {
    for (const S& s : cur)
      if (s.color == kNoColor) return false;
    return true;
  };
  int round = 0;
  for (; round < max_rounds && !done(); ++round) {
    for (NodeId v = 0; v < n; ++v) {
      S s = cur[v];
      if (s.color != kNoColor) {
        nxt[v] = s;
        continue;
      }
      if (round % 2 == 0) {
        std::vector<bool> used(static_cast<std::size_t>(palette), false);
        for (const NodeId u : g.neighbors(v))
          if (cur[u].color != kNoColor)
            used[static_cast<std::size_t>(cur[u].color)] = true;
        std::vector<Color> free;
        for (Color c = 0; c < palette; ++c)
          if (!used[static_cast<std::size_t>(c)]) free.push_back(c);
        s.trial = free[hash_mix(seed, g.id(v),
                                static_cast<std::uint64_t>(round)) %
                       free.size()];
        nxt[v] = s;
        continue;
      }
      bool clash = false;
      for (const NodeId u : g.neighbors(v))
        if (cur[u].trial == s.trial || cur[u].color == s.trial) clash = true;
      if (!clash) s.color = s.trial;
      s.trial = kNoColor;
      nxt[v] = s;
    }
    cur.swap(nxt);
  }
  std::vector<Color> color(n);
  for (NodeId v = 0; v < n; ++v) color[v] = cur[v].color;
  return color;
}

// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_workers(), 8);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 1000u}) {
    std::vector<int> hits(size, 0);
    pool.for_range(0, size, [&](int, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0u), size);
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(4);
  std::size_t total = 0;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::size_t> per_worker(4, 0);
    pool.for_range(0, 997, [&](int w, std::size_t b, std::size_t e) {
      per_worker[static_cast<std::size_t>(w)] = e - b;
    });
    total += std::accumulate(per_worker.begin(), per_worker.end(),
                             std::size_t{0});
  }
  EXPECT_EQ(total, 50u * 997u);
}

TEST(SyncRunnerParallel, MisBitIdenticalAcrossWorkersAndReference) {
  for (const Graph& g : family()) {
    const auto expected = reference_mis(g, 55);
    for (const int workers : {1, 2, 8}) {
      RoundLedger ledger;
      const auto got = mis_message_passing(g, 55, ledger, "mis-mp",
                                           EngineOptions{workers});
      EXPECT_EQ(got, expected)
          << "n=" << g.num_nodes() << " workers=" << workers;
      EXPECT_TRUE(is_maximal_independent_set(g, got));
    }
  }
}

TEST(SyncRunnerParallel, ColorTrialBitIdenticalAcrossWorkersAndReference) {
  for (const Graph& g : family()) {
    const auto expected = reference_color_trial(g, 77);
    for (const int workers : {1, 2, 8}) {
      RoundLedger ledger;
      const auto got = color_trial_message_passing(g, 77, ledger, "trial",
                                                   EngineOptions{workers});
      EXPECT_EQ(got, expected)
          << "n=" << g.num_nodes() << " workers=" << workers;
      EXPECT_TRUE(is_proper_coloring(g, got, g.max_degree() + 1));
    }
  }
}

TEST(SyncRunnerParallel, GenericStateBitIdenticalAcrossSchedules) {
  // A round-dependent, neighbor-dependent transition on a custom state:
  // every schedule (worker count) must produce the same
  // trajectory because writes are confined to the shadow buffer.
  struct S {
    std::uint64_t acc = 0;
    bool frozen = false;
    bool operator==(const S&) const = default;
  };
  const Graph g = random_regular(300, 6, 11);
  auto step = [&](const SyncRunner<S>::View& view) {
    S s = view.self();
    if (s.frozen) return s;
    std::uint64_t mix = hash_mix(9, view.id(),
                                 static_cast<std::uint64_t>(view.round()));
    for (const NodeId u : view.neighbors()) mix ^= view.neighbor(u).acc;
    s.acc = splitmix64(mix);
    if (s.acc % 5 == 0) s.frozen = true;
    return s;
  };
  auto never = [](const std::vector<S>&) { return false; };

  SyncRunner<S> serial(g, std::vector<S>(300), EngineOptions{1});
  serial.run(40, step, never);
  for (const int workers : {2, 8}) {
    SyncRunner<S> par(g, std::vector<S>(300), EngineOptions{workers});
    par.run(40, step, never);
    ASSERT_EQ(par.states().size(), serial.states().size());
    for (NodeId v = 0; v < 300; ++v)
      EXPECT_EQ(par.states()[v], serial.states()[v])
          << "workers=" << workers << " node=" << v;
  }
}

// run_classes on one view: a class-keyed schedule over `labels` (labels
// outside [0, classes) are never stepped) must leave exactly the states of
// run_rounds(classes) with a "not my class -> keep state" guard, at every
// worker count. The transition reads neighbor states, so a slot committed
// in round t must be visible in round t + 1 and no earlier.
template <typename ViewT>
void expect_classes_match_rounds(const ViewT& view,
                                 const std::vector<Color>& labels,
                                 int classes) {
  const NodeId n = view.num_nodes();
  std::vector<std::uint64_t> init(n);
  for (NodeId v = 0; v < n; ++v) init[v] = hash_mix(5, v, 0);
  const auto mix = [](const auto& v) {
    std::uint64_t acc = v.self() ^ static_cast<std::uint64_t>(v.round());
    v.for_each_neighbor([&](NodeId u) { acc = hash_mix(acc, v.neighbor(u), u); });
    return acc;
  };
  SyncRunner<std::uint64_t, ViewT> reference(view, init, EngineOptions{1});
  reference.run_rounds(classes, [&](const auto& v) {
    return labels[v.node()] == v.round() ? mix(v) : v.self();
  });
  std::vector<std::size_t> start;
  std::vector<NodeId> nodes;
  bucket_by_class(labels, classes, start, nodes);
  ASSERT_EQ(start.size(), static_cast<std::size_t>(classes) + 1);
  for (const int workers : {1, 2, 3, 8}) {
    SyncRunner<std::uint64_t, ViewT> runner(view, init,
                                            EngineOptions{workers});
    EXPECT_EQ(runner.run_classes(start, nodes, mix), classes);
    EXPECT_EQ(runner.states(), reference.states())
        << "n=" << n << " classes=" << classes << " workers=" << workers;
  }
}

// Labels in [-1, classes) with classes 1 and classes - 2 left empty; -1
// marks nodes outside every class.
std::vector<Color> sparse_labels(NodeId n, int classes, std::uint64_t seed) {
  std::vector<Color> labels(n);
  for (NodeId v = 0; v < n; ++v) {
    Color c = static_cast<Color>(hash_mix(seed, v, 1) %
                                 static_cast<std::uint64_t>(classes + 1)) -
              1;
    if (classes > 2 && (c == 1 || c == classes - 2)) c = 0;
    labels[v] = c;
  }
  return labels;
}

TEST(SyncRunnerParallel, RunClassesMatchesRunRounds) {
  const Graph g = random_regular(300, 6, 21);
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) half.push_back(v);
  const InducedSubgraphView sub(g, half);
  const LineGraphView line(g);
  for (const int classes : {1, 9}) {
    SCOPED_TRACE(classes);
    expect_classes_match_rounds(g, sparse_labels(g.num_nodes(), classes, 1),
                                classes);
    expect_classes_match_rounds(
        sub, sparse_labels(sub.num_nodes(), classes, 2), classes);
    expect_classes_match_rounds(
        line, sparse_labels(line.num_nodes(), classes, 3), classes);
  }
  // One class holding every node: a single full round.
  expect_classes_match_rounds(g, std::vector<Color>(g.num_nodes(), 0), 1);
  // No classes: nothing runs.
  expect_classes_match_rounds(g, std::vector<Color>(g.num_nodes(), -1), 0);
}

TEST(BucketByClass, CountingSortKeepsIndexOrderAndSkipsOutOfRange) {
  const std::vector<Color> labels = {2, 0, -1, 2, 5, 0, 3, 2};
  std::vector<std::size_t> start;
  std::vector<NodeId> nodes;
  bucket_by_class(labels, 4, start, nodes);
  EXPECT_EQ(start, (std::vector<std::size_t>{0, 2, 2, 5, 6}));
  EXPECT_EQ(nodes, (std::vector<NodeId>{1, 5, 0, 3, 7, 6}));
}

TEST(LedgerTime, TotalsAreMonotoneAndPhaseMerged) {
  RoundLedger l;
  double last = 0.0;
  for (int i = 0; i < 10; ++i) {
    l.charge_time(i % 2 == 0 ? "a" : "b", 0.5 * i);
    EXPECT_GE(l.time_total(), last);
    last = l.time_total();
  }
  EXPECT_DOUBLE_EQ(l.time_total(), l.phase_time("a") + l.phase_time("b"));
  EXPECT_DOUBLE_EQ(l.phase_time("missing"), 0.0);

  RoundLedger other;
  other.charge("a", 3);
  other.charge_time("a", 2.0);
  other.charge_time("c", 1.0);
  const double before = l.time_total();
  l.merge(other);
  EXPECT_DOUBLE_EQ(l.time_total(), before + 3.0);
  EXPECT_DOUBLE_EQ(l.phase_time("a"),
                   2.0 + 0.5 * (0 + 2 + 4 + 6 + 8));
  EXPECT_DOUBLE_EQ(l.phase_time("c"), 1.0);
  EXPECT_EQ(l.phase_total("a"), 3);

  // Engine algorithms charge both dimensions under the same phase label.
  RoundLedger run;
  mis_message_passing(cycle_graph(15), 1, run, "mis-mp");
  EXPECT_GT(run.total(), 0);
  EXPECT_GT(run.time_total(), 0.0);
  EXPECT_DOUBLE_EQ(run.time_total(), run.phase_time("mis-mp"));
  EXPECT_NE(run.json().find("\"ms\""), std::string::npos);
}

TEST(LedgerTime, ManyPhasesIndexedLookup) {
  RoundLedger l;
  for (int i = 0; i < 500; ++i) {
    l.charge("phase-" + std::to_string(i), i + 1);
    l.charge_time("phase-" + std::to_string(i), 0.25);
  }
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(l.phase_total("phase-" + std::to_string(i)), i + 1);
  EXPECT_EQ(l.phases().size(), 500u);
  EXPECT_DOUBLE_EQ(l.time_total(), 125.0);
}

}  // namespace
}  // namespace deltacolor
