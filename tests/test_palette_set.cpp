// Oracle-parity and boundary tests for the word-parallel palette kernels
// (common/palette.hpp) and the per-worker scratch arena (common/arena.hpp),
// plus the allocation-counting hook that pins the "no heap allocation in a
// steady-state engine round" contract.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/workloads.hpp"
#include "common/arena.hpp"
#include "common/palette.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/list_coloring.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: every global new/delete in this binary bumps a
// counter. Tests sample the counter around a region and assert on the delta.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace deltacolor {
namespace {

// ---------------------------------------------------------------------------
// PaletteSet vs std::set<Color> oracle
// ---------------------------------------------------------------------------

// Widths straddle the word size: sub-word, exact words, and ragged tails.
const int kWidths[] = {1, 3, 63, 64, 65, 127, 128, 200, 1024};

std::vector<Color> members_of(const PaletteSet& s) {
  std::vector<Color> out;
  s.for_each([&](Color c) { out.push_back(c); });
  return out;
}

TEST(PaletteSet, RandomizedOracleParity) {
  for (const int width : kWidths) {
    PaletteSet set(width);
    std::set<Color> oracle;
    std::uint64_t state = 0x9e3779b97f4a7c15ull + static_cast<unsigned>(width);
    auto draw = [&]() { return state = hash_mix(state, 1, 2); };
    for (int step = 0; step < 500; ++step) {
      const Color c = static_cast<Color>(draw() % static_cast<unsigned>(width));
      if (draw() % 2 == 0) {
        if (!oracle.count(c)) set.insert(c);
        oracle.insert(c);
      } else {
        set.erase(c);
        oracle.erase(c);
      }
      ASSERT_EQ(set.count(), static_cast<int>(oracle.size()));
      ASSERT_EQ(set.contains(c), oracle.count(c) == 1);
      // Full ascending enumeration matches the ordered oracle.
      const std::vector<Color> got = members_of(set);
      const std::vector<Color> want(oracle.begin(), oracle.end());
      ASSERT_EQ(got, want);
      // first_free / nth_free agree with ordered indexing.
      ASSERT_EQ(set.first_free(), want.empty() ? kNoColor : want.front());
      if (!want.empty()) {
        const int k = static_cast<int>(draw() % want.size());
        ASSERT_EQ(set.nth_free(k), want[static_cast<std::size_t>(k)]);
        const std::uint64_t d = draw();
        ASSERT_EQ(set.sample_free(d),
                  want[static_cast<std::size_t>(
                      d % static_cast<std::uint64_t>(want.size()))]);
      }
      ASSERT_EQ(set.nth_free(static_cast<int>(want.size())), kNoColor);
    }
  }
}

TEST(PaletteSet, RemoveAllMatchesSetDifference) {
  for (const int width : {65, 200}) {
    std::uint64_t state = 42;
    auto draw = [&]() { return state = hash_mix(state, 3, 4); };
    for (int trial = 0; trial < 50; ++trial) {
      PaletteSet a(width), b(width);
      std::set<Color> oa, ob;
      for (int i = 0; i < width / 2; ++i) {
        const Color ca =
            static_cast<Color>(draw() % static_cast<unsigned>(width));
        const Color cb =
            static_cast<Color>(draw() % static_cast<unsigned>(width));
        if (oa.insert(ca).second) a.insert(ca);
        if (ob.insert(cb).second) b.insert(cb);
      }
      // intersect_count == |A and B| by oracle.
      std::vector<Color> inter;
      std::set_intersection(oa.begin(), oa.end(), ob.begin(), ob.end(),
                            std::back_inserter(inter));
      EXPECT_EQ(a.intersect_count(b), static_cast<int>(inter.size()));
      a.remove_all(b);
      std::vector<Color> want;
      for (const Color c : oa)
        if (!ob.count(c)) want.push_back(c);
      EXPECT_EQ(members_of(a), want);
    }
  }
}

TEST(PaletteSet, SpanRemoveAllIgnoresNoColorAndOutOfRange) {
  PaletteSet s(10);
  s.fill();
  const Color drops[] = {kNoColor, 3, 100, -5, 7, 10};
  s.remove_all(std::span<const Color>(drops));
  EXPECT_EQ(members_of(s), (std::vector<Color>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(PaletteSet, EmptyPaletteBoundary) {
  PaletteSet s(0);
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.first_free(), kNoColor);
  EXPECT_EQ(s.nth_free(0), kNoColor);
  EXPECT_FALSE(s.contains(0));
  s.fill();  // no-op on width 0
  EXPECT_EQ(s.count(), 0);
  s.erase(5);  // out-of-range erase is a no-op, not UB
  EXPECT_EQ(s.count(), 0);
}

TEST(PaletteSet, FullPaletteAndRaggedTail) {
  for (const int width : kWidths) {
    PaletteSet s(width);
    s.fill();
    ASSERT_EQ(s.count(), width) << "width " << width;
    ASSERT_EQ(s.first_free(), 0);
    ASSERT_EQ(s.nth_free(width - 1), width - 1);
    ASSERT_EQ(s.nth_free(width), kNoColor);
    // fill() must not leak bits above the ragged tail: contains() past the
    // width is false and the count stays exact.
    EXPECT_FALSE(s.contains(width));
    EXPECT_FALSE(s.contains(kNoColor));
  }
}

TEST(PaletteSet, ResetReusesStorageAcrossWidths) {
  PaletteSet s(1024);
  s.fill();
  s.reset(65);  // shrink: stale high words must not resurface
  EXPECT_EQ(s.count(), 0);
  s.insert(64);
  EXPECT_EQ(s.first_free(), 64);
  s.reset(1024);  // grow back within the high-water capacity
  EXPECT_EQ(s.count(), 0);
  EXPECT_FALSE(s.contains(64));
}

// ---------------------------------------------------------------------------
// ColorLists vs nested-vector oracle
// ---------------------------------------------------------------------------

TEST(ColorLists, NestedConversionRoundTrips) {
  const std::vector<std::vector<Color>> nested = {
      {5, 1, 9}, {}, {2}, {7, 7, 0}};
  const ColorLists lists = nested;  // implicit conversion
  ASSERT_EQ(lists.size(), nested.size());
  EXPECT_FALSE(lists.empty());
  std::size_t total = 0;
  for (std::size_t v = 0; v < nested.size(); ++v) {
    const std::span<const Color> got = lists[v];
    ASSERT_EQ(std::vector<Color>(got.begin(), got.end()), nested[v]);
    total += nested[v].size();
  }
  EXPECT_EQ(lists.total_colors(), total);
  EXPECT_EQ(lists.max_color(), 9);
}

TEST(ColorLists, IncrementalBuildMatchesAddList) {
  ColorLists a, b;
  a.push(3);
  a.push(1);
  a.close_list();
  a.close_list();  // empty list for node 1
  a.push(4);
  a.close_list();
  const std::vector<Color> l0 = {3, 1}, l2 = {4};
  b.add_list(l0);
  b.add_list({});
  b.add_list(l2);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) {
    const auto sa = a[v];
    const auto sb = b[v];
    EXPECT_EQ(std::vector<Color>(sa.begin(), sa.end()),
              std::vector<Color>(sb.begin(), sb.end()));
  }
  EXPECT_EQ(a.max_color(), 4);
}

TEST(ColorLists, UniformMatchesManualLoop) {
  const ColorLists lists = ColorLists::uniform(5, 3);
  ASSERT_EQ(lists.size(), 5u);
  for (std::size_t v = 0; v < 5; ++v) {
    const auto span = lists[v];
    EXPECT_EQ(std::vector<Color>(span.begin(), span.end()),
              (std::vector<Color>{0, 1, 2}));
  }
  EXPECT_EQ(lists.max_color(), 2);
  EXPECT_EQ(lists.total_colors(), 15u);
}

TEST(ColorLists, EmptyStates) {
  const ColorLists fresh;
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.total_colors(), 0u);
  EXPECT_EQ(fresh.max_color(), kNoColor);
  // A list of empty lists is non-empty (it has nodes) with no colors.
  const ColorLists hollow = std::vector<std::vector<Color>>{{}, {}};
  EXPECT_FALSE(hollow.empty());
  EXPECT_EQ(hollow.size(), 2u);
  EXPECT_EQ(hollow.total_colors(), 0u);
}

// ---------------------------------------------------------------------------
// SIMD dispatch parity: every supported level computes bit-identically to
// the forced-scalar table on the same palettes, across widths straddling
// the kMinWords dispatch cutoff (8 words = 512 colors).
// ---------------------------------------------------------------------------

struct LevelGuard {
  ~LevelGuard() { simd::reset_level(); }
};

TEST(SimdDispatch, AllLevelsMatchScalarReference) {
  LevelGuard guard;
  const simd::Level levels[] = {simd::Level::kScalar, simd::Level::kAvx2,
                                simd::Level::kNeon};
  const int widths[] = {64, 511, 512, 513, 640, 1000, 4096};
  for (const int width : widths) {
    // Deterministic pseudo-random palettes, plus all-zero / all-one /
    // single-bit-at-the-end edge cases.
    std::vector<std::pair<PaletteSet, PaletteSet>> cases;
    std::uint64_t state = static_cast<std::uint64_t>(width) * 2654435761u;
    auto next = [&]() { return state = hash_mix(state, 5, 7); };
    for (int rep = 0; rep < 4; ++rep) {
      PaletteSet a(width), b(width);
      for (Color c = 0; c < width; ++c) {
        if (next() & 1) a.insert(c);
        if (next() & 2) b.insert(c);
      }
      cases.emplace_back(std::move(a), std::move(b));
    }
    {
      PaletteSet empty(width), full(width), last(width);
      for (Color c = 0; c < width; ++c) full.insert(c);
      last.insert(width - 1);
      cases.emplace_back(empty, full);
      cases.emplace_back(full, empty);
      cases.emplace_back(last, full);
    }

    // Scalar reference pass.
    ASSERT_TRUE(simd::force_level(simd::Level::kScalar));
    struct Ref {
      int count, inter;
      Color first, nth, removed_first;
    };
    std::vector<Ref> ref;
    for (const auto& [a, b] : cases) {
      PaletteSet t = a;
      t.remove_all(b);
      const int cnt = a.count();
      ref.push_back({cnt, a.intersect_count(b), a.first_free(),
                     a.nth_free(cnt > 0 ? cnt - 1 : 0), t.first_free()});
    }

    for (const simd::Level level : levels) {
      if (!simd::level_supported(level)) continue;
      ASSERT_TRUE(simd::force_level(level));
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [a, b] = cases[i];
        PaletteSet t = a;
        t.remove_all(b);
        EXPECT_EQ(a.count(), ref[i].count)
            << simd::to_string(level) << " width=" << width;
        EXPECT_EQ(a.intersect_count(b), ref[i].inter)
            << simd::to_string(level) << " width=" << width;
        EXPECT_EQ(a.first_free(), ref[i].first)
            << simd::to_string(level) << " width=" << width;
        EXPECT_EQ(a.nth_free(ref[i].count > 0 ? ref[i].count - 1 : 0),
                  ref[i].nth)
            << simd::to_string(level) << " width=" << width;
        EXPECT_EQ(t.first_free(), ref[i].removed_first)
            << simd::to_string(level) << " width=" << width;
      }
    }
  }
}

TEST(SimdDispatch, NthFreeOutOfRangeIsNoColorAtEveryLevel) {
  LevelGuard guard;
  const simd::Level levels[] = {simd::Level::kScalar, simd::Level::kAvx2,
                                simd::Level::kNeon};
  PaletteSet s(1024);
  for (Color c = 0; c < 1024; c += 3) s.insert(c);
  const int cnt = s.count();
  for (const simd::Level level : levels) {
    if (!simd::level_supported(level)) continue;
    ASSERT_TRUE(simd::force_level(level));
    EXPECT_EQ(s.nth_free(cnt), kNoColor) << simd::to_string(level);
    EXPECT_EQ(s.nth_free(cnt + 100), kNoColor) << simd::to_string(level);
    EXPECT_EQ(s.nth_free(0), 0) << simd::to_string(level);
  }
}

TEST(SimdDispatch, ForceUnsupportedLevelIsRejected) {
  LevelGuard guard;
  const simd::Level before = simd::active_level();
#if defined(__x86_64__)
  EXPECT_FALSE(simd::force_level(simd::Level::kNeon));
#elif defined(__aarch64__)
  EXPECT_FALSE(simd::force_level(simd::Level::kAvx2));
#endif
  EXPECT_EQ(simd::active_level(), before);
}

// ---------------------------------------------------------------------------
// ScratchArena
// ---------------------------------------------------------------------------

TEST(ScratchArena, AllocationsAre32ByteAligned) {
  // SIMD kernels may use aligned vector loads on arena-carved scratch, so
  // every allocation lands on a 32-byte absolute address — including small
  // types, overflow-path blocks, and re-used capacity after reset().
  ScratchArena arena;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t count : {1u, 7u, 64u, 1000u}) {
      const auto* bytes = arena.alloc<std::uint8_t>(count);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes) %
                    ScratchArena::kMinAlign,
                0u);
      const auto* words = arena.alloc<std::uint64_t>(count);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) %
                    ScratchArena::kMinAlign,
                0u);
    }
    arena.reset();  // coalesces overflow; next round exercises warm path
  }
}

TEST(ScratchArena, FrameRestoresBumpPointer) {
  ScratchArena arena;
  {
    ScratchArena::Frame warm(arena);
    warm.alloc<int>(1024);
  }
  arena.reset();  // coalesce: the primary buffer now has capacity
  {
    ScratchArena::Frame outer(arena);
    int* a = outer.alloc<int>(8);
    ASSERT_NE(a, nullptr);
    const std::size_t after_outer = arena.used();
    {
      ScratchArena::Frame inner(arena);
      double* b = inner.alloc<double>(4);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
      EXPECT_GT(arena.used(), after_outer);
    }
    EXPECT_EQ(arena.used(), after_outer);
  }
  EXPECT_EQ(arena.used(), 0u);
}

TEST(ScratchArena, OverflowCoalescesAtReset) {
  ScratchArena arena;
  arena.reset();
  const std::size_t before_growth = arena.growth_count();
  {
    ScratchArena::Frame f(arena);
    // Force repeated overflow in one epoch; writes must not alias.
    std::uint64_t* p1 = f.alloc<std::uint64_t>(1000);
    std::uint64_t* p2 = f.alloc<std::uint64_t>(2000);
    std::uint64_t* p3 = f.alloc<std::uint64_t>(4000);
    for (int i = 0; i < 1000; ++i) p1[i] = 1;
    for (int i = 0; i < 2000; ++i) p2[i] = 2;
    for (int i = 0; i < 4000; ++i) p3[i] = 3;
    EXPECT_EQ(p1[999], 1u);
    EXPECT_EQ(p2[0], 2u);
    EXPECT_EQ(p3[3999], 3u);
  }
  EXPECT_GT(arena.growth_count(), before_growth);
  arena.reset();  // coalesce: capacity now covers the whole epoch
  const std::size_t warm_growth = arena.growth_count();
  const std::size_t warm_capacity = arena.capacity();
  {
    ScratchArena::Frame f(arena);
    f.alloc<std::uint64_t>(1000);
    f.alloc<std::uint64_t>(2000);
    f.alloc<std::uint64_t>(4000);
  }
  EXPECT_EQ(arena.growth_count(), warm_growth) << "warm epoch re-grew";
  EXPECT_EQ(arena.capacity(), warm_capacity);
}

// Overflow blocks come from the heap, which aligns them to ~16 bytes only,
// so the padding a 32-byte-aligned request needs depends on the block's
// address, not just on the bump offset. The fit check must count that
// padding: every byte handed out is written here, and a request that
// spills past its block's end corrupts the neighboring heap chunk (glibc
// aborts when the block is freed; sanitizers flag the write). Mixed
// request sizes (the neighbor-row tables of varying degree that Linial's
// step carves) are what reach a block's last bytes with a short padding
// estimate.
TEST(ScratchArena, OverflowAllocationsFitTheirBlock) {
  Rng rng(17);
  for (int trial = 0; trial < 64; ++trial) {
    // Shifts the heap so the blocks below land at varying addresses.
    std::vector<std::byte> shift(static_cast<std::size_t>(16 * trial + 1));
    ScratchArena arena;
    arena.reset();
    {
      ScratchArena::Frame f(arena);
      for (int i = 0; i < 2000; ++i) {
        const std::size_t count = 1 + rng.below(16);
        std::uint64_t* p = f.alloc<std::uint64_t>(count);
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % ScratchArena::kMinAlign,
                  0u);
        std::memset(p, 0xab, count * sizeof(std::uint64_t));
      }
    }
    arena.reset();  // folds (and frees) the overflow blocks
  }
}

TEST(ScratchArena, ManySmallOverflowsStayGeometric) {
  // A cold chunk with thousands of small frames must open O(log) overflow
  // blocks, not one per frame (the bump-within-last-block path).
  ScratchArena arena;
  arena.reset();
  {
    ScratchArena::Frame f(arena);
    f.alloc<std::byte>(1);  // consume the (empty) primary buffer
    for (int i = 0; i < 10000; ++i) {
      int* p = f.alloc<int>(16);
      p[0] = i;
    }
  }
  EXPECT_LT(arena.growth_count(), 16u);
}

// ---------------------------------------------------------------------------
// Steady-state allocation contract
// ---------------------------------------------------------------------------

// A linial-style step: per node, carve (degree+1) scratch from the frame and
// fold neighbor states through it. Once the arena and engine buffers are
// warm, additional rounds must perform zero heap allocations.
TEST(SteadyState, EngineRoundsAreAllocationFree) {
  const Graph g = random_regular(64, 6, 1);
  using State = std::uint32_t;  // unsigned: the mixing below may wrap
  std::vector<State> init(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) init[v] = static_cast<State>(v);
  SyncRunner<State> runner(g, init, EngineOptions{.num_threads = 1});
  auto step = [](const SyncRunner<State>::View& view) {
    ScratchArena::Frame frame(ScratchArena::local());
    const std::size_t n = static_cast<std::size_t>(view.degree()) + 1;
    State* scratch = frame.alloc<State>(n);
    std::size_t i = 0;
    scratch[i++] = view.self();
    for (const NodeId u : view.neighbors()) scratch[i++] = view.neighbor(u);
    State acc = static_cast<State>(view.round());
    for (std::size_t j = 0; j < i; ++j) acc ^= scratch[j] * 31;
    return acc;
  };
  auto never = [](const std::vector<State>&) { return false; };
  runner.run(4, step, never);  // warm-up: arena reaches high water
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const int rounds = runner.run(64, step, never);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(rounds, 64);
  EXPECT_EQ(after - before, 0u)
      << "warm engine rounds must not touch the heap";
}

// Class-keyed rounds (run_classes) over a reused bucket: once warm, further
// schedules allocate nothing — neither the bucketing, nor the steps, nor the
// per-class commits.
TEST(SteadyState, ClassRoundsAreAllocationFree) {
  const Graph g = random_regular(64, 6, 1);
  std::vector<Color> labels(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    labels[v] = static_cast<Color>(v % 7);
  std::vector<std::size_t> start;
  std::vector<NodeId> nodes;
  using State = std::uint32_t;  // unsigned: the mixing below may wrap
  SyncRunner<State> runner(g, std::vector<State>(g.num_nodes(), 0),
                           EngineOptions{.num_threads = 1});
  auto step = [](const SyncRunner<State>::View& view) {
    ScratchArena::Frame frame(ScratchArena::local());
    State* scratch =
        frame.alloc<State>(static_cast<std::size_t>(view.degree()));
    std::size_t i = 0;
    for (const NodeId u : view.neighbors()) scratch[i++] = view.neighbor(u);
    State acc = view.self() + static_cast<State>(view.round());
    for (std::size_t j = 0; j < i; ++j) acc ^= scratch[j] * 31;
    return acc;
  };
  bucket_by_class(labels, 7, start, nodes);  // warm-up
  runner.run_classes(start, nodes, step);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  int rounds = 0;
  for (int rep = 0; rep < 8; ++rep) {
    bucket_by_class(labels, 7, start, nodes);
    rounds += runner.run_classes(start, nodes, step);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(rounds, 56);
  EXPECT_EQ(after - before, 0u)
      << "warm class rounds must not touch the heap";
}

// End-to-end: repeated warm runs of the deg+1 list-coloring engine allocate
// a flat amount (setup only — state buffers, result vector), i.e. the
// per-round path adds nothing. Asserting run2 == run3 avoids counting the
// one-time thread_local/arena warm-up of the first run.
TEST(SteadyState, DegPlusOneAllocationsFlatAcrossWarmRuns) {
  const Graph g = bench::hard_instance(32, 12, 5).graph;
  const ColorLists lists = uniform_lists(g, g.max_degree() + 1);
  auto run_once = [&]() {
    RoundLedger ledger;
    LocalContext ctx(ledger, EngineOptions{.num_threads = 1}, 7);
    std::vector<Color> color(g.num_nodes(), kNoColor);
    NodeMask active(g.num_nodes(), 1);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    deg_plus_one_list_color(g, active, lists, color, ctx);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  run_once();  // warm-up
  const std::size_t second = run_once();
  const std::size_t third = run_once();
  EXPECT_EQ(second, third);
}

}  // namespace
}  // namespace deltacolor
