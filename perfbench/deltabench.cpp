// deltabench: runs one workload of the deltacolor benchmark in this process.
//
//   deltabench --workload det-hard|rand-mixed|trial-wide --seed N
//              --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//              [--commit SHA]
//
// --trace 0 times whole coloring calls with no instrumentation and prints
// the end-to-end metrics. --trace 1 runs the same workload with a span
// around every call into a library layer, prints the per-layer metrics and
// the per-layer self times, and writes a Chrome trace-event file. Spans are
// recorded here, around public library calls; the library is not changed.
// The last stdout line is the result object
//   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/palette.hpp"
#include "common/simd.hpp"
#include "deltacolor.hpp"

namespace {

namespace dc = deltacolor;
using Clock = std::chrono::steady_clock;

constexpr int kBlowupDelta = 16;
// Instances per run, each from its own seed derived from the workload seed.
// Colorings cycle through them, so a run's medians average over instances
// rather than ride on one, and setup_s is the median of their set-ups.
constexpr int kInstances = 5;
// local_rounds and local.rounds.* are medians over the colorings of the
// first kRoundSeeds seeds, which every run performs, so they repeat exactly.
constexpr int kRoundSeeds = 45;
// color_ms_tail's percentile. A fixed one, so that it cannot flip between
// runs whose coloring counts straddle a threshold; at the benchmark's run
// length it keeps >= 10 colorings beyond it on every workload (the run
// falls back to a lower percentile, and says so, when it does not).
constexpr double kTailPercentile = 90.0;
// Palette widths of the common.palette_sample_ns probes: a Delta = 16
// blow-up's Delta + 1, and about trial-wide's Delta + 1 (G(4096, 0.15) has
// Delta ~ 700). PaletteSet switches to the SIMD kernels at 512 colors.
constexpr int kNarrowPalette = 17;
constexpr int kWidePalette = 719;
// Below this host.parallel_efficiency the run is flagged as contended.
constexpr double kContendedEfficiency = 0.8;
constexpr int kRerunTrack = 1;  // trace track of attribution/W-worker re-runs

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// splitmix64 of (seed, i): every instance and per-coloring seed derives
// from the workload seed through this, independent of library RNG code.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", x);
  return buf;
}

// ------------------------------------------------------------------ host

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned k = 0; k < 3; ++k)
      __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

volatile std::uint64_t g_sink = 0;

std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < 3'000'000; ++i) x = mix(x, i);
  return x;
}

double spin_seconds(int threads) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int k = 1; k < threads; ++k)
    pool.emplace_back([&out, k] { out[static_cast<std::size_t>(k)] = spin(k); });
  out[0] = spin(0);
  for (std::thread& t : pool) t.join();
  const double s = ms_between(t0, Clock::now()) / 1e3;
  for (const std::uint64_t x : out) g_sink = g_sink ^ x;
  return s;
}

// A fixed CPU loop on 1 thread vs the same loop on each of `workers`
// threads at once: 1.0 means every worker got a whole core. A host
// condition, not a program metric.
double parallel_efficiency(int workers) {
  double one = 1e30, many = 1e30;
  for (int r = 0; r < 3; ++r) {
    one = std::min(one, spin_seconds(1));
    many = std::min(many, spin_seconds(workers));
  }
  return one / many;
}

// ----------------------------------------------------------------- spans

struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int coloring = -1;
  int track = 0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// In-memory span log; written out once the run ends.
class Tracer {
 public:
  int begin(std::string name, int parent, int track) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, coloring_, track});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  double ms(int id) const {
    const SpanRec& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  void set_coloring(int i) { coloring_ = i; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  int coloring_ = -1;
};

// Times its scope as one span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, const char* name, int parent, int track = 0)
      : t_(t), id_(t != nullptr ? t->begin(name, parent, track) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

std::string layer_of(const std::string& span) {
  const auto dot = span.find('.');
  return dot == std::string::npos ? "bench" : span.substr(0, dot);
}

// Per-root aggregates of a span log: for every root span named
// `root_name`, the summed duration of each span name in its tree and the
// self time (duration minus direct children) of each layer.
struct TreeStats {
  std::size_t roots = 0;
  std::map<std::string, std::vector<double>> total_ms;
  std::map<std::string, std::vector<double>> self_ms;

  double median_total(const std::string& name) const {
    const auto it = total_ms.find(name);
    return it == total_ms.end() ? 0.0 : median(it->second);
  }
  double median_self(const std::string& layer) const {
    const auto it = self_ms.find(layer);
    return it == self_ms.end() ? 0.0 : median(it->second);
  }
};

TreeStats tree_stats(const Tracer& t, const std::string& root_name) {
  const auto& spans = t.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<int> root_index(spans.size(), -1);
  TreeStats st;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) {
      if (spans[i].name == root_name)
        root_index[i] = static_cast<int>(st.roots++);
    } else {
      root_index[i] = root_index[static_cast<std::size_t>(p)];
      child_ms[static_cast<std::size_t>(p)] += t.ms(static_cast<int>(i));
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root_index[i] < 0) continue;
    const auto r = static_cast<std::size_t>(root_index[i]);
    auto& tot = st.total_ms[spans[i].name];
    auto& self = st.self_ms[layer_of(spans[i].name)];
    tot.resize(st.roots, 0.0);
    self.resize(st.roots, 0.0);
    tot[r] += t.ms(static_cast<int>(i));
    self[r] += t.ms(static_cast<int>(i)) - child_ms[i];
  }
  return st;
}

// ------------------------------------------------------------- workloads

enum class Kind { kDet, kRand, kTrial };

struct Args {
  std::string workload;
  Kind kind = Kind::kDet;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

struct Bench {
  Args args;
  int host_workers = 1;  // W = min(4, nproc)
  std::vector<std::string> dcsr_paths;
  std::vector<dc::Graph> graphs;
  std::vector<double> setup_s;
  int attempted = 0;
  int failed = 0;
  Clock::time_point last_progress = Clock::now();

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    if (ms_between(last_progress, Clock::now()) > 1000.0) {
      std::cout << "progress attempted=" << attempted << std::endl;
      last_progress = Clock::now();
    }
  }
  // Coloring i runs on instance i mod kInstances with seed coloring_seed(i).
  const dc::Graph& graph_for(int i) const {
    return graphs[static_cast<std::size_t>(i) % graphs.size()];
  }
  std::uint64_t coloring_seed(int i) const {
    return mix(mix(args.seed, 1), static_cast<std::uint64_t>(i));
  }
};

dc::Graph generate(const Args& a, int k) {
  const std::uint64_t s = mix(mix(a.seed, 0), static_cast<std::uint64_t>(k));
  if (a.kind == Kind::kTrial) return dc::random_graph(a.smoke ? 256 : 4096, 0.15, s);
  dc::CliqueInstanceOptions o;
  o.num_cliques = a.smoke ? 64 : 2048;
  o.delta = o.clique_size = kBlowupDelta;
  o.easy_fraction = a.kind == Kind::kRand ? 0.25 : 0.0;
  o.seed = s;
  return dc::clique_blowup_instance(o).graph;
}

dc::DeltaColoringOptions det_options() {
  dc::DeltaColoringOptions opt = dc::scaled_options(kBlowupDelta);
  opt.engine.num_threads = 1;
  opt.verify = false;  // the benchmark checks every coloring itself
  return opt;
}

dc::RandomizedOptions rand_options(std::uint64_t seed) {
  dc::RandomizedOptions opt = dc::scaled_randomized_options(kBlowupDelta, seed);
  opt.engine.num_threads = 1;
  opt.verify = false;
  return opt;
}

std::vector<dc::Color> trial_coloring(const dc::Graph& g, std::uint64_t seed,
                                      int workers, dc::RoundLedger& ledger) {
  dc::EngineOptions engine;
  engine.num_threads = workers;
  return dc::color_trial_message_passing(g, seed, ledger, "color-trial-mp",
                                         engine);
}

struct Outcome {
  bool ok = false;
  std::vector<dc::Color> color;
  dc::RoundLedger ledger;
};

// One coloring call on the loaded instance plus its verification: what a
// user pays for a checked Delta-coloring (or (Delta+1)-coloring on
// trial-wide). A thrown error counts as a failed coloring.
Outcome color_once(const Bench& b, int i) {
  const dc::Graph& g = b.graph_for(i);
  Outcome out;
  try {
    switch (b.args.kind) {
      case Kind::kDet: {
        dc::DeltaColoringResult r = dc::delta_color_dense(g, det_options());
        out.ok = dc::is_delta_coloring(g, r.color);
        out.color = std::move(r.color);
        out.ledger = std::move(r.ledger);
        break;
      }
      case Kind::kRand: {
        dc::RandomizedResult r =
            dc::randomized_delta_color(g, rand_options(b.coloring_seed(i)));
        out.ok = dc::is_delta_coloring(g, r.color);
        out.color = std::move(r.color);
        out.ledger = std::move(r.ledger);
        break;
      }
      case Kind::kTrial:
        out.color = trial_coloring(g, b.coloring_seed(i), 1, out.ledger);
        out.ok = dc::is_proper_coloring(g, out.color, g.max_degree() + 1);
        break;
    }
  } catch (const std::exception& e) {
    std::cerr << "coloring " << i << " failed: " << e.what() << "\n";
    out.ok = false;
  }
  return out;
}

// Set up instance k: generate it, write it as .dcsr, mmap-load it, then
// one warm-up coloring (lazy pool spawn, first-touch pages), timed into
// setup_s. The library only ever sees the loaded graph.
void setup(Bench& b, Tracer* t, int k) {
  const auto t0 = Clock::now();
  const int root = t != nullptr ? t->begin("setup", -1, 0) : -1;
  const std::string path = b.args.work_dir + "/" + b.args.workload + "-" +
                           std::to_string(getpid()) + "-" +
                           std::to_string(k) + ".dcsr";
  b.dcsr_paths.push_back(path);
  {
    dc::Graph g;
    {
      Span s(t, "graph.generate", root);
      g = generate(b.args, k);
    }
    Span s(t, "graph.csr_write", root);
    dc::write_csr_file(path, g);
  }
  {
    Span s(t, "graph.csr_load", root);
    b.graphs.push_back(dc::load_csr_file(path));
  }
  {
    Span s(t, "bench.warmup", root);
    b.record(color_once(b, k).ok);
  }
  if (t != nullptr) t->end(root);
  b.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
}

// trial-wide's bit-identity invariant, checked from outside: the W-worker
// and 1-worker colorings of one seed must be equal element for element.
bool trial_bit_identical(const Bench& b, int i) {
  dc::RoundLedger l1, lw;
  return trial_coloring(b.graph_for(i), b.coloring_seed(i), 1, l1) ==
         trial_coloring(b.graph_for(i), b.coloring_seed(i), b.host_workers, lw);
}

// ---------------------------------------------------------- result output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Bench& b, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (b.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << b.attempted << ", \"failed\": " << b.failed
     << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k)
    os << (k ? ", " : "") << "\"" << metrics[k].name << "\": {\"value\": "
       << num(metrics[k].value) << ", \"unit\": \"" << metrics[k].unit
       << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::string host_json(const Bench& b, double eff_before, double eff_after) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << cpu_model() << "\", \"nproc\": " << nproc()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"simd\": \"" << dc::simd::to_string(dc::simd::active_level())
     << "\", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << DELTABENCH_BUILD_TYPE << "\", \"flags\": \"" << DELTABENCH_FLAGS
     << "\", \"commit\": \"" << b.args.commit << "\", \"workers\": "
     << b.host_workers << ", \"parallel_efficiency_before\": "
     << num(eff_before) << ", \"parallel_efficiency_after\": "
     << num(eff_after) << ", \"contended\": "
     << (std::min(eff_before, eff_after) < kContendedEfficiency ? "true"
                                                                : "false")
     << "}";
  return os.str();
}

void print_host(const Bench& b, double eff_before, double eff_after) {
  std::cout << "host " << host_json(b, eff_before, eff_after) << "\n";
  if (std::min(eff_before, eff_after) < kContendedEfficiency)
    std::cout << "WARNING host contended: parallel efficiency "
              << num(eff_before) << " before, " << num(eff_after)
              << " after, at " << b.host_workers << " threads\n";
}

void print_instances(const Bench& b) {
  for (std::size_t k = 0; k < b.graphs.size(); ++k)
    std::cout << "workload " << b.args.workload << " seed=" << b.args.seed
              << " instance=" << k << " n=" << b.graphs[k].num_nodes()
              << " m=" << b.graphs[k].num_edges()
              << " delta=" << b.graphs[k].max_degree() << "\n";
}

// ------------------------------------------------------ end-to-end (trace 0)

void run_end_to_end(Bench& b) {
  const double eff_before = parallel_efficiency(b.host_workers);
  for (int k = 0; k < kInstances; ++k) setup(b, nullptr, k);
  print_instances(b);

  std::vector<double> ms;
  std::vector<double> rounds;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(b.args.seconds);
  for (int i = 0; i < kRoundSeeds || Clock::now() < deadline; ++i) {
    const auto t0 = Clock::now();
    const Outcome o = color_once(b, i);
    ms.push_back(ms_between(t0, Clock::now()));
    b.record(o.ok);
    if (i < kRoundSeeds) rounds.push_back(static_cast<double>(o.ledger.total()));
  }
  if (b.args.kind == Kind::kTrial) b.record(trial_bit_identical(b, 0));
  const double eff_after = parallel_efficiency(b.host_workers);

  // Tail: kTailPercentile, or the highest lower one with >= 10 colorings
  // beyond it (nearest rank).
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  double tail_p = 100.0, tail = sorted.back();
  std::size_t beyond = 0;
  for (const double p : {kTailPercentile, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && n - rank >= 10) {
      tail_p = p;
      tail = sorted[rank - 1];
      beyond = n - rank;
      break;
    }
  }
  double sum_ms = 0;
  for (const double x : ms) sum_ms += x;

  print_host(b, eff_before, eff_after);
  std::cout << "colorings=" << n << " color_ms_tail=p" << num(tail_p) << " ("
            << beyond << " beyond) failed_ratio="
            << num(static_cast<double>(b.failed) / b.attempted) << " ("
            << b.failed << "/" << b.attempted << ")\n";

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  print_result(b, {
      {"color_ms_p50", median(ms), "ms"},
      {"color_ms_tail", tail, "ms"},
      {"nodes_per_s", b.graphs[0].num_nodes() * (n / (sum_ms / 1e3)), "nodes/s"},
      {"setup_s", median(b.setup_s), "s"},
      {"local_rounds", median(rounds), "rounds"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"verified_ratio",
       static_cast<double>(b.attempted - b.failed) / b.attempted, "1"},
  });
}

// ------------------------------------------------------- per-layer (trace 1)

// Phases whose exact per-coloring round counts are reported as
// local.rounds.<phase>; rounds of any other phase go to local.rounds.other.
const std::vector<std::string> kRoundPhases = {
    "acd",
    "loopholes",
    // Algorithm 2 (det-hard)
    "phase1-heg",
    "phase1-matching",
    "phase2-split",
    "phase3-triads",
    "phase4a-pairs",
    "phase4b-rest",
    // Algorithm 4 (rand-mixed)
    "rand-preshattering",
    "rand-layering",
    "rand-postshattering",
    "rand-postprocessing",
    "rand-easy-bfs",
    "rand-easy-layers",
    "rand-easy-loopholes",
    "rand-easy-ruling",
    // color trials (trial-wide)
    "color-trial-mp",
};

using Samples = std::map<std::string, std::vector<double>>;

void sample_rounds(const dc::RoundLedger& ledger, int i, Samples& s) {
  if (i >= kRoundSeeds) return;
  std::int64_t listed = 0;
  for (const std::string& p : kRoundPhases) {
    s["local.rounds." + p].push_back(static_cast<double>(ledger.phase_total(p)));
    listed += ledger.phase_total(p);
  }
  s["local.rounds.other"].push_back(static_cast<double>(ledger.total() - listed));
}

// The steps delta_color_dense takes, called one by one with a span each.
bool traced_det(const Bench& b, Tracer& t, int root, int i, Samples& s,
                std::vector<dc::Color>& color) {
  const dc::Graph& g = b.graph_for(i);
  const dc::DeltaColoringOptions opt = det_options();
  dc::RoundLedger ledger;
  dc::LocalContext lctx(ledger, opt.engine, opt.hard.seed);
  color.assign(g.num_nodes(), dc::kNoColor);
  dc::Acd acd;
  {
    Span sp(&t, "acd.compute", root);
    acd = dc::compute_acd(g, ledger, opt.acd);
  }
  dc::LoopholeSet loopholes;
  {
    Span sp(&t, "core.loopholes", root);
    loopholes = dc::find_loopholes_dense(g, acd, ledger);
  }
  dc::Hardness hardness;
  dc::HardColoringOutcome outcome;
  int retries = 0;
  for (int attempt = 0;; ++attempt) {
    {
      Span sp(&t, "core.hardness", root);
      hardness = dc::classify_hardness(g, acd, loopholes);
    }
    {
      Span sp(&t, "core.hard_coloring", root);
      std::fill(color.begin(), color.end(), dc::kNoColor);
      outcome = dc::color_hard_cliques(g, acd, hardness, color, opt.hard, lctx);
    }
    if (!outcome.retry_needed()) break;
    if (attempt >= opt.max_retries)
      throw std::runtime_error("demotion retries exceeded");
    for (const dc::Loophole& l : outcome.demotions) loopholes.add(g, l);
    ++retries;
  }
  {
    Span sp(&t, "core.easy_coloring", root);
    dc::color_easy_and_loopholes(g, loopholes, color, lctx);
  }
  bool ok = false;
  {
    Span sp(&t, "graph.check", root);
    ok = dc::is_delta_coloring(g, color);
  }
  t.end(root);
  s["acd.cliques"].push_back(acd.num_cliques());
  s["core.hard_cliques"].push_back(hardness.num_hard);
  s["core.easy_cliques"].push_back(hardness.num_easy);
  s["core.demotion_retries"].push_back(retries);
  s["core.heg_ratio"].push_back(outcome.stats.heg_ratio);
  sample_rounds(ledger, i, s);
  return ok;
}

// randomized_delta_color as one span, then the ACD, loophole and hardness
// steps it starts with re-run on their own as its children (on the re-run
// track), so that its self time is the randomized layer's own work.
bool traced_rand(const Bench& b, Tracer& t, int root, int i, Samples& s,
                 std::vector<dc::Color>& color) {
  const dc::Graph& g = b.graph_for(i);
  const dc::RandomizedOptions opt = rand_options(b.coloring_seed(i));
  dc::RandomizedResult r;
  int rid = -1;
  {
    Span sp(&t, "randomized.delta_color", root);
    rid = sp.id();
    r = dc::randomized_delta_color(g, opt);
  }
  bool ok = false;
  {
    Span sp(&t, "graph.check", root);
    ok = dc::is_delta_coloring(g, r.color);
  }
  t.end(root);
  dc::RoundLedger scratch;
  dc::Acd acd;
  {
    Span sp(&t, "acd.compute", rid, kRerunTrack);
    acd = dc::compute_acd(g, scratch, opt.acd);
  }
  dc::LoopholeSet loopholes;
  {
    Span sp(&t, "core.loopholes", rid, kRerunTrack);
    loopholes = dc::find_loopholes_dense(g, acd, scratch);
  }
  {
    Span sp(&t, "core.hardness", rid, kRerunTrack);
    dc::classify_hardness(g, acd, loopholes);
  }
  const dc::RandomizedStats& st = r.stats;
  s["acd.cliques"].push_back(acd.num_cliques());
  s["core.hard_cliques"].push_back(st.num_hard);
  s["core.easy_cliques"].push_back(st.num_easy);
  s["randomized.preshattering_ms"].push_back(r.ledger.phase_time("rand-preshattering"));
  s["randomized.postprocessing_ms"].push_back(r.ledger.phase_time("rand-postprocessing"));
  s["randomized.easy_ms"].push_back(r.ledger.phase_time("rand-easy"));
  s["randomized.tnode_success"].push_back(
      st.num_hard > 0 ? static_cast<double>(st.tnodes_placed) / st.num_hard : 0.0);
  s["randomized.failed_cliques"].push_back(st.failed_cliques);
  sample_rounds(r.ledger, i, s);
  color = std::move(r.color);
  return ok;
}

// The 1-worker trial coloring (the end-to-end call) as one span, then the
// same call at W workers on the re-run track; the two colorings must be
// identical.
bool traced_trial(const Bench& b, Tracer& t, int root, int i, Samples& s,
                  std::vector<dc::Color>& color) {
  const dc::Graph& g = b.graph_for(i);
  dc::RoundLedger ledger;
  int tid = -1;
  {
    Span sp(&t, "local.trial_serial", root);
    tid = sp.id();
    color = trial_coloring(g, b.coloring_seed(i), 1, ledger);
  }
  bool ok = false;
  {
    Span sp(&t, "graph.check", root);
    ok = dc::is_proper_coloring(g, color, g.max_degree() + 1);
  }
  t.end(root);
  dc::RoundLedger parallel_ledger;
  std::vector<dc::Color> parallel;
  {
    Span sp(&t, "local.trial", -1, kRerunTrack);
    parallel = trial_coloring(g, b.coloring_seed(i), b.host_workers,
                              parallel_ledger);
  }
  if (parallel != color) {
    std::cerr << "coloring " << i << ": 1-worker and " << b.host_workers
              << "-worker trial colorings differ\n";
    ok = false;
  }
  s["local.round_us"].push_back(1e3 * t.ms(tid) /
                                std::max<std::int64_t>(1, ledger.total()));
  sample_rounds(ledger, i, s);
  return ok;
}

// One empty for_range over W chunks of the shared pool: the fork/join
// price every engine stage pays.
double pool_forkjoin_us(int workers) {
  dc::ThreadPool& pool = dc::ThreadPool::shared(workers);
  const dc::ThreadPool::RangeFn noop = [](int, std::size_t, std::size_t) {};
  std::vector<double> us;
  for (int r = 0; r < 2000; ++r) {
    const auto t0 = Clock::now();
    pool.for_range(0, static_cast<std::size_t>(workers), noop);
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

// One node's trial step on a PaletteSet of `width` colors: reset, fill,
// erase width-1 neighbor colors (with repeats), sample a free color.
double palette_sample_ns(int width) {
  std::vector<dc::Color> nbr(static_cast<std::size_t>(width - 1));
  std::uint64_t state = 7;
  for (dc::Color& c : nbr) c = static_cast<dc::Color>(mix(state++, 0) % width);
  dc::PaletteSet ps;
  const int reps = std::max(200, 400000 / width);
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int batch = 0; batch < 9; ++batch) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      ps.reset(width);
      ps.fill();
      for (const dc::Color c : nbr) ps.erase(c);
      sink += static_cast<std::uint64_t>(ps.sample_free(mix(state++, 1)));
    }
    batches.push_back(ms_between(t0, Clock::now()) * 1e6 / reps);
  }
  g_sink = g_sink ^ sink;
  return median(batches);
}

void write_trace(const Bench& b, const Tracer& t, const std::string& path,
                 const std::string& host) {
  std::ofstream f(path);
  const std::int64_t t0 = t.spans().empty() ? 0 : t.spans().front().start_ns;
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
    << b.args.workload << "\", \"seed\": " << b.args.seed
    << ", \"host\": " << host << "}, \"traceEvents\": [\n"
    << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
       "\"args\": {\"name\": \"colorings\"}},\n"
    << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
       "\"args\": {\"name\": \"re-runs (attribution, W workers)\"}}";
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const SpanRec& s = t.spans()[i];
    f << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"" << layer_of(s.name)
      << "\", \"ph\": \"X\", \"ts\": " << num((s.start_ns - t0) / 1e3)
      << ", \"dur\": " << num((s.end_ns - s.start_ns) / 1e3)
      << ", \"pid\": 1, \"tid\": " << s.track + 1 << ", \"args\": {\"span\": "
      << i << ", \"parent\": " << s.parent << ", \"coloring\": "
      << s.coloring << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write trace file " + path);
}

void run_traced(Bench& b) {
  const double eff_before = parallel_efficiency(b.host_workers);
  Tracer t;
  for (int k = 0; k < kInstances; ++k) {
    t.set_coloring(k);
    setup(b, &t, k);
  }
  print_instances(b);

  // Each seed is colored twice, untraced (the reference for the tracing
  // overhead) and traced, in alternating order, so that both see the same
  // host conditions and neither always runs on a warm cache.
  std::vector<double> ref_ms;
  std::vector<dc::Color> ref_color, first_color;
  Samples s;
  const auto untraced = [&](int i) {
    const auto t0 = Clock::now();
    Outcome o = color_once(b, i);
    ref_ms.push_back(ms_between(t0, Clock::now()));
    b.record(o.ok);
    if (i == 0) ref_color = std::move(o.color);
  };
  const auto traced = [&](int i) {
    t.set_coloring(i);
    std::vector<dc::Color> color;
    bool ok = false;
    const int root = t.begin("coloring", -1, 0);
    try {
      switch (b.args.kind) {
        case Kind::kDet:
          ok = traced_det(b, t, root, i, s, color);
          break;
        case Kind::kRand:
          ok = traced_rand(b, t, root, i, s, color);
          break;
        case Kind::kTrial:
          ok = traced_trial(b, t, root, i, s, color);
          break;
      }
    } catch (const std::exception& e) {
      std::cerr << "traced coloring " << i << " failed: " << e.what() << "\n";
      ok = false;
    }
    if (t.spans()[static_cast<std::size_t>(root)].end_ns == 0) t.end(root);
    b.record(ok);
    if (i == 0) first_color = std::move(color);
  };
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(b.args.seconds);
  for (int i = 0; i < kRoundSeeds || Clock::now() < deadline; ++i) {
    if (i % 2 == 0) {
      untraced(i);
      traced(i);
    } else {
      traced(i);
      untraced(i);
    }
  }
  if (b.args.kind == Kind::kDet && first_color != ref_color)
    std::cout << "WARNING traced det composition differs from "
                 "delta_color_dense; the layer attribution is stale\n";

  const double forkjoin = pool_forkjoin_us(b.host_workers);
  const double pal_narrow = palette_sample_ns(kNarrowPalette);
  const double pal_wide = palette_sample_ns(kWidePalette);
  const double eff_after = parallel_efficiency(b.host_workers);

  const TreeStats setup_st = tree_stats(t, "setup");
  const TreeStats col = tree_stats(t, "coloring");
  const TreeStats parallel = tree_stats(t, "local.trial");
  const double traced_p50 = col.median_total("coloring");
  const double ref_p50 = median(ref_ms);
  const double trial_ms = parallel.median_total("local.trial");
  const double serial_ms = col.median_total("local.trial_serial");
  const auto med = [&s](const std::string& k) {
    const auto it = s.find(k);
    return it == s.end() ? 0.0 : median(it->second);
  };

  print_host(b, eff_before, eff_after);
  std::cout << "traced colorings=" << col.roots << " untraced reference="
            << ref_ms.size() << "\n";
  std::cout << "self time per layer (median ms over traced colorings):\n";
  double self_sum = 0;
  for (const char* layer : {"bench", "graph", "acd", "core", "randomized", "local"}) {
    const double v = col.median_self(layer);
    self_sum += v;
    std::cout << "  self." << layer << "_ms " << num(v) << "\n";
  }
  std::cout << "  sum_of_self_ms " << num(self_sum) << "  traced_coloring_ms "
            << num(traced_p50) << "  untraced_color_ms_p50 " << num(ref_p50)
            << "  tracing_overhead_ms " << num(traced_p50 - ref_p50) << "\n";
  for (const auto& [k, v] : s)
    if (k.rfind("local.rounds.", 0) == 0 && median(v) > 0)
      std::cout << "  " << k << " " << num(median(v)) << "\n";

  const std::string trace_path = b.args.work_dir + "/trace-" +
                                 b.args.workload + "-seed" +
                                 std::to_string(b.args.seed) + ".json";
  write_trace(b, t, trace_path, host_json(b, eff_before, eff_after));
  std::cout << "trace " << trace_path << " spans=" << t.spans().size() << "\n";

  std::vector<Metric> m = {
      {"graph.generate_ms", setup_st.median_total("graph.generate"), "ms"},
      {"graph.csr_write_ms", setup_st.median_total("graph.csr_write"), "ms"},
      {"graph.csr_load_ms", setup_st.median_total("graph.csr_load"), "ms"},
      {"graph.check_ms", col.median_total("graph.check"), "ms"},
      {"acd.compute_ms", col.median_total("acd.compute"), "ms"},
      {"acd.cliques", med("acd.cliques"), "count"},
      {"core.loopholes_ms", col.median_total("core.loopholes"), "ms"},
      {"core.hardness_ms", col.median_total("core.hardness"), "ms"},
      {"core.hard_coloring_ms", col.median_total("core.hard_coloring"), "ms"},
      {"core.easy_coloring_ms", col.median_total("core.easy_coloring"), "ms"},
      {"core.hard_cliques", med("core.hard_cliques"), "count"},
      {"core.easy_cliques", med("core.easy_cliques"), "count"},
      {"core.demotion_retries", med("core.demotion_retries"), "count"},
      {"core.heg_ratio", med("core.heg_ratio"), "1"},
      {"randomized.self_ms", col.median_self("randomized"), "ms"},
      {"randomized.preshattering_ms", med("randomized.preshattering_ms"), "ms"},
      {"randomized.postprocessing_ms", med("randomized.postprocessing_ms"), "ms"},
      {"randomized.easy_ms", med("randomized.easy_ms"), "ms"},
      {"randomized.tnode_success", med("randomized.tnode_success"), "1"},
      {"randomized.failed_cliques", med("randomized.failed_cliques"), "count"},
  };
  for (const std::string& p : kRoundPhases)
    m.push_back({"local.rounds." + p, med("local.rounds." + p), "rounds"});
  m.push_back({"local.rounds.other", med("local.rounds.other"), "rounds"});
  m.insert(m.end(), {
      {"local.trial_ms", trial_ms, "ms"},
      {"local.trial_serial_ms", serial_ms, "ms"},
      {"local.speedup_vs_serial", trial_ms > 0 ? serial_ms / trial_ms : 0.0, "1"},
      {"local.round_us", med("local.round_us"), "us"},
      {"common.pool_forkjoin_us", forkjoin, "us"},
      {"common.palette_sample_ns.w17", pal_narrow, "ns"},
      {"common.palette_sample_ns.w719", pal_wide, "ns"},
      {"host.parallel_efficiency", std::min(eff_before, eff_after), "1"},
      {"bench.trace_overhead_ms", traced_p50 - ref_p50, "ms"},
  });
  print_result(b, m);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "deltabench: " << why
            << "\nusage: deltabench --workload det-hard|rand-mixed|trial-wide"
               " --seed N --seconds S --trace 0|1 [--smoke]"
               " [--work-dir DIR] [--commit SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (k + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++k];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--work-dir") a.work_dir = v;
      else if (flag == "--commit") a.commit = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload == "det-hard") a.kind = Kind::kDet;
  else if (a.workload == "rand-mixed") a.kind = Kind::kRand;
  else if (a.workload == "trial-wide") a.kind = Kind::kTrial;
  else usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  b.args = parse_args(argc, argv);
  b.host_workers = std::min(4, nproc());
  int code = 0;
  try {
    std::filesystem::create_directories(b.args.work_dir);
    if (b.args.trace) run_traced(b);
    else run_end_to_end(b);
  } catch (const std::exception& e) {
    std::cerr << "deltabench: " << e.what() << "\n";
    code = 3;
  }
  std::error_code ec;
  for (const std::string& path : b.dcsr_paths) std::filesystem::remove(path, ec);
  return code;
}
