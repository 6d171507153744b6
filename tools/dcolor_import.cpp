// dcolor-import — builds .dcsr on-disk CSR containers without ever holding
// a full edge list in RAM.
//
//   dcolor-import edges <in> <out.dcsr> [--format=dc|snap] [--nodes=N]
//   dcolor-import gen path      <n> <out.dcsr>
//   dcolor-import gen cycle     <n> <out.dcsr>
//   dcolor-import gen torus     <rows> <cols> <out.dcsr>
//   dcolor-import gen circulant <n> <k> <out.dcsr>
//   dcolor-import info   <file.dcsr>
//   dcolor-import verify <file.dcsr>
//
// `edges` streams a text edge list twice through the external counting-sort
// builder (graph/csr_file.hpp): pass 1 histograms lower endpoints, pass 2
// scatters into an mmap'd scratch bucket file, and the CSR sections are
// materialized straight into the mmap'd output — RAM stays O(n), disk does
// the rest. Input formats:
//   dc    the repo's own "n m" header + "u v" lines (io.hpp)
//   snap  SNAP-style: '#' comment lines, whitespace-separated pairs,
//         duplicates and both orientations tolerated, self loops skipped.
//         Node count is max id + 1 unless --nodes=N says otherwise (an
//         extra streaming pre-pass discovers the max).
// The format is sniffed from the first line ('#' => snap) unless forced.
//
// `gen` streams a structured family straight to disk; nothing but the
// generator's O(1) cursor state is ever in memory. circulant(n, k) — node
// i adjacent to i±1..±k mod n, Delta = 2k — is the giant-instance family:
// n = 10^8, k = 8 yields a ~21 GB file that colors through mmap with RSS
// far below the file size.
//
// `info` prints the header of an existing container. `verify` re-checks
// every section checksum (a load with CsrVerify::kAlways).
//
// Exit codes: 0 success; 2 usage error; 3 unreadable/malformed input or
// failed verification.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_file.hpp"
#include "graph/graph.hpp"

namespace {

using namespace deltacolor;

constexpr int kExitUsage = 2;
constexpr int kExitBadFile = 3;

int usage() {
  std::cerr
      << "usage:\n"
         "  dcolor-import edges <in> <out.dcsr> [--format=dc|snap] "
         "[--nodes=N]\n"
         "  dcolor-import gen path      <n> <out.dcsr>\n"
         "  dcolor-import gen cycle     <n> <out.dcsr>\n"
         "  dcolor-import gen torus     <rows> <cols> <out.dcsr>\n"
         "  dcolor-import gen circulant <n> <k> <out.dcsr>\n"
         "  dcolor-import info   <file.dcsr>\n"
         "  dcolor-import verify <file.dcsr>\n"
         "formats: dc = \"n m\" header + \"u v\" lines; snap = '#' "
         "comments + pairs, self loops skipped (sniffed from the first "
         "line unless forced)\n"
         "exit codes: 0 success; 2 usage error; 3 unreadable or malformed "
         "input / failed verification\n";
  return kExitUsage;
}

// --- text-file sources -------------------------------------------------------

/// "n m" header + "u v" lines (the io.hpp format). rewind() reopens.
class DcEdgeSource : public EdgeSource {
 public:
  explicit DcEdgeSource(const std::string& path) : path_(path) { rewind(); }

  NodeId num_nodes() const { return num_nodes_; }

  void rewind() override {
    in_ = std::ifstream(path_);
    if (!in_.good())
      throw std::runtime_error("cannot open edge list '" + path_ + "'");
    std::uint64_t n = 0, m = 0;
    if (!(in_ >> n >> m))
      throw std::runtime_error("malformed edge list in '" + path_ +
                               "' (expected \"n m\" header)");
    num_nodes_ = static_cast<NodeId>(n);
  }

  std::size_t next(std::pair<NodeId, NodeId>* out,
                   std::size_t cap) override {
    std::size_t got = 0;
    std::uint64_t u = 0, v = 0;
    while (got < cap && (in_ >> u >> v))
      out[got++] = {static_cast<NodeId>(u), static_cast<NodeId>(v)};
    return got;
  }

 private:
  std::string path_;
  std::ifstream in_;
  NodeId num_nodes_ = 0;
};

/// SNAP-style: '#' comments anywhere, whitespace-separated pairs, self
/// loops silently skipped (the builder would reject them, SNAP dumps
/// contain them routinely).
class SnapEdgeSource : public EdgeSource {
 public:
  explicit SnapEdgeSource(const std::string& path) : path_(path) {
    rewind();
  }

  void rewind() override {
    in_ = std::ifstream(path_);
    if (!in_.good())
      throw std::runtime_error("cannot open edge list '" + path_ + "'");
  }

  std::size_t next(std::pair<NodeId, NodeId>* out,
                   std::size_t cap) override {
    std::size_t got = 0;
    std::string line;
    while (got < cap && std::getline(in_, line)) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      std::istringstream ls(line);
      std::uint64_t u = 0, v = 0;
      if (!(ls >> u >> v))
        throw std::runtime_error("malformed snap line: " + line);
      if (u == v) continue;  // SNAP dumps routinely carry self loops
      out[got++] = {static_cast<NodeId>(u), static_cast<NodeId>(v)};
    }
    return got;
  }

  /// Streaming max-id scan (for when --nodes is not given).
  NodeId scan_num_nodes() {
    rewind();
    std::pair<NodeId, NodeId> buf[1024];
    std::uint64_t max_id = 0;
    bool any = false;
    for (std::size_t got; (got = next(buf, 1024)) > 0;)
      for (std::size_t i = 0; i < got; ++i) {
        max_id = std::max<std::uint64_t>({max_id, buf[i].first,
                                          buf[i].second});
        any = true;
      }
    return any ? static_cast<NodeId>(max_id + 1) : 0;
  }

 private:
  std::string path_;
  std::ifstream in_;
};

// --- streaming generator sources ---------------------------------------------

/// Emits edge j = edge_at(j) for j in [0, count) — every structured family
/// below is a pure function of the edge index, so rewind is a counter
/// reset and the source holds O(1) state.
class IndexedEdgeSource : public EdgeSource {
 public:
  void rewind() override { pos_ = 0; }

  std::size_t next(std::pair<NodeId, NodeId>* out,
                   std::size_t cap) override {
    std::size_t got = 0;
    while (got < cap && pos_ < count_) out[got++] = edge_at(pos_++);
    return got;
  }

 protected:
  explicit IndexedEdgeSource(std::uint64_t count) : count_(count) {}
  virtual std::pair<NodeId, NodeId> edge_at(std::uint64_t j) const = 0;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t pos_ = 0;
};

class PathSource : public IndexedEdgeSource {
 public:
  explicit PathSource(NodeId n) : IndexedEdgeSource(n >= 1 ? n - 1 : 0) {}

 protected:
  std::pair<NodeId, NodeId> edge_at(std::uint64_t j) const override {
    return {static_cast<NodeId>(j), static_cast<NodeId>(j + 1)};
  }
};

class CycleSource : public IndexedEdgeSource {
 public:
  explicit CycleSource(NodeId n) : IndexedEdgeSource(n), n_(n) {}

 protected:
  std::pair<NodeId, NodeId> edge_at(std::uint64_t j) const override {
    return {static_cast<NodeId>(j),
            static_cast<NodeId>((j + 1) % n_)};
  }

 private:
  std::uint64_t n_ = 0;
};

/// Wrap-around grid: cell (r, c) connects right and down. Rows/cols of 2
/// emit each wrap edge twice; the builder's dedup folds them.
class TorusSource : public IndexedEdgeSource {
 public:
  TorusSource(NodeId rows, NodeId cols)
      : IndexedEdgeSource(2ull * rows * cols), rows_(rows), cols_(cols) {}

 protected:
  std::pair<NodeId, NodeId> edge_at(std::uint64_t j) const override {
    const std::uint64_t cell = j / 2;
    const std::uint64_t r = cell / cols_, c = cell % cols_;
    const std::uint64_t nr = j % 2 == 0 ? r : (r + 1) % rows_;
    const std::uint64_t nc = j % 2 == 0 ? (c + 1) % cols_ : c;
    return {static_cast<NodeId>(r * cols_ + c),
            static_cast<NodeId>(nr * cols_ + nc)};
  }

 private:
  std::uint64_t rows_ = 0, cols_ = 0;
};

/// circulant(n, k): node i adjacent to i±1..±k (mod n); emitting only the
/// +j arcs covers every edge once. Delta = 2k for n > 2k.
class CirculantSource : public IndexedEdgeSource {
 public:
  CirculantSource(NodeId n, int k)
      : IndexedEdgeSource(static_cast<std::uint64_t>(n) * k), n_(n), k_(k) {}

 protected:
  std::pair<NodeId, NodeId> edge_at(std::uint64_t j) const override {
    const std::uint64_t i = j / k_;
    const std::uint64_t step = j % k_ + 1;
    return {static_cast<NodeId>(i),
            static_cast<NodeId>((i + step) % n_)};
  }

 private:
  std::uint64_t n_ = 0;
  std::uint64_t k_ = 0;
};

// --- commands ----------------------------------------------------------------

void print_build(const std::string& out, const CsrBuildStats& stats,
                 NodeId n) {
  std::cout << "wrote " << out << ": n=" << n
            << " m=" << stats.unique_edges
            << " input_edges=" << stats.input_edges
            << " Delta=" << stats.max_degree
            << " bytes=" << stats.file_bytes << "\n";
}

int cmd_edges(int argc, char** argv) {
  std::string in_path, out_path, format = "auto";
  std::uint64_t nodes = 0;
  bool have_nodes = false;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "dc" && format != "snap") {
        std::cerr << "dcolor-import: invalid " << arg
                  << " (formats: dc, snap)\n";
        return kExitUsage;
      }
    } else if (arg.rfind("--nodes=", 0) == 0) {
      nodes = std::strtoull(arg.c_str() + 8, nullptr, 10);
      have_nodes = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();
  in_path = positional[0];
  out_path = positional[1];

  if (format == "auto") {
    std::ifstream probe(in_path);
    if (!probe.good()) {
      std::cerr << "dcolor-import: cannot open '" << in_path << "'\n";
      return kExitBadFile;
    }
    std::string first;
    std::getline(probe, first);
    const std::size_t at = first.find_first_not_of(" \t\r");
    format = (at != std::string::npos && first[at] == '#') ? "snap" : "dc";
  }

  try {
    if (format == "dc") {
      DcEdgeSource source(in_path);
      const NodeId n = have_nodes ? static_cast<NodeId>(nodes)
                                  : source.num_nodes();
      const CsrBuildStats stats = build_csr_file(source, n, out_path);
      print_build(out_path, stats, n);
    } else {
      SnapEdgeSource source(in_path);
      const NodeId n = have_nodes ? static_cast<NodeId>(nodes)
                                  : source.scan_num_nodes();
      const CsrBuildStats stats = build_csr_file(source, n, out_path);
      print_build(out_path, stats, n);
    }
  } catch (const std::exception& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string family = argv[2];
  try {
    if (family == "path" && argc == 5) {
      const NodeId n = static_cast<NodeId>(std::strtoull(argv[3], nullptr, 10));
      PathSource source(n);
      print_build(argv[4], build_csr_file(source, n, argv[4]), n);
      return 0;
    }
    if (family == "cycle" && argc == 5) {
      const NodeId n = static_cast<NodeId>(std::strtoull(argv[3], nullptr, 10));
      if (n < 3) {
        std::cerr << "dcolor-import: cycle needs n >= 3\n";
        return kExitUsage;
      }
      CycleSource source(n);
      print_build(argv[4], build_csr_file(source, n, argv[4]), n);
      return 0;
    }
    if (family == "torus" && argc == 6) {
      const NodeId rows = static_cast<NodeId>(std::strtoull(argv[3], nullptr, 10));
      const NodeId cols = static_cast<NodeId>(std::strtoull(argv[4], nullptr, 10));
      if (rows < 2 || cols < 2) {
        std::cerr << "dcolor-import: torus needs rows, cols >= 2\n";
        return kExitUsage;
      }
      TorusSource source(rows, cols);
      const NodeId n = rows * cols;
      print_build(argv[5], build_csr_file(source, n, argv[5]), n);
      return 0;
    }
    if (family == "circulant" && argc == 6) {
      const NodeId n = static_cast<NodeId>(std::strtoull(argv[3], nullptr, 10));
      const int k = std::atoi(argv[4]);
      if (n < 3 || k < 1 || 2 * static_cast<std::uint64_t>(k) >= n) {
        std::cerr << "dcolor-import: circulant needs n >= 3 and 1 <= k < "
                     "n/2\n";
        return kExitUsage;
      }
      CirculantSource source(n, k);
      print_build(argv[5], build_csr_file(source, n, argv[5]), n);
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  if (family == "path" || family == "cycle" || family == "torus" ||
      family == "circulant")
    return usage();  // right family, wrong arity
  std::cerr << "dcolor-import: unknown family '" << family
            << "' (families: path, cycle, torus, circulant)\n";
  return kExitUsage;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string path = argv[2];
  try {
    const CsrFileInfo info = peek_csr_file(path);
    std::cout << "dcsr v" << info.header.version << " n="
              << info.header.num_nodes << " m=" << info.header.num_edges
              << " Delta=" << info.header.max_degree
              << " bytes=" << info.file_bytes << "\n";
    for (int s = 0; s < kNumSections; ++s) {
      static const char* names[kNumSections] = {"offsets", "adjacency",
                                                "arc_edge", "edges", "ids"};
      const CsrSection& sec = info.header.sections[s];
      std::cout << "  " << names[s] << ": offset=" << sec.offset
                << " bytes=" << sec.bytes << " checksum=" << std::hex
                << sec.checksum << std::dec << "\n";
    }
  } catch (const CsrError& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 3) return usage();
  try {
    CsrLoadOptions opt;
    opt.verify = CsrVerify::kAlways;
    const Graph g = load_csr_file(argv[2], opt);
    std::cout << "ok: n=" << g.num_nodes() << " m=" << g.num_edges()
              << " Delta=" << g.max_degree() << "\n";
  } catch (const CsrError& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "edges") return cmd_edges(argc, argv);
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "info") return cmd_info(argc, argv);
  if (cmd == "verify") return cmd_verify(argc, argv);
  if (cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  return usage();
}
