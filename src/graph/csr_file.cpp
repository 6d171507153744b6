#include "graph/csr_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace deltacolor {

static_assert(std::endian::native == std::endian::little,
              "the .dcsr reader/writer assumes a little-endian host");
static_assert(sizeof(std::pair<NodeId, NodeId>) == 8 &&
                  std::is_standard_layout_v<std::pair<NodeId, NodeId>>,
              "edge pairs must map 1:1 onto the on-disk (u32,u32) records");
// Field offsets are part of the frozen v1 wire format, not an accident of
// the struct definition.
static_assert(offsetof(CsrFileHeader, magic) == 0);
static_assert(offsetof(CsrFileHeader, version) == 8);
static_assert(offsetof(CsrFileHeader, header_bytes) == 12);
static_assert(offsetof(CsrFileHeader, num_nodes) == 16);
static_assert(offsetof(CsrFileHeader, num_edges) == 24);
static_assert(offsetof(CsrFileHeader, max_degree) == 32);
static_assert(offsetof(CsrFileHeader, flags) == 36);
static_assert(offsetof(CsrFileHeader, sections) == 40);
static_assert(offsetof(CsrFileHeader, header_checksum) == 160);

namespace {

[[noreturn]] void fail(CsrErrorKind kind, const std::string& path,
                       const std::string& what) {
  throw CsrError(kind, "csr_file: " + path + ": " + what);
}

std::uint64_t align_up(std::uint64_t x) {
  return (x + (kCsrSectionAlign - 1)) & ~(std::uint64_t{kCsrSectionAlign} - 1);
}

/// Section placement for a graph with n nodes and m edges. Checksums are
/// left zero — the writer fills them, the reader compares them.
struct CsrLayout {
  CsrSection sections[kNumSections];
  std::uint64_t total_bytes = 0;
};

CsrLayout csr_layout(std::uint64_t n, std::uint64_t m) {
  const std::uint64_t sizes[kNumSections] = {
      8 * (n + 1),  // offsets
      4 * 2 * m,    // adjacency
      4 * 2 * m,    // arc_edge
      8 * m,        // edges
      8 * n,        // ids
  };
  CsrLayout layout;
  std::uint64_t pos = align_up(sizeof(CsrFileHeader));
  for (int s = 0; s < kNumSections; ++s) {
    layout.sections[s].offset = pos;
    layout.sections[s].bytes = sizes[s];
    pos = align_up(pos + sizes[s]);
  }
  layout.total_bytes = pos;
  return layout;
}

/// Every structural check shared by peek and load. `file_bytes` is the
/// real size on disk. Throws the most specific CsrError it can.
void validate_header(const CsrFileHeader& h, std::uint64_t file_bytes,
                     const std::string& path) {
  if (h.magic != kCsrMagic) fail(CsrErrorKind::kBadMagic, path, "bad magic (not a .dcsr file)");
  if (h.version != kCsrVersion)
    fail(CsrErrorKind::kBadVersion, path,
         "unsupported version " + std::to_string(h.version) +
             " (reader understands " + std::to_string(kCsrVersion) + ")");
  if (h.header_bytes < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kBadHeader, path,
         "header_bytes " + std::to_string(h.header_bytes) + " too small");
  CsrFileHeader probe = h;
  probe.header_checksum = 0;
  if (csr_checksum(&probe, sizeof(probe)) != h.header_checksum)
    fail(CsrErrorKind::kBadHeader, path, "header checksum mismatch");
  if (h.flags != 0)
    fail(CsrErrorKind::kBadHeader, path, "unknown flags set");
  const CsrLayout want = csr_layout(h.num_nodes, h.num_edges);
  for (int s = 0; s < kNumSections; ++s) {
    if (h.sections[s].offset != want.sections[s].offset ||
        h.sections[s].bytes != want.sections[s].bytes)
      fail(CsrErrorKind::kBadHeader, path,
           "section " + std::to_string(s) + " geometry inconsistent with "
           "num_nodes/num_edges");
  }
  if (file_bytes < want.total_bytes)
    fail(CsrErrorKind::kTruncated, path,
         "file is " + std::to_string(file_bytes) + " bytes, sections need " +
             std::to_string(want.total_bytes));
}

}  // namespace

std::uint64_t csr_checksum(const void* data, std::size_t bytes,
                           std::uint64_t seed) {
  // FNV-1a-64. Byte-serial but runs at memory speed for the sizes kAuto
  // allows; giant files skip section verification entirely.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

CsrMapping::CsrMapping(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    fail(CsrErrorKind::kOpen, path,
         std::string("open failed: ") + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(CsrErrorKind::kOpen, path,
         std::string("stat failed: ") + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // mmap rejects zero-length maps; a zero-byte file is simply too short.
    ::close(fd);
    fail(CsrErrorKind::kShortHeader, path, "file is empty");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED)
    fail(CsrErrorKind::kOpen, path,
         std::string("mmap failed: ") + std::strerror(errno));
  data_ = static_cast<const std::byte*>(map);
}

CsrMapping::~CsrMapping() {
  if (data_ != nullptr)
    ::munmap(const_cast<std::byte*>(data_), size_);
}

CsrFileInfo peek_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    fail(CsrErrorKind::kOpen, path,
         std::string("open failed: ") + std::strerror(errno));
  in.seekg(0, std::ios::end);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  CsrFileInfo info;
  info.file_bytes = file_bytes;
  if (file_bytes < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kShortHeader, path,
         "file is " + std::to_string(file_bytes) +
             " bytes, header needs " + std::to_string(sizeof(CsrFileHeader)));
  in.read(reinterpret_cast<char*>(&info.header), sizeof(info.header));
  if (!in)
    fail(CsrErrorKind::kOpen, path, "header read failed");
  validate_header(info.header, file_bytes, path);
  return info;
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kCsrMagic;
}

Graph load_csr_file(const std::string& path, const CsrLoadOptions& options) {
  auto mapping = std::make_shared<CsrMapping>(path);
  if (mapping->size() < sizeof(CsrFileHeader))
    fail(CsrErrorKind::kShortHeader, path,
         "file is " + std::to_string(mapping->size()) +
             " bytes, header needs " + std::to_string(sizeof(CsrFileHeader)));
  CsrFileHeader header;
  std::memcpy(&header, mapping->data(), sizeof(header));
  validate_header(header, mapping->size(), path);

  const bool check_sections =
      options.verify == CsrVerify::kAlways ||
      (options.verify == CsrVerify::kAuto &&
       mapping->size() <= kAutoVerifyLimit);
  if (check_sections) {
    for (int s = 0; s < kNumSections; ++s) {
      const CsrSection& sec = header.sections[s];
      if (csr_checksum(mapping->data() + sec.offset, sec.bytes) !=
          sec.checksum)
        fail(CsrErrorKind::kChecksum, path,
             "section " + std::to_string(s) + " checksum mismatch");
    }
  }

  const std::byte* base = mapping->data();
  Graph::ExternalCsr csr;
  csr.offsets = reinterpret_cast<const std::uint64_t*>(
      base + header.sections[kSecOffsets].offset);
  csr.adjacency = reinterpret_cast<const NodeId*>(
      base + header.sections[kSecAdjacency].offset);
  csr.arc_edge = reinterpret_cast<const EdgeId*>(
      base + header.sections[kSecArcEdge].offset);
  csr.edges = reinterpret_cast<const std::pair<NodeId, NodeId>*>(
      base + header.sections[kSecEdges].offset);
  csr.ids = reinterpret_cast<const std::uint64_t*>(
      base + header.sections[kSecIds].offset);
  csr.num_nodes = static_cast<NodeId>(header.num_nodes);
  csr.num_edges = static_cast<EdgeId>(header.num_edges);
  csr.max_degree = static_cast<int>(header.max_degree);
  return Graph::from_external(csr, std::move(mapping));
}

void write_csr_file(const std::string& path, const Graph& g) {
  const Graph::ExternalCsr v = g.external_view();
  const std::uint64_t n = v.num_nodes;
  const std::uint64_t m = v.num_edges;
  CsrLayout layout = csr_layout(n, m);

  const void* payloads[kNumSections] = {v.offsets, v.adjacency, v.arc_edge,
                                        v.edges, v.ids};
  CsrFileHeader header;
  header.header_bytes = sizeof(CsrFileHeader);
  header.num_nodes = n;
  header.num_edges = m;
  header.max_degree = static_cast<std::uint32_t>(v.max_degree);
  for (int s = 0; s < kNumSections; ++s) {
    header.sections[s] = layout.sections[s];
    header.sections[s].checksum =
        csr_checksum(payloads[s], layout.sections[s].bytes);
  }
  header.header_checksum = 0;
  header.header_checksum = csr_checksum(&header, sizeof(header));

  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out)
    fail(CsrErrorKind::kOpen, tmp,
         std::string("open failed: ") + std::strerror(errno));
  const auto pad_to = [&out](std::uint64_t target) {
    static const char zeros[kCsrSectionAlign] = {};
    std::uint64_t at = static_cast<std::uint64_t>(out.tellp());
    while (at < target) {
      const std::uint64_t chunk = std::min<std::uint64_t>(
          target - at, sizeof(zeros));
      out.write(zeros, static_cast<std::streamsize>(chunk));
      at += chunk;
    }
  };
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (int s = 0; s < kNumSections; ++s) {
    pad_to(layout.sections[s].offset);
    out.write(static_cast<const char*>(payloads[s]),
              static_cast<std::streamsize>(layout.sections[s].bytes));
  }
  pad_to(layout.total_bytes);
  out.flush();
  if (!out)
    fail(CsrErrorKind::kOpen, tmp, "write failed");
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    fail(CsrErrorKind::kOpen, path,
         std::string("rename failed: ") + std::strerror(errno));
}

namespace {

/// Read-write mapping over a freshly created file of exactly `bytes`
/// bytes (used for the scratch bucket file and the output .dcsr).
class RwMapping {
 public:
  RwMapping(const std::string& path, std::uint64_t bytes) : path_(path) {
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
      fail(CsrErrorKind::kOpen, path,
           std::string("open failed: ") + std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      const int err = errno;
      ::close(fd);
      fail(CsrErrorKind::kOpen, path,
           std::string("ftruncate failed: ") + std::strerror(err));
    }
    size_ = bytes;
    if (bytes > 0) {
      void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                         fd, 0);
      if (map == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        fail(CsrErrorKind::kOpen, path,
             std::string("mmap failed: ") + std::strerror(err));
      }
      data_ = static_cast<std::byte*>(map);
    }
    ::close(fd);
  }
  ~RwMapping() {
    if (data_ != nullptr) ::munmap(data_, size_);
    if (!keep_) ::unlink(path_.c_str());
  }
  RwMapping(const RwMapping&) = delete;
  RwMapping& operator=(const RwMapping&) = delete;

  std::byte* data() { return data_; }
  /// Unmaps and renames the file to `target` (the atomic publish step).
  void publish(const std::string& target) {
    ::munmap(data_, size_);
    data_ = nullptr;
    if (std::rename(path_.c_str(), target.c_str()) != 0)
      fail(CsrErrorKind::kOpen, target,
           std::string("rename failed: ") + std::strerror(errno));
    keep_ = true;
  }

 private:
  std::string path_;
  std::byte* data_ = nullptr;
  std::uint64_t size_ = 0;
  bool keep_ = false;
};

}  // namespace

CsrBuildStats build_csr_file(EdgeSource& source, NodeId num_nodes,
                             const std::string& out_path) {
  const std::size_t n = num_nodes;
  constexpr std::size_t kBatch = 1 << 16;
  std::vector<std::pair<NodeId, NodeId>> batch(kBatch);

  // Pass 1: per-lower-endpoint histogram (the counting-sort key), plus the
  // total pair count that sizes the scratch bucket file.
  std::vector<std::uint64_t> bucket_start(n + 1, 0);
  std::uint64_t input_edges = 0;
  source.rewind();
  for (std::size_t got; (got = source.next(batch.data(), kBatch)) > 0;) {
    for (std::size_t i = 0; i < got; ++i) {
      auto [a, b] = batch[i];
      DC_CHECK_MSG(a != b, "self loop at node " << a);
      DC_CHECK_MSG(a < num_nodes && b < num_nodes,
                   "edge (" << a << "," << b << ") out of range n="
                            << num_nodes);
      ++bucket_start[std::min(a, b) + 1];
    }
    input_edges += got;
  }
  std::partial_sum(bucket_start.begin(), bucket_start.end(),
                   bucket_start.begin());

  // Pass 2: scatter upper endpoints into an mmap'd scratch bucket file —
  // the only place the full edge multiset ever materializes, and it lives
  // on disk. The classic cursor trick (advance bucket_start[u] while
  // scattering) avoids a second n-word cursor array: afterwards
  // bucket_start[u] is the *end* of u's bucket and bucket_start[u-1] its
  // start.
  std::optional<RwMapping> scratch(std::in_place, out_path + ".buckets.tmp",
                                   input_edges * sizeof(NodeId));
  auto* bucket = reinterpret_cast<NodeId*>(scratch->data());
  source.rewind();
  for (std::size_t got; (got = source.next(batch.data(), kBatch)) > 0;) {
    for (std::size_t i = 0; i < got; ++i) {
      const auto [a, b] = batch[i];
      const NodeId u = std::min(a, b);
      bucket[bucket_start[u]++] = std::max(a, b);
    }
  }

  // Sort + dedup each node's bucket in place (identical to the in-memory
  // builder's per-bucket stage), collecting the surviving count and the
  // in-degree each unique edge contributes to its upper endpoint.
  std::vector<std::uint64_t> uniq(n + 1, 0);
  std::vector<std::uint32_t> in_deg(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    NodeId* lo = bucket + (u == 0 ? 0 : bucket_start[u - 1]);
    NodeId* hi = bucket + bucket_start[u];
    std::sort(lo, hi);
    NodeId* end = std::unique(lo, hi);
    uniq[u + 1] = static_cast<std::uint64_t>(end - lo);
    for (NodeId* p = lo; p != end; ++p) ++in_deg[*p];
  }
  std::partial_sum(uniq.begin(), uniq.end(), uniq.begin());
  const std::uint64_t m = uniq[n];

  // Materialize the output sections directly in the mmap'd result file.
  const CsrLayout layout = csr_layout(n, m);
  RwMapping out(out_path + ".tmp", layout.total_bytes);
  std::byte* base = out.data();
  auto* offsets = reinterpret_cast<std::uint64_t*>(
      base + layout.sections[kSecOffsets].offset);
  auto* adjacency = reinterpret_cast<NodeId*>(
      base + layout.sections[kSecAdjacency].offset);
  auto* arc_edge = reinterpret_cast<EdgeId*>(
      base + layout.sections[kSecArcEdge].offset);
  auto* edges = reinterpret_cast<std::pair<NodeId, NodeId>*>(
      base + layout.sections[kSecEdges].offset);
  auto* ids = reinterpret_cast<std::uint64_t*>(
      base + layout.sections[kSecIds].offset);

  // Edges section: lexicographic (u, v) straight from the deduped buckets;
  // a pair's index is its edge id, exactly as in the in-memory builder.
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t lo = u == 0 ? 0 : bucket_start[u - 1];
    for (std::uint64_t i = 0; i < uniq[u + 1] - uniq[u]; ++i)
      edges[uniq[u] + i] = {static_cast<NodeId>(u), bucket[lo + i]};
  }

  // The buckets are folded into the edges section now; drop the scratch
  // file before the adjacency passes so peak disk usage stays low.
  scratch.reset();
  bucket = nullptr;

  // Offsets: deg(v) = in_deg[v] + out_deg(v).
  offsets[0] = 0;
  int max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t deg = in_deg[v] + (uniq[v + 1] - uniq[v]);
    offsets[v + 1] = offsets[v] + deg;
    max_degree = std::max(max_degree, static_cast<int>(deg));
  }

  // Adjacency + arc ids, replicating the in-memory materialization: a
  // serial in-arc cursor pass in edge-id order, then each node's own
  // out-arcs behind its in-arc block. bucket_start is re-used as the
  // in-arc cursor array.
  for (std::size_t v = 0; v < n; ++v) bucket_start[v] = offsets[v];
  for (std::uint64_t e = 0; e < m; ++e) {
    const NodeId v = edges[e].second;
    adjacency[bucket_start[v]] = edges[e].first;
    arc_edge[bucket_start[v]++] = static_cast<EdgeId>(e);
  }
  for (std::size_t u = 0; u < n; ++u) {
    std::uint64_t pos = offsets[u] + in_deg[u];
    for (std::uint64_t e = uniq[u]; e < uniq[u + 1]; ++e) {
      adjacency[pos] = edges[e].second;
      arc_edge[pos++] = static_cast<EdgeId>(e);
    }
  }

  for (std::size_t v = 0; v < n; ++v) ids[v] = v;

  CsrFileHeader header;
  header.header_bytes = sizeof(CsrFileHeader);
  header.num_nodes = n;
  header.num_edges = m;
  header.max_degree = static_cast<std::uint32_t>(max_degree);
  for (int s = 0; s < kNumSections; ++s) {
    header.sections[s] = layout.sections[s];
    header.sections[s].checksum = csr_checksum(
        base + layout.sections[s].offset, layout.sections[s].bytes);
  }
  header.header_checksum = 0;
  header.header_checksum = csr_checksum(&header, sizeof(header));
  std::memcpy(base, &header, sizeof(header));

  out.publish(out_path);

  CsrBuildStats stats;
  stats.input_edges = input_edges;
  stats.unique_edges = m;
  stats.file_bytes = layout.total_bytes;
  stats.max_degree = max_degree;
  return stats;
}

}  // namespace deltacolor
