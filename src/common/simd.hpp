// Runtime-dispatched SIMD kernels for the word-parallel palette loops.
//
// Every PaletteSet hot operation (remove_all, count, intersect_count, the
// word-skip scans of first_free / nth_free / sample_free) reduces to one of
// five primitives over little-endian arrays of 64-bit words. This header
// exposes those primitives behind a single dispatch table that is resolved
// once at startup:
//
//   * kScalar — the portable word-at-a-time loops. Always compiled, always
//     available; this is the reference implementation every vector path is
//     cross-checked against (test_palette_set's SimdDispatch tests).
//   * kAvx2   — 256-bit AVX2 paths (4 words per vector; popcounts via the
//     vpshufb nibble-LUT + vpsadbw reduction). Compiled on x86-64 behind
//     __attribute__((target("avx2"))), selected only when the CPU reports
//     AVX2 support.
//   * kNeon   — 128-bit NEON paths on aarch64 (vbicq / vcntq_u8). NEON is
//     architecturally mandatory there, so no runtime probe is needed.
//
// Determinism contract: every kernel computes the exact same value as the
// scalar reference for every input — these are bitwise/popcount operations
// with no reassociation hazards — so the palette ascending-enumeration
// contract and the golden hashes are level-independent by construction.
//
// Selection: the best level the host supports, resolved once at startup.
// Tests can swap levels at runtime via force_level() and undo it with
// reset_level(); PaletteSet picks up the change on the next call (the
// table pointer is a relaxed atomic).
//
// Dispatch cost: one relaxed load + one indirect call per operation. Below
// kMinWords (8 words = 512 palette colors) the callers keep their inlined
// scalar loops — an indirect call would cost more than it saves on 1-4
// word palettes — so dispatch only ever sees widths where vectors win.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace deltacolor::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Word-count cutoff below which callers should prefer their own inlined
/// scalar loops over a dispatched call (512 bits).
inline constexpr std::size_t kMinWords = 8;

/// The dispatch table: one function pointer per kernel. All kernels accept
/// n == 0 and have no alignment requirements (unaligned vector loads).
struct KernelTable {
  /// dst[i] &= ~src[i] for i in [0, n).
  void (*andnot)(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n);
  /// Total set bits over w[0..n).
  int (*popcount)(const std::uint64_t* w, std::size_t n);
  /// Total set bits of a[i] & b[i] over [0, n).
  int (*popcount_and)(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n);
  /// Index of the first non-zero word, or n when all words are zero.
  std::size_t (*first_nonzero)(const std::uint64_t* w, std::size_t n);
  /// Index of the word containing the k-th (0-based) set bit of the whole
  /// array; *k is rewritten to the remaining rank within that word. Returns
  /// n (leaving *k as the shortfall) when fewer than k+1 bits are set.
  std::size_t (*select_word)(const std::uint64_t* w, std::size_t n, int* k);
  Level level;
  const char* name;
};

namespace detail {
/// Scalar table — the constant-initialized startup default, so palette
/// operations issued during static initialization are already safe.
extern const KernelTable kScalarTable;
extern std::atomic<const KernelTable*> g_active;
inline const KernelTable& active() {
  return *g_active.load(std::memory_order_relaxed);
}
}  // namespace detail

// --- dispatched entry points (the palette hot path) -------------------------

inline void andnot_words(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  detail::active().andnot(dst, src, n);
}
inline int popcount_words(const std::uint64_t* w, std::size_t n) {
  return detail::active().popcount(w, n);
}
inline int popcount_and_words(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) {
  return detail::active().popcount_and(a, b, n);
}
inline std::size_t first_nonzero_word(const std::uint64_t* w,
                                      std::size_t n) {
  return detail::active().first_nonzero(w, n);
}
inline std::size_t select_word(const std::uint64_t* w, std::size_t n,
                               int* k) {
  return detail::active().select_word(w, n, k);
}

// --- level management -------------------------------------------------------

/// The level the dispatch table currently routes to.
Level active_level();
const char* to_string(Level level);

/// True when this host can execute `level`.
bool level_supported(Level level);

/// Best level the host supports (the startup level).
Level best_level();

/// Swaps the dispatch table; returns false (and leaves the table unchanged)
/// when the host does not support `level`. Used by the parity tests; not
/// intended for concurrent callers racing palette operations mid-swap.
bool force_level(Level level);

/// Restores best_level() (undoes force_level).
void reset_level();

}  // namespace deltacolor::simd
