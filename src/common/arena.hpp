// Per-worker scratch arena: a bump allocator for the variable-length
// scratch a node transition needs (neighbor coefficient tables, free-edge
// candidate lists). Replaces per-step thread_local std::vectors with spans
// carved from one per-thread buffer, so the steady-state engine round
// performs no heap allocation once every worker's arena has reached its
// high-water capacity.
//
// Ownership / reset contract (see DESIGN.md):
//   - ScratchArena::local() returns the calling thread's arena. The
//     SyncRunner engine resets it at the start of every chunk a worker
//     executes (one chunk per worker per round), so scratch never outlives
//     the round that carved it — re-reading stale scratch across rounds
//     would break the LOCAL fidelity contract, and the reset makes that
//     structurally impossible.
//   - Step kernels open a Frame (RAII) and allocate through it; the frame
//     restores the bump pointer on destruction, so per-node scratch is
//     reclaimed immediately and a chunk's footprint is the *maximum* over
//     its nodes, not the sum.
//   - alloc<T>() requires trivially copyable T (no destructors run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace deltacolor {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Rewinds the bump pointer. Growth beyond the current capacity during
  /// the previous epoch is folded into one contiguous block here (never
  /// mid-epoch, so outstanding pointers stay valid until reset).
  void reset() {
    if (!overflow_.empty()) {
      std::size_t total = buf_.size();
      for (const auto& block : overflow_) total += block.size();
      buf_.resize(total);
      overflow_.clear();
      overflow_used_ = 0;
    }
    used_ = 0;
  }

  /// Minimum absolute-address alignment of every allocation: one AVX2
  /// vector, so SIMD palette kernels may use aligned loads on arena-carved
  /// word arrays. Must be computed against the buffer's address, not the
  /// bump offset — operator new only guarantees ~16 bytes for the buffer
  /// itself.
  static constexpr std::size_t kMinAlign = 32;

  /// `count` default-initialized T's, aligned to max(alignof(T), 32)
  /// bytes. Pointers remain valid until reset() (frames rewind the offset
  /// but never reclaim storage).
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena scratch must be trivially copyable");
    const std::size_t align =
        alignof(T) > kMinAlign ? alignof(T) : kMinAlign;
    const std::size_t bytes = count * sizeof(T);
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(buf_.data());
    const std::size_t aligned =
        static_cast<std::size_t>(((base + used_ + align - 1) & ~(align - 1)) -
                                 base);
    if (aligned + bytes <= buf_.size()) {
      used_ = aligned + bytes;
      high_water_ = used_ > high_water_ ? used_ : high_water_;
      return reinterpret_cast<T*>(buf_.data() + aligned);
    }
    return static_cast<T*>(alloc_overflow(bytes, align));
  }

  std::size_t used() const { return used_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t high_water() const { return high_water_; }
  /// Heap allocations the arena itself has performed (growth events) —
  /// flat after warm-up; the allocation-counting test asserts this.
  std::size_t growth_count() const { return growth_count_; }

  /// The calling thread's arena (workers and the serial engine path each
  /// see their own).
  static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

  /// RAII bump-pointer frame: restores used() on destruction so per-node
  /// scratch does not accumulate across a chunk. Frames nest (stack
  /// discipline); allocation through a dead frame's pointers is UB.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena = ScratchArena::local())
        : arena_(arena), saved_(arena.used_) {}
    ~Frame() {
      // Overflow blocks (if any) stay alive until the next reset(); only
      // the primary bump offset rewinds.
      arena_.used_ = saved_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    template <typename T>
    T* alloc(std::size_t count) {
      return arena_.alloc<T>(count);
    }

   private:
    ScratchArena& arena_;
    std::size_t saved_;
  };

 private:
  /// Slow path: the primary buffer is full. Bump inside the newest
  /// overflow block while it has room, else open a fresh one (geometric
  /// growth). Blocks coalesce into the primary buffer at the next reset(),
  /// so warm steady state never re-enters this path. Offsets are aligned
  /// against the block's absolute address (heap blocks are only ~16-byte
  /// aligned), and the fit check uses that same aligned offset.
  void* alloc_overflow(std::size_t bytes, std::size_t align) {
    const auto aligned_offset = [align](const std::vector<std::byte>& block,
                                        std::size_t used) {
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(block.data());
      return static_cast<std::size_t>(
          ((base + used + align - 1) & ~(align - 1)) - base);
    };
    if (!overflow_.empty()) {
      auto& block = overflow_.back();
      const std::size_t off = aligned_offset(block, overflow_used_);
      if (off + bytes <= block.size()) {
        overflow_used_ = off + bytes;
        return block.data() + off;
      }
    }
    // A fresh block needs at most align - 1 bytes of padding.
    const std::size_t need = bytes + align;
    const std::size_t base =
        overflow_.empty() ? buf_.size() : overflow_.back().size();
    std::size_t grow = base == 0 ? 4096 : 2 * base;
    if (grow < need) grow = need;
    auto& block = overflow_.emplace_back(grow);
    ++growth_count_;
    const std::size_t off = aligned_offset(block, 0);
    overflow_used_ = off + bytes;
    return block.data() + off;
  }

  std::vector<std::byte> buf_;
  std::vector<std::vector<std::byte>> overflow_;
  std::size_t overflow_used_ = 0;  // bump offset inside overflow_.back()
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t growth_count_ = 0;
};

}  // namespace deltacolor
