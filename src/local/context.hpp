// LocalContext: the execution context threaded through every LOCAL
// subroutine, and the one way library code books a round.
//
// A context bundles
//   - the RoundLedger round/wall-clock accounting sink,
//   - the EngineOptions (worker threads) every SyncRunner spawned below
//     this call inherits,
//   - the random seed randomized subroutines draw from, and
//   - a scoped *phase stack*: charges always go to the innermost pushed
//     phase label, so a composed pipeline (e.g. hard-clique Phase 1 calling
//     maximal matching calling forest coloring) attributes every nested
//     round to the phase the caller opened, without label parameters
//     percolating through each signature.
//
// Phase semantics: callers open phases with ScopedPhase; a primitive's
// entry point opens its *default* label with DefaultPhase, which only
// pushes when no phase is active — so `mis_deterministic(g, ctx)` charges
// to "mis" standalone but to "phase1-matching" when called under that
// scope.
//
// Virtual graphs: a ScopedPhase may carry a dilation, the real rounds one
// virtual round costs. Every charge made under the frame is multiplied by
// it (and by the dilations of the frames around it), so a subroutine run on
// G_Q under `ScopedPhase(ctx, "phase2-split", 3)` books 3x its rounds.
//
// Independent sub-runs: ParallelBranches collects the charges of sub-runs
// that execute side by side (shattered components, per-forest colorings)
// into one total per branch; the caller charges the largest once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "local/faults.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

class LocalContext {
 public:
  explicit LocalContext(RoundLedger& ledger, EngineOptions engine = {},
                        std::uint64_t seed = 1)
      : ledger_(&ledger), engine_(engine), seed_(seed) {}

  LocalContext(const LocalContext&) = delete;
  LocalContext& operator=(const LocalContext&) = delete;

  RoundLedger& ledger() const { return *ledger_; }
  const EngineOptions& engine() const { return engine_; }
  std::uint64_t seed() const { return seed_; }

  /// The calling worker's scratch arena (reset by the engine at every
  /// chunk boundary — see arena.hpp for the ownership contract). Step
  /// kernels open a ScratchArena::Frame on it instead of keeping
  /// thread_local vectors.
  ScratchArena& scratch() const { return ScratchArena::local(); }

  bool has_phase() const { return !stack_.empty(); }

  /// Innermost phase label. A phase must be active (primitives guarantee
  /// one via DefaultPhase before charging).
  std::string_view phase() const {
    DC_CHECK_MSG(!stack_.empty(), "LocalContext: no active phase");
    return stack_.back();
  }

  /// Charges rounds * dilation, times the dilation of every open phase
  /// frame, to the innermost phase — or to the current branch while a
  /// ParallelBranches is open. While a FaultInjector is armed, a
  /// phase-addressed engine-exception spec fires here.
  void charge(std::int64_t rounds, std::int64_t dilation = 1) {
    if (FaultInjector::armed())
      FaultInjector::global().on_phase_charge(phase());
    DC_CHECK(rounds >= 0 && dilation >= 1);
    if (branch_ != nullptr)
      *branch_ += rounds * dilation * dilation_;
    else
      ledger_->charge(phase(), rounds, dilation * dilation_);
  }

 private:
  friend class ScopedPhase;
  friend class DefaultPhase;
  friend class ParallelBranches;

  RoundLedger* ledger_;
  EngineOptions engine_;
  std::uint64_t seed_;
  std::vector<std::string> stack_;
  std::int64_t dilation_ = 1;       ///< product over the open frames
  std::int64_t* branch_ = nullptr;  ///< open ParallelBranches total
};

/// Opens a phase for the duration of a scope (always pushes). Every charge
/// made under it is multiplied by `dilation`.
class ScopedPhase {
 public:
  ScopedPhase(LocalContext& ctx, std::string_view label,
              std::int64_t dilation = 1)
      : ctx_(ctx), outer_dilation_(ctx.dilation_) {
    DC_CHECK(dilation >= 1);
    ctx_.stack_.emplace_back(label);
    ctx_.dilation_ *= dilation;
  }
  ~ScopedPhase() {
    ctx_.stack_.pop_back();
    ctx_.dilation_ = outer_dilation_;
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  LocalContext& ctx_;
  std::int64_t outer_dilation_;
};

/// A primitive's entry-point phase: pushes `label` only when the caller
/// has not already opened a phase, mirroring the old default-argument
/// plumbing (explicit caller phases win over primitive defaults).
class DefaultPhase {
 public:
  DefaultPhase(LocalContext& ctx, std::string_view label)
      : ctx_(ctx), pushed_(!ctx.has_phase()) {
    if (pushed_) ctx_.stack_.emplace_back(label);
  }
  ~DefaultPhase() {
    if (pushed_) ctx_.stack_.pop_back();
  }

  DefaultPhase(const DefaultPhase&) = delete;
  DefaultPhase& operator=(const DefaultPhase&) = delete;

 private:
  LocalContext& ctx_;
  bool pushed_;
};

/// Sub-runs that execute side by side in LOCAL: while open, every charge
/// goes to the current branch instead of the ledger. next() starts a new
/// branch; close() returns the largest branch total — the parallel round
/// cost — for the caller to charge once. Dilations of frames opened
/// outside apply to that one charge, not inside the branches.
class ParallelBranches {
 public:
  explicit ParallelBranches(LocalContext& ctx)
      : ctx_(ctx), outer_branch_(ctx.branch_),
        outer_dilation_(ctx.dilation_) {
    ctx_.branch_ = &current_;
    ctx_.dilation_ = 1;
  }
  ~ParallelBranches() { restore(); }

  ParallelBranches(const ParallelBranches&) = delete;
  ParallelBranches& operator=(const ParallelBranches&) = delete;

  void next() {
    max_ = std::max(max_, current_);
    current_ = 0;
  }

  std::int64_t close() {
    next();
    restore();
    return max_;
  }

 private:
  void restore() {
    ctx_.branch_ = outer_branch_;
    ctx_.dilation_ = outer_dilation_;
  }

  LocalContext& ctx_;
  std::int64_t* outer_branch_;
  std::int64_t outer_dilation_;
  std::int64_t current_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace deltacolor
