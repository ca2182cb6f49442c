// Symbolic machine state for the MiniVM.
//
// A state is one possible execution of T: a call stack of symbolic
// register frames, byte-granular symbolic memory, concrete heap metadata
// (allocation addresses are a pure function of the allocation sequence —
// see vm/memory.h — so they stay concrete), a concrete file-position
// indicator, the accumulated path constraints, and the set of *pinned*
// bytes (input offsets already forced to a concrete value, either by
// bunch placement in P3 or by concretization).
//
// States are value types: forking at a branch is a copy. The copy is
// structural, not deep — symbolic memory lives in a page-granular
// copy-on-write store and the heap/loop-counter maps are shared whole
// until first write (see symex/cow.h), so a fork costs O(pages touched)
// rather than O(state size).
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "support/small_set.h"
#include "symex/cow.h"
#include "symex/expr.h"
#include "symex/solve_context.h"
#include "vm/memory.h"

namespace octopocs::symex {

struct SymFrame {
  vm::FuncId fn = 0;
  vm::BlockId block = 0;
  std::size_t ip = 0;
  vm::Reg ret_reg = 0;
  std::vector<ExprRef> regs;
};

struct SymAlloc {
  std::uint64_t size = 0;
  bool alive = true;
};

/// Why a state stopped executing. Used to classify the overall outcome
/// (program-dead vs unsat vs budget) once the worklist drains.
enum class StateDeath : std::uint8_t {
  kAlive,
  kExited,        // returned from the entry function without reaching goal
  kTrapped,       // memory fault / assert / trap before the goal
  kPruned,        // directed mode: no successor can reach ep
  kLoopDead,      // a symbolic loop exceeded θ iterations
  kUnsat,         // pinned-byte conflict or concrete ep-argument mismatch
  kSolverBudget,  // concretization query exhausted the solver budget
  kDepthLimit,    // call-depth or per-state fuel limit
};

struct SymState {
  using HeapMap = std::map<std::uint64_t, SymAlloc>;

  std::vector<SymFrame> frames;
  CowPageMap<ExprRef> mem;
  Cow<HeapMap> heap;
  vm::AllocCursor cursor;
  std::uint64_t file_pos = 0;

  std::vector<ExprRef> constraints;
  Model pinned;
  /// Incremental solve context: per-variable domains of the unary path
  /// constraints, folded once at AddConstraint time and forked via COW
  /// so branch siblings share the prefix's filtering work.
  SolveContext solve_ctx;

  /// Symbolic-loop bookkeeping, keyed by back edge. Only traversals that
  /// changed the constraint store count toward θ (the paper's "loop
  /// state"); concretely-bounded loops are limited by fuel alone.
  struct LoopEntry {
    std::uint32_t count = 0;
    std::uint64_t last_constraint_count = ~std::uint64_t{0};
  };
  using LoopMap =
      std::map<std::tuple<vm::FuncId, vm::BlockId, vm::BlockId>, LoopEntry>;
  Cow<LoopMap> loop_counts;

  std::uint32_t ep_count = 0;       // encounters of ep so far
  /// poc' offsets covered by bunch placements (for classification).
  std::vector<std::uint32_t> bunch_targets;
  /// File offsets the symbolic execution actually read. Only these may
  /// be hint-filled from the original PoC when poc' is emitted: a byte
  /// the verified path never read is outside the verification claim and
  /// must stay at the solver default.
  SortedSmallSet<std::uint32_t> read_offsets;
  std::uint32_t depth_inside = 0;   // frames at or below the active ep frame
  std::uint64_t instructions = 0;   // per-state fuel
  std::uint64_t required_size = 0;  // poc' length high-water mark
  bool fsize_observed = false;
  /// True once every bunch is placed: execution continues through ℓ
  /// (Algorithm 2's ExploreWhileEp) and the state finalizes — solving
  /// the combined system into poc' — when it crashes or exits ℓ, so
  /// required_size covers the bytes ℓ itself consumes.
  bool combining_done = false;
  StateDeath death = StateDeath::kAlive;

  /// Executor bookkeeping, not semantic state: the footprint charged to
  /// the global queued-memory gauge when this state was enqueued. COW
  /// owner counts shift while a state sits queued, so FootprintBytes()
  /// at pop time need not equal the push-time value — the gauge must be
  /// credited exactly what it was debited or it drifts (and, being
  /// unsigned, would wrap on underflow).
  std::size_t queued_charge = 0;

  /// Rough live-memory footprint in bytes, the Table IV "RAM" metric.
  /// Counts the state's own containers; storage shared with forked
  /// siblings (memory pages, the heap and loop-counter maps) is charged
  /// fractionally — bytes divided by owner count — so Σ footprints over
  /// the live worklist tracks real allocation instead of multiplying a
  /// shared page by every state that references it. Expression nodes
  /// stay charged once per reference, which over-approximates like a
  /// real symbolic executor's per-state accounting does.
  std::size_t FootprintBytes() const {
    std::size_t bytes = sizeof(SymState);
    bytes += mem.FootprintBytes();
    bytes += heap.get().size() *
             (sizeof(std::uint64_t) + sizeof(SymAlloc) + 48) /
             heap.owners();
    bytes += loop_counts.get().size() * 64 / loop_counts.owners();
    bytes += constraints.capacity() * sizeof(ExprRef) +
             constraints.size() * 40;
    bytes += pinned.size() * 48;
    bytes += solve_ctx.FootprintBytes();
    bytes += bunch_targets.capacity() * sizeof(std::uint32_t);
    bytes += read_offsets.items().capacity() * sizeof(std::uint32_t);
    bytes += frames.capacity() * sizeof(SymFrame);
    for (const SymFrame& f : frames) {
      bytes += f.regs.capacity() * sizeof(ExprRef);
    }
    return bytes;
  }
};

}  // namespace octopocs::symex
