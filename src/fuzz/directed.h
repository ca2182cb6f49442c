// DirectedFuzz: the trace-guided fuzzing library the pipeline's fallback
// rung drives (DESIGN.md §16).
//
// The Table V fuzzers in fuzzer.h reproduce published baselines and stay
// untouched; this front door composes the same machinery for a different
// job — recovering a verdict when directed symbolic execution went
// program-dead or exhausted its budgets. Three inputs make it "directed
// by the historical trace" in the TransferFuzz sense:
//
//   seed        the original PoC (it crashed S, so its container
//               structure is known-good),
//   pins        P1's bunch byte offsets — the crash primitives are
//               *preserved* and mutation effort goes into the container
//               around them,
//   distances   the backward distance-to-ep map the pipeline's CFG
//               phase already built — candidates that trace closer to
//               ep earn exponentially more energy (AFLGo annealing).
//
// Determinism contract: with a fixed rng seed and an execution budget
// the campaign is a pure function of (target, seed, pins, distances) —
// wall clock only ever *abandons* it via the cancel token, never alters
// which candidate crashes first. That is what lets the fallback verdict
// be byte-reproducible and CI-gated like the backend-identity legs.
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/cfg.h"
#include "fuzz/fuzzer.h"
#include "support/bytes.h"
#include "support/deadline.h"
#include "vm/interp.h"

namespace octopocs::fuzz {

struct DirectedFuzzOptions {
  /// Execution budget — the determinism-bearing bound.
  std::uint64_t max_execs = 200'000;
  /// Per-execution instruction fuel. Higher than the Table V baselines:
  /// fallback targets often spend a long concrete loop before reaching
  /// ep (that is usually why symex died there).
  std::uint64_t exec_fuel = 1'000'000;
  std::uint64_t rng_seed = 1;
  /// Deterministic-stage output cap per seed. The fallback keeps the
  /// deterministic stage on (unlike the -d baselines): walking
  /// interesting-value writes over the unpinned header bytes are what
  /// crack length/count fields reproducibly.
  std::size_t det_budget = 4'096;
  std::uint64_t base_energy = 64;
  /// P1 bunch byte offsets (poc coordinates) the mutator must preserve.
  std::vector<std::uint32_t> pinned_offsets;
  /// Wall-clock abandon switch (the fuzz budget, the pipeline deadline
  /// and the pipeline's cancel flag). Tripping never changes the search order — the campaign is
  /// simply cut short and reports cancelled.
  support::CancelToken cancel;
};

struct DirectedFuzzResult {
  bool crash_found = false;  // vulnerability crash with ep on the stack
  Bytes crashing_input;
  vm::TrapKind trap = vm::TrapKind::kNone;
  std::uint64_t execs = 0;
  std::uint64_t execs_to_crash = 0;
  /// Closest mean distance-to-ep any execution achieved (-1: none).
  double best_distance = -1;
  std::size_t corpus_size = 0;
  std::size_t edges_covered = 0;
  bool cancelled = false;
};

/// Runs one directed campaign against `target`, seeking a vulnerability
/// crash with `target_fn` (ep) on the callstack. `distances` is borrowed
/// for the duration of the call.
DirectedFuzzResult RunDirectedFuzz(const vm::Program& target,
                                   vm::FuncId target_fn,
                                   const cfg::DistanceMap& distances,
                                   const Bytes& seed,
                                   const DirectedFuzzOptions& options);

}  // namespace octopocs::fuzz
