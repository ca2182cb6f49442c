// Greybox fuzzing baselines for Table V.
//
// AflFastFuzzer reproduces AFLFast's search strategy: coverage-guided
// queue culling with the FAST power schedule — energy grows
// exponentially with how often a seed was fuzzed (2^s) and shrinks with
// how often its path was exercised (1/f), which focuses effort on
// rarely-hit paths (Böhme et al., "Coverage-based Greybox Fuzzing as
// Markov Chain").
//
// AflGoFuzzer reproduces AFLGo's directed strategy: each seed gets a
// distance to the target function (mean block-level distance over its
// call trace, from the same backward-reachability map OCTOPOCS uses)
// and a simulated-annealing schedule shifts energy toward close seeds
// as the time budget burns down (Böhme et al., "Directed Greybox
// Fuzzing").
//
// Success criterion (matching the paper's "verify the propagated
// vulnerability"): a vulnerability-class crash whose callstack includes
// the target shared function.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "fuzz/coverage.h"
#include "fuzz/mutator.h"
#include "support/bytes.h"
#include "support/deadline.h"
#include "vm/interp.h"

namespace octopocs::fuzz {

struct FuzzOptions {
  /// Execution budget — the scaled-down analog of the paper's 20 hours.
  std::uint64_t max_execs = 200'000;
  std::uint64_t exec_fuel = 100'000;
  std::uint64_t rng_seed = 1;
  /// Deterministic-stage output cap per seed.
  std::size_t det_budget = 4'096;
  /// Skip the deterministic stages (AFL's -d). Directed-fuzzing
  /// evaluations conventionally run with -d; AflGoFuzzer's CFG-taking
  /// constructor sets this to match the Table V baselines.
  bool skip_deterministic = false;
  /// Base havoc energy per queue cycle.
  std::uint64_t base_energy = 64;
  /// Byte offsets the mutator must never change (P1 bunch pins). Empty
  /// leaves the campaign byte-identical to the unpinned baseline.
  std::vector<std::uint32_t> pinned_offsets;
  /// Cooperative stop: polled between executions. The default token
  /// never trips, so the budget alone bounds the campaign — which is
  /// what keeps a seeded campaign reproducible (the deadline merely
  /// abandons it, it never changes which input crashes).
  support::CancelToken cancel;
};

struct FuzzResult {
  bool verified = false;      // target-function crash found
  std::uint64_t execs = 0;    // executions performed
  std::uint64_t execs_to_crash = 0;
  double elapsed_seconds = 0;
  Bytes crashing_input;
  vm::TrapKind trap = vm::TrapKind::kNone;
  std::size_t corpus_size = 0;
  std::size_t edges_covered = 0;
  /// Closest mean distance-to-target observed (directed runs; -1 when
  /// no trace ever had a finite distance or no distance map was set).
  double best_distance = -1;
  /// The cancel token tripped before the execution budget ran out.
  bool cancelled = false;
};

/// Shared campaign machinery; the power schedule is the strategy point.
class GreyboxFuzzer {
 public:
  GreyboxFuzzer(const vm::Program& target, vm::FuncId target_fn,
                std::vector<Bytes> seeds, FuzzOptions options);
  virtual ~GreyboxFuzzer() = default;

  FuzzResult Run();

 protected:
  struct Seed {
    Bytes data;
    std::uint64_t path_hash = 0;
    std::uint64_t times_chosen = 0;  // s(i)
    double distance = -1;            // AFLGo only; -1 = unknown/infinite
    bool deterministic_done = false;
  };

  /// Number of havoc mutations to spend on `seed` this cycle.
  virtual std::uint64_t Energy(const Seed& seed) = 0;

  /// Campaign progress in [0, 1] — drives AFLGo's annealing.
  double Progress() const;

  const std::vector<Seed>& queue() const { return queue_; }

  std::map<std::uint64_t, std::uint64_t> path_frequency_;  // f(path)

  /// Optional distance map (AFLGo).
  std::optional<cfg::DistanceMap> distance_map_;
  const vm::Program& target_;
  vm::FuncId target_fn_;

 private:
  struct ExecOutcome {
    bool interesting = false;
    bool verified = false;
    std::uint64_t path_hash = 0;
    double distance = -1;
    vm::TrapKind trap = vm::TrapKind::kNone;
  };

  ExecOutcome Execute(const Bytes& input);

  FuzzOptions options_;
  std::vector<Seed> queue_;
  std::vector<Bytes> initial_seeds_;
  CoverageMap coverage_;
  Mutator mutator_;
  std::uint64_t execs_ = 0;
  FuzzResult result_;
};

/// AFLFast: FAST power schedule, no direction.
class AflFastFuzzer : public GreyboxFuzzer {
 public:
  AflFastFuzzer(const vm::Program& target, vm::FuncId target_fn,
                std::vector<Bytes> seeds, FuzzOptions options = {});

 protected:
  std::uint64_t Energy(const Seed& seed) override;

 private:
  std::uint64_t base_energy_;
};

/// AFLGo: distance-annealed power schedule over the same machinery.
/// The distance map comes from the target program's CFG — built the
/// same way OCTOPOCS builds it.
class AflGoFuzzer : public GreyboxFuzzer {
 public:
  /// Table V baseline shape: derives the distance map from `graph` and
  /// runs with -d (havoc only), matching AFLGo's evaluation setup.
  AflGoFuzzer(const vm::Program& target, vm::FuncId target_fn,
              const cfg::Cfg& graph, std::vector<Bytes> seeds,
              FuzzOptions options = {});

  /// Directed-library shape: the caller supplies an already-computed
  /// backward distance map (the pipeline exports the one its CFG phase
  /// built rather than rebuilding it) and decides the stage mix via
  /// `options` — the fallback rung keeps the deterministic stage on so
  /// a fixed seed cracks structured headers reproducibly.
  AflGoFuzzer(const vm::Program& target, vm::FuncId target_fn,
              cfg::DistanceMap distances, std::vector<Bytes> seeds,
              FuzzOptions options = {});

 protected:
  std::uint64_t Energy(const Seed& seed) override;

 private:
  std::uint64_t base_energy_;
  double max_seen_distance_ = 1;
};

}  // namespace octopocs::fuzz
