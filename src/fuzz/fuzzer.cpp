#include "fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace octopocs::fuzz {

GreyboxFuzzer::GreyboxFuzzer(const vm::Program& target, vm::FuncId target_fn,
                             std::vector<Bytes> seeds, FuzzOptions options)
    : target_(target),
      target_fn_(target_fn),
      options_(options),
      initial_seeds_(std::move(seeds)),
      mutator_(options.rng_seed) {
  mutator_.PinOffsets(options.pinned_offsets);
}

double GreyboxFuzzer::Progress() const {
  return options_.max_execs == 0
             ? 1.0
             : static_cast<double>(execs_) / options_.max_execs;
}

GreyboxFuzzer::ExecOutcome GreyboxFuzzer::Execute(const Bytes& input) {
  ExecOutcome outcome;
  CoverageObserver cov;
  vm::ExecOptions exec;
  exec.fuel = options_.exec_fuel;
  vm::Interpreter interp(target_, input, exec);
  interp.AddObserver(&cov);
  const vm::ExecResult run = interp.Run();
  ++execs_;

  outcome.trap = run.trap;
  outcome.path_hash = CoverageMap::PathHash(cov.edges());
  outcome.interesting = coverage_.Merge(cov.edges()) > 0;
  ++path_frequency_[outcome.path_hash];

  if (distance_map_) {
    // Mean finite block-entry distance over the functions entered: the
    // closer the trace came to the target, the smaller the value.
    double sum = 0;
    std::size_t n = 0;
    for (const vm::FuncId fn : cov.call_trace()) {
      if (const auto d = distance_map_->Distance(fn, 0)) {
        sum += *d;
        ++n;
      }
    }
    outcome.distance = n == 0 ? -1 : sum / static_cast<double>(n);
    if (outcome.distance >= 0 && (result_.best_distance < 0 ||
                                  outcome.distance < result_.best_distance)) {
      result_.best_distance = outcome.distance;
    }
  }

  if (vm::IsVulnerabilityCrash(run.trap)) {
    for (const vm::BacktraceEntry& frame : run.backtrace) {
      if (frame.fn == target_fn_) {
        outcome.verified = true;
        if (!result_.verified) {
          result_.verified = true;
          result_.execs_to_crash = execs_;
          result_.crashing_input = input;
          result_.trap = run.trap;
        }
        break;
      }
    }
  }
  return outcome;
}

FuzzResult GreyboxFuzzer::Run() {
  const auto start = std::chrono::steady_clock::now();

  // Queue the initial seeds.
  for (const Bytes& seed : initial_seeds_) {
    const ExecOutcome outcome = Execute(seed);
    Seed s;
    s.data = seed;
    s.path_hash = outcome.path_hash;
    s.distance = outcome.distance;
    queue_.push_back(std::move(s));
    if (result_.verified) break;
  }

  std::size_t cursor = 0;
  while (!result_.verified && execs_ < options_.max_execs &&
         !queue_.empty() && !(result_.cancelled = options_.cancel.Check())) {
    Seed& seed = queue_[cursor % queue_.size()];
    ++cursor;
    ++seed.times_chosen;

    std::vector<Bytes> batch;
    if (!seed.deterministic_done && !options_.skip_deterministic) {
      batch = mutator_.DeterministicStage(seed.data, options_.det_budget);
    }
    seed.deterministic_done = true;
    const std::uint64_t energy = Energy(seed);
    for (std::uint64_t i = 0; i < energy; ++i) {
      const Bytes& other =
          queue_[mutator_.rng().Below(queue_.size())].data;
      batch.push_back(mutator_.Havoc(seed.data, other));
    }

    for (const Bytes& input : batch) {
      if (result_.verified || execs_ >= options_.max_execs ||
          (result_.cancelled = options_.cancel.ShouldStop())) {
        break;
      }
      const ExecOutcome outcome = Execute(input);
      if (outcome.interesting) {
        Seed s;
        s.data = input;
        s.path_hash = outcome.path_hash;
        s.distance = outcome.distance;
        queue_.push_back(std::move(s));
      }
    }
  }

  result_.execs = execs_;
  result_.corpus_size = queue_.size();
  result_.edges_covered = coverage_.count();
  result_.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result_;
}

// ---------------------------------------------------------------------------
// AFLFast
// ---------------------------------------------------------------------------

AflFastFuzzer::AflFastFuzzer(const vm::Program& target, vm::FuncId target_fn,
                             std::vector<Bytes> seeds, FuzzOptions options)
    : GreyboxFuzzer(target, target_fn, std::move(seeds), options),
      base_energy_(options.base_energy) {}

std::uint64_t AflFastFuzzer::Energy(const Seed& seed) {
  // FAST schedule: p(i) = min(α · 2^s(i) / f(i), M). α is the base
  // energy, s the times this seed was picked, f its path frequency.
  const std::uint64_t f =
      std::max<std::uint64_t>(1, path_frequency_[seed.path_hash]);
  const std::uint64_t s = std::min<std::uint64_t>(seed.times_chosen, 16);
  const double raw =
      static_cast<double>(base_energy_) * std::pow(2.0, double(s)) /
      static_cast<double>(f);
  return static_cast<std::uint64_t>(
      std::min<double>(raw, 16.0 * base_energy_));
}

// ---------------------------------------------------------------------------
// AFLGo
// ---------------------------------------------------------------------------

AflGoFuzzer::AflGoFuzzer(const vm::Program& target, vm::FuncId target_fn,
                         const cfg::Cfg& graph, std::vector<Bytes> seeds,
                         FuzzOptions options)
    : AflGoFuzzer(target, target_fn, graph.BackwardReachability(target_fn),
                  std::move(seeds), [](FuzzOptions o) {
                    // AFLGo evaluations run with -d (havoc only).
                    o.skip_deterministic = true;
                    return o;
                  }(options)) {}

AflGoFuzzer::AflGoFuzzer(const vm::Program& target, vm::FuncId target_fn,
                         cfg::DistanceMap distances, std::vector<Bytes> seeds,
                         FuzzOptions options)
    : GreyboxFuzzer(target, target_fn, std::move(seeds), options),
      base_energy_(options.base_energy) {
  distance_map_ = std::move(distances);
}

std::uint64_t AflGoFuzzer::Energy(const Seed& seed) {
  // Simulated-annealing schedule (APFL in the AFLGo paper): with
  // progress t and normalized seed distance d̄ ∈ [0,1],
  //   energy = base · 2^( (1 - d̄)·(1 - T) · k - T·k/2 ),  T = 1 - t.
  // Early on (T≈1) everything gets throttled equally (exploration);
  // late (T≈0) close seeds get exponentially more energy. Seeds with no
  // finite distance (never approached the target) are maximally far.
  if (seed.distance >= 0) {
    max_seen_distance_ = std::max(max_seen_distance_, seed.distance);
  }
  const double d_norm =
      seed.distance < 0 ? 1.0 : seed.distance / max_seen_distance_;
  const double t = Progress();
  const double temperature = 1.0 - t;
  constexpr double k = 10.0;
  const double exponent =
      (1.0 - d_norm) * (1.0 - temperature) * k - temperature * k / 2.0;
  const double raw =
      static_cast<double>(base_energy_) * std::pow(2.0, exponent);
  return static_cast<std::uint64_t>(
      std::clamp<double>(raw, 1.0, 16.0 * static_cast<double>(base_energy_)));
}

}  // namespace octopocs::fuzz
