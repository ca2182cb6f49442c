// Chaos soak harness: streams a generated corpus (gen/generator.h)
// through every execution surface the project has — in-process parallel
// batch, the supervised persistent worker pool over a report cache, a
// rerun served from that cache, the serve daemon (in-process and as a
// SIGKILLed-and-restarted subprocess) — under a seeded chaos schedule
// that arms every support::FaultSite, and mechanically checks the
// crash-tolerance invariants the design documents promise:
//
//   - every generated pair ends with exactly one verdict per leg;
//   - every verdict matches the generator's label (including
//     NotTriggerable guard pairs, TriggeredByFuzzing hostile pairs and
//     a transitive S→T→U chain);
//   - the same seed yields byte-identical corpora and byte-identical
//     canonical reports across runs (SerializeSoakReport is the
//     diffable artifact);
//   - a report cache written under worker chaos holds every pair's
//     key, and a rerun over it re-dispatches nothing;
//   - a SIGKILLed daemon restarted on the same cache dir loses no
//     verdict and answers every repeat request identically;
//   - the resource-hog pair dies to its rlimit, classified as a
//     resource kill, without wedging or mislabeling anything.
//
// Any violated invariant lands in SoakReport::violations; ok() is the
// single gate CI checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace octopocs::support {
class Tracer;
}

namespace octopocs::gen {

struct SoakOptions {
  /// Seeds the generator, the chaos schedule and the fuzz rung.
  std::uint64_t seed = 1;
  /// Generated corpus size (ordinals 0..pairs-1).
  int pairs = 64;
  /// Parallelism: in-process verification jobs, serve worker threads,
  /// client threads, pool size.
  unsigned jobs = 2;
  /// Arm fault sites / abort workers during the legs. Off = a plain
  /// correctness soak (still checks every label).
  bool chaos = true;
  /// Scratch directory for caches, sockets and stamp files.
  /// Required by every leg except the pure in-process ones.
  std::string workdir;
  /// Path of the octopocs CLI for worker/daemon legs; empty skips them.
  std::string worker_binary;
  /// SIGKILL-and-restart cycles in the daemon leg.
  int daemon_kills = 1;
  /// Fuzz-rung budget per pair. Small by default: generated hostile
  /// pairs crash within a few thousand execs.
  std::uint64_t fuzz_execs = 20000;
  support::Tracer* tracer = nullptr;
  // Leg switches (CI's smoke preset runs all of them).
  bool run_batch = true;     // A: in-process VerifyCorpus
  bool run_chain = true;     // B: transitive S→T→U chains
  bool run_isolated = true;  // C: worker pool + report cache, chaos
  bool run_resume = true;    // D: cache replay through a worker pool
  bool run_rlimit = true;    // E: hog pair vs RLIMIT_CPU
  bool run_serve = true;     // F: in-process daemon + retrying clients
  bool run_daemon = true;    // G: subprocess daemon, SIGKILL mid-load
};

struct SoakReport {
  int pairs = 0;
  int legs_run = 0;
  // Deterministic body (serialized; CI byte-diffs two same-seed runs).
  int label_matches = 0;  // out of `pairs`, from the batch leg
  int chains_verified = 0;
  std::vector<std::string> canonical;   // sorted timing-free verdict lines
  std::vector<std::string> violations;  // empty == every invariant held
  std::vector<std::string> skipped_legs;
  // Run-dependent stats (printed, never serialized: retry/shed counts
  // depend on scheduling and chaos timing).
  int chaos_faults_armed = 0;
  int client_retries = 0;
  std::uint64_t server_sheds = 0;
  int daemon_restarts = 0;
  int quarantines = 0;
  std::uint64_t resume_dispatches = 0;  // must stay 0 (leg D)

  bool ok() const { return violations.empty(); }
};

/// Runs every enabled leg. Never throws; infrastructure problems (a
/// missing workdir, a daemon that would not start) become violations.
SoakReport RunSoak(const SoakOptions& options);

/// The deterministic half of the report as text: pair count, canonical
/// verdict lines, chain count, violations. Two same-seed soaks must
/// serialize byte-identically — that equality is itself a soak invariant
/// CI enforces by diffing.
std::string SerializeSoakReport(const SoakReport& report);

}  // namespace octopocs::gen
