// OCTOPOCS — the public pipeline API.
//
// Verifies whether a vulnerability that propagated from S into T can
// still be triggered, by reforming S's proof-of-concept (paper §III):
//
//   Preprocessing  discover ep — the bottom-most ℓ function on the
//                  crash callstack of S(poc) (backtrace(3) substitute).
//   P1             context-aware taint analysis over S(poc) extracts
//                  crash primitives, grouped into per-encounter bunches.
//   P2             directed symbolic execution of T, steered by
//                  backward path finding on T's CFG, collects guiding
//                  constraints from the entry to ep.
//   P3             at each ep encounter the matching bunch is pinned at
//                  T's file-position indicator; after the last bunch the
//                  combined system is solved into poc'.
//   P4             T runs concretely on poc'; a trap of the expected
//                  class verifies the propagated vulnerability.
//
// Verdicts follow §III-D: Triggered (case i), NotTriggerable (case ii —
// ep unreachable, case iii — program-dead, or an unsatisfiable combined
// system), and Failure for tooling limits (the simulated angr CFG
// defect, solver budget), which is exactly the paper's Failure row.
//
// Typical use:
//
//   corpus::Pair pair = corpus::BuildPair(8);   // opj_dump → MuPDF
//   core::Octopocs pipeline(pair.s, pair.t, pair.shared_functions,
//                           pair.poc);
//   core::VerificationReport report = pipeline.Verify();
//   if (report.verdict == core::Verdict::kTriggered) {
//     // report.reformed_poc crashes pair.t
//   }
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "corpus/pairs.h"
#include "support/bytes.h"
#include "support/deadline.h"
#include "symex/executor.h"
#include "taint/crash_primitive.h"
#include "vm/interp.h"

namespace octopocs::support {
class Tracer;
}

namespace octopocs::core {

class ArtifactStore;

enum class Verdict : std::uint8_t {
  kTriggered,       // poc' reproduces the crash in T (patch urgently)
  kNotTriggerable,  // verified: the clone cannot fire in T
  kFailure,         // tooling could not decide (CFG/solver/budget)
  /// The fuzz-fallback rung (DESIGN.md §16) crashed T at ep after
  /// symex went program-dead or ran out of budget. Reported apart from
  /// kTriggered so Table II fidelity is untouched: a fuzzed crash is a
  /// real trigger but not a paper-pipeline reformation.
  kTriggeredByFuzzing,
};

std::string_view VerdictName(Verdict verdict);

/// Table II result classification. kFuzzed is the fallback rung's
/// distinct row — never counted among Type-I/II/III.
enum class ResultType : std::uint8_t {
  kTypeI,
  kTypeII,
  kTypeIII,
  kFailure,
  kFuzzed,
};

std::string_view ResultTypeName(ResultType type);

struct PhaseTimings {
  double preprocess_seconds = 0;
  double p1_seconds = 0;
  double p23_seconds = 0;  // guiding + combining run as one phase
  double p4_seconds = 0;
  double total_seconds = 0;
};

struct VerificationReport {
  Verdict verdict = Verdict::kFailure;
  ResultType type = ResultType::kFailure;
  /// Why the pipeline reached this verdict (CFG error text, unsat
  /// detail, trap message, ...).
  std::string detail;

  /// Discovered shared-area entry point.
  std::string ep_name;
  vm::FuncId ep_in_s = vm::kInvalidFunc;
  vm::FuncId ep_in_t = vm::kInvalidFunc;

  /// P1 outcome.
  std::uint32_t ep_encounters_in_s = 0;
  std::size_t bunch_count = 0;
  std::size_t crash_primitive_bytes = 0;

  /// P2/P3 outcome.
  symex::SymexStatus symex_status = symex::SymexStatus::kProgramDead;
  symex::SymexStats symex_stats;
  bool poc_generated = false;
  Bytes reformed_poc;
  std::vector<std::uint32_t> bunch_offsets;  // where bunches landed

  /// P4 outcome (only meaningful when poc_generated).
  vm::TrapKind observed_trap = vm::TrapKind::kNone;

  // -- Degradation record (DESIGN.md §9) ------------------------------------

  /// Phase that produced a kFailure verdict: "preprocessing", "P1",
  /// "cfg", "P2/P3", "fuzz" (an exception inside the fuzz rung) or
  /// "P4". Empty for success verdicts.
  std::string failed_phase;
  /// The failure is a wall-clock timeout (deadline or kill switch), not
  /// a statement about the pair.
  bool deadline_expired = false;
  /// A phase threw and the exception was contained into this report
  /// instead of escaping (tooling crash / injected fault).
  bool exception_contained = false;

  // -- Fuzz-fallback record (DESIGN.md §16) ---------------------------------
  // Serialized sparsely: these keys only appear in a report when the
  // rung actually ran, so rung-off serializations stay byte-identical
  // to pipelines without the rung.

  /// The fallback campaign ran (regardless of outcome).
  bool fuzz_attempted = false;
  /// Executions spent (equals the crash index when one was found).
  std::uint64_t fuzz_execs = 0;
  std::uint64_t fuzz_execs_to_crash = 0;
  /// Closest mean distance-to-ep any execution achieved (-1: none).
  double fuzz_best_distance = -1;
  /// The rng seed the campaign ran with (reproduction handle).
  std::uint64_t fuzz_seed = 0;

  PhaseTimings timings;
};

struct PipelineOptions {
  taint::ExtractionOptions taint;  // context_aware is the Table III knob
  symex::ExecutorOptions symex;    // theta / budgets (Tables IV & V)
  cfg::CfgOptions cfg;             // dynamic CFG / simulated angr defect
  /// P4 execution limits; the fuel bound doubles as the hang detector
  /// for infinite-loop (CWE-835) vulnerabilities.
  vm::ExecOptions verify_exec;
  /// Feed the original PoC to the dynamic CFG builder as a seed (angr's
  /// dynamic CFG equally observes concrete executions).
  bool poc_as_cfg_seed = true;
  /// Adaptive loop cap — the improvement the paper leaves as future
  /// work (§III-D "improving OCTOPOCS so that it can efficiently handle
  /// loops"): when P2/P3 ends program-dead *and* some state was killed
  /// by θ, retry with θ doubled, up to adaptive_theta_max. A
  /// NotTriggerable verdict is only trusted once no state died at the
  /// cap (or the ceiling is hit, which degrades the verdict to Failure
  /// instead of a potentially wrong NotTriggerable).
  bool adaptive_theta = false;
  std::uint32_t adaptive_theta_max = 1'920;

  // -- Deadlines and cancellation (DESIGN.md §9) ----------------------------

  /// Wall-clock budget over the whole pipeline, milliseconds (0 = none).
  /// Tripping yields kFailure with deadline_expired set and failed_phase
  /// naming the phase that was running.
  std::uint64_t deadline_ms = 0;
  /// External kill switch, polled alongside the deadline; trips on
  /// nonzero (the CLI stores the signal number). Not owned; may be
  /// null; must outlive Verify().
  const std::atomic<int>* cancel_flag = nullptr;

  // -- Fuzz-fallback rung ----------------------------------------------------

  /// Trace-guided fuzzing fallback (DESIGN.md §16): when P2/P3 ends
  /// program-dead or exhausts its budgets, run a directed fuzz campaign
  /// seeded from the original PoC — bunch bytes pinned, candidates
  /// scored by distance-to-ep — and, on a confirmed crash at ep, report
  /// kTriggeredByFuzzing. Off by default; the rung
  /// can upgrade a dead-end verdict but never touches a pair the
  /// pipeline already decided (Triggered or a proven NotTriggerable).
  bool fuzz_fallback = false;
  /// Fallback campaign rng seed — with the execution budget below this
  /// makes the rung's verdict byte-reproducible (the determinism
  /// contract CI gates). Verdict-bearing: enters the stored-report key
  /// (ReportKey), unlike the answer-identical test seams (cycle skip,
  /// solver core).
  std::uint64_t fuzz_seed = 1;
  /// Fallback execution budget (count, not wall clock).
  std::uint64_t fuzz_execs = 200'000;

  // -- Observability and artifact reuse (DESIGN.md §11) ---------------------

  /// Structured-tracing sink threaded through every layer (phase spans,
  /// executor counters). Not owned, may be null, must outlive Verify().
  /// Pure observability: never affects verdicts or determinism.
  support::Tracer* tracer = nullptr;
  /// Content-addressed artifact store. When set, phases consult it
  /// before recomputing origin-side artifacts (ep discovery, crash
  /// primitives, T's CFG edges) and publish completed results, so
  /// corpus pairs sharing an origin S (or a target T) reuse work.
  /// Results are byte-identical with and without the store (enforced by
  /// tests and the perf gate). Not owned, may be null, may be shared
  /// across threads, must outlive Verify(). Never enters artifact keys.
  ArtifactStore* artifacts = nullptr;
};

class Octopocs {
 public:
  /// `shared_functions` is ℓ by name (the clone detector's output; both
  /// programs must contain these functions). When T renamed the cloned
  /// functions, `t_names` maps S-side names to T-side names — exactly
  /// what clone::DetectClones reports for renamed matches.
  Octopocs(const vm::Program& s, const vm::Program& t,
           std::vector<std::string> shared_functions, Bytes poc,
           PipelineOptions options = {},
           std::map<std::string, std::string> t_names = {});

  /// Runs the full pipeline as one straight line: preprocessing → P1 →
  /// T's CFG → P2/P3 (retried with a doubled θ under adaptive_theta) →
  /// P4, stopping at the first verdict. A P2/P3 dead end (program-dead,
  /// budget) runs the fuzz rung instead of P4 when options.fuzz_fallback
  /// is set. One deadline covers the whole run, and an exception from
  /// any stage is contained into a kFailure report naming that stage.
  VerificationReport Verify();

  // -- Individual phases, exposed for the ablation benches ------------------

  /// Preprocessing: runs S(poc) and locates ep (§III "Preprocessing").
  /// Returns nullopt when the PoC does not crash S or no ℓ function is
  /// involved in the crash. A tripped `cancel` also yields nullopt (the
  /// run ends in kDeadline, which is not a crash).
  std::optional<vm::FuncId> DiscoverEp(support::CancelToken cancel = {});

  /// P1 with the configured taint options.
  taint::ExtractionResult ExtractPrimitives(vm::FuncId ep_in_s,
                                            support::CancelToken cancel = {});

 private:
  /// Verify()'s stages in order; fills `report` and returns at the first
  /// verdict, keeping `attribution` on the stage that is running.
  void RunStages(const support::Deadline& deadline, VerificationReport& report,
                 std::string& attribution);
  /// The fuzz rung (DESIGN.md §16) on a P2/P3 dead end: upgrades the
  /// dead-end verdict in `report` to kTriggeredByFuzzing when a campaign
  /// crash at ep is confirmed by a P4 re-run, and leaves it otherwise.
  void RunFuzzRung(const support::Deadline& deadline, const cfg::Cfg& graph,
                   const std::vector<taint::Bunch>& bunches,
                   VerificationReport& report, std::string& attribution);

  const vm::Program& s_;
  const vm::Program& t_;
  std::vector<std::string> shared_;
  Bytes poc_;
  PipelineOptions options_;
  std::map<std::string, std::string> t_names_;
};

/// Convenience wrapper for corpus pairs.
VerificationReport VerifyPair(const corpus::Pair& pair,
                              PipelineOptions options = {});

}  // namespace octopocs::core
