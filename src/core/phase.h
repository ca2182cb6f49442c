// The phase graph (DESIGN.md §11): the pipeline's control flow as data.
//
// Verify() used to be one monolithic function that interleaved four
// concerns — the paper's phase sequence, wall-clock budgeting, failure
// attribution, and graceful degradation. This header factors the phase
// sequence into first-class Phase objects executed by a small driver
// (RunPhaseGraph), so the cross-cutting policy lives in exactly one
// place each:
//
//   DeadlinePolicy   owns every deadline: the whole-pipeline budget is
//                    anchored once at construction and every phase
//                    polls it; the fuzz rung's own budget anchors
//                    lazily when the rung first runs.
//   PhaseContext     the blackboard between phases: the pair under
//                    verification, the report being filled, the slots
//                    one phase produces and the next consumes, and the
//                    attribution string the exception-containment
//                    boundary in Verify() reads when a phase throws.
//   RunPhaseGraph    runs phases in order; a phase answers kContinue
//                    (next phase), kDone (verdict reached — stop), or
//                    kRetry (re-run me: adaptive θ, solver-budget
//                    retry). Every attempt gets a trace span.
//
// The four phases map onto the paper (§III) as:
//
//   CrashPrimitivePhase   Preprocessing + P1: discover ep on S(poc)'s
//                         crash callstack, then extract crash
//                         primitives by context-aware taint. Failure
//                         attribution transitions "preprocessing" →
//                         "P1" internally (the report's failed_phase
//                         vocabulary is unchanged).
//   GuidingInputPhase     builds T's CFG — the precondition for
//                         backward path finding ("cfg" attribution).
//   CombinePhase          P2+P3: directed symbolic execution with
//                         inline bunch pinning, then the final solve.
//                         Adaptive-θ and solver-budget retries surface
//                         as kRetry.
//   FuzzFallbackPhase     the trace-guided fuzzing rung (DESIGN.md
//                         §16): inert unless fuzz_fallback is on and
//                         CombinePhase dead-ended ("fuzz" attribution,
//                         its own fuzz_deadline_ms budget).
//   ConcreteVerifyPhase   P4: run T concretely on poc' and classify.
//
// Phases read and publish origin-side artifacts through an optional
// content-addressed ArtifactStore (core/artifact_store.h); a null store
// means every pair computes everything, byte-identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "support/deadline.h"
#include "symex/executor.h"
#include "taint/crash_primitive.h"

namespace octopocs::core {

enum class PhaseStatus : std::uint8_t {
  kContinue,  // phase succeeded; run the next phase
  kDone,      // the report holds a final verdict; stop the graph
  kRetry,     // re-run this phase (it adjusted its own knobs)
};

/// Owns the wall-clock budgets of one Verify() run: the whole-pipeline
/// deadline, which starts ticking at construction, and the fuzz rung's
/// own budget, which starts ticking the first time the rung asks for
/// its token. Wall clock there only abandons the campaign, it never
/// alters the (execution-counted) search, so the rung's verdict stays
/// reproducible. Tokens are sticky, so a retry must ask for a new one.
class DeadlinePolicy {
 public:
  explicit DeadlinePolicy(const PipelineOptions& options)
      : whole_(options.deadline_ms == 0
                   ? support::Deadline::Never()
                   : support::Deadline::AfterMillis(options.deadline_ms)),
        cancel_flag_(options.cancel_flag),
        fuzz_budget_ms_(options.fuzz_deadline_ms) {}

  support::CancelToken Token() const {
    return support::CancelToken(whole_, cancel_flag_);
  }

  support::CancelToken FuzzToken() {
    if (!fuzz_anchored_) {
      fuzz_ = fuzz_budget_ms_ == 0
                  ? support::Deadline::Never()
                  : support::Deadline::AfterMillis(fuzz_budget_ms_);
      fuzz_anchored_ = true;
    }
    return support::CancelToken(support::Deadline::Sooner(whole_, fuzz_),
                                cancel_flag_);
  }

 private:
  const support::Deadline whole_;
  const std::atomic<int>* cancel_flag_;
  const std::uint64_t fuzz_budget_ms_;
  support::Deadline fuzz_;
  bool fuzz_anchored_ = false;
};

/// The blackboard shared by the phases of one Verify() run.
struct PhaseContext {
  // The pair under verification (borrowed from the Octopocs instance).
  Octopocs& pipeline;
  const vm::Program& s;
  const vm::Program& t;
  const std::vector<std::string>& shared;
  const Bytes& poc;
  const std::map<std::string, std::string>& t_names;
  const PipelineOptions& options;

  VerificationReport& report;
  DeadlinePolicy& deadlines;
  support::Tracer* tracer = nullptr;
  ArtifactStore* artifacts = nullptr;

  // -- Slots: produced by one phase, consumed by later ones -----------------
  /// P1 output (shared with the artifact store on a cache hit).
  std::shared_ptr<const taint::ExtractionResult> primitives;
  /// T's CFG (rehydrated from cached edges on a hit).
  std::optional<cfg::Cfg> graph;

  /// Failure attribution for Verify()'s exception-containment boundary:
  /// always names the phase currently running, in the report's
  /// failed_phase vocabulary ("preprocessing", "P1", "cfg", "P2/P3",
  /// "fuzz", "P4").
  std::string attribution = "preprocessing";

  /// Wall-clock failure: the named phase's deadline (or the kill
  /// switch) tripped before a verdict.
  void FailDeadline(const std::string& which) {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = which;
    report.deadline_expired = true;
    report.detail = "wall-clock deadline expired during " + which;
  }

  /// Tooling failure: the named phase could not decide the pair.
  void FailTool(const std::string& which, std::string detail) {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = which;
    report.detail = std::move(detail);
  }
};

class Phase {
 public:
  virtual ~Phase() = default;
  /// Static-lifetime phase label (also the trace span name).
  virtual const char* name() const = 0;
  virtual PhaseStatus Run(PhaseContext& ctx) = 0;
};

/// Preprocessing + P1: locate ep, extract crash primitives.
class CrashPrimitivePhase : public Phase {
 public:
  const char* name() const override { return "crash_primitive"; }
  PhaseStatus Run(PhaseContext& ctx) override;
};

/// CFG of T — the precondition for backward path finding.
class GuidingInputPhase : public Phase {
 public:
  const char* name() const override { return "guiding_input"; }
  PhaseStatus Run(PhaseContext& ctx) override;
};

/// P2+P3: directed symex, inline combining, final solve. Holds the
/// retry state (doubled θ, doubled solver budget) across kRetry
/// re-entries.
class CombinePhase : public Phase {
 public:
  const char* name() const override { return "combine"; }
  PhaseStatus Run(PhaseContext& ctx) override;

 private:
  std::optional<symex::ExecutorOptions> sym_opts_;
  bool solver_retried_ = false;
};

/// The trace-guided fuzzing fallback rung (DESIGN.md §16). Inert — an
/// immediate kContinue — whenever P2/P3 produced a poc'. It only sees
/// control at all when CombinePhase dead-ended (program-dead or budget
/// exhaustion) with options.fuzz_fallback set: CombinePhase stages its
/// usual dead-end verdict in the report and answers kContinue instead
/// of kDone, and this phase either *upgrades* that staged verdict to
/// kTriggeredByFuzzing (a directed campaign crashed T at ep and a P4
/// re-run confirmed it) or leaves it exactly as staged. Always answers
/// kDone on the fallback path, so ConcreteVerifyPhase never runs on a
/// fuzzed candidate — classification stays the rung's own kFuzzed row.
///
/// By construction the rung can never flip a decided pair: kTriggered
/// ends the graph in P4, and the *proof* verdicts (ep-unreachable,
/// unsat) make CombinePhase answer kDone before this phase exists in
/// the control flow.
class FuzzFallbackPhase : public Phase {
 public:
  const char* name() const override { return "fuzz_fallback"; }
  PhaseStatus Run(PhaseContext& ctx) override;
};

/// P4: concrete verification of poc' and Type-I/II classification.
class ConcreteVerifyPhase : public Phase {
 public:
  const char* name() const override { return "concrete_verify"; }
  PhaseStatus Run(PhaseContext& ctx) override;
};

/// Runs `phases` in order, re-invoking a phase while it answers kRetry
/// and stopping at the first kDone. Emits one trace span per attempt.
void RunPhaseGraph(PhaseContext& ctx, std::span<Phase* const> phases);

}  // namespace octopocs::core
