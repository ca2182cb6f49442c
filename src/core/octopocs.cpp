#include "core/octopocs.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <type_traits>

#include "core/artifact_store.h"
#include "core/phase.h"
#include "fuzz/directed.h"
#include "support/trace.h"

namespace octopocs::core {

// Reports cross thread and container boundaries constantly (corpus
// workers, bench legs); they must move without deep-copying the
// reformed PoC or the stats payloads.
static_assert(std::is_nothrow_move_constructible_v<VerificationReport>);
static_assert(std::is_nothrow_move_assignable_v<VerificationReport>);

namespace {

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Observes the first entry into any ℓ function — the fallback ep
/// discovery when the crash backtrace has no ℓ frame (e.g. a CWE-835
/// hang caught while execution happens to sit outside ℓ).
class FirstSharedEntry : public vm::ExecutionObserver {
 public:
  explicit FirstSharedEntry(std::set<vm::FuncId> shared)
      : shared_(std::move(shared)) {}

  void OnCallEnter(vm::FuncId callee, std::span<const std::uint64_t>,
                   const vm::Instr*) override {
    if (!first_ && shared_.count(callee) != 0) first_ = callee;
  }

  std::optional<vm::FuncId> first() const { return first_; }

  /// `shared_` is fixed at construction; `first_` is the only mutable
  /// state, so this suffices for the interpreter's cycle fast-forward.
  bool SnapshotState(std::vector<std::uint8_t>* out) const override {
    AppendLe(*out, first_.has_value() ? 1 : 0, 1);
    AppendLe(*out, first_.value_or(0), 4);
    return true;
  }

 private:
  std::set<vm::FuncId> shared_;
  std::optional<vm::FuncId> first_;
};

// -- Artifact keys (DESIGN.md §11) -------------------------------------------
//
// Every input that can change the artifact's value goes into its key;
// observability state (tracer, store pointers) never does. Cancellation
// state never does either — instead, results are only *published* when
// their token did not trip, so a stored artifact is always the value of
// the completed, deterministic computation.

/// Preprocessing output: whether ep exists and which function it is.
/// FuncIds index Program::functions, so they are stable across
/// structurally identical programs — exactly the equivalence the key
/// hashes.
struct EpArtifact {
  bool found = false;
  vm::FuncId ep = vm::kInvalidFunc;
};

void HashExec(ArtifactHasher& h, const vm::ExecOptions& exec) {
  // dispatch/fuse/cycle_skip are deliberately excluded: they produce
  // byte-identical results, so cached artifacts stay valid across
  // dispatch modes and with fusion or the cycle fast-forward on or off
  // (the shortcut-off differential in tests/ depends on it). The same
  // policy covers SolverOptions::backend — no artifact key hashes
  // SolverOptions, so the solver core can never split identical keys.
  h.U64(exec.fuel).U64(exec.max_call_depth).U64(exec.heap_limit);
}

void HashBytes(ArtifactHasher& h, const Bytes& bytes) {
  h.U64(bytes.size()).Bytes(bytes.data(), bytes.size());
}

ArtifactKey EpKey(const PhaseContext& ctx) {
  ArtifactHasher h;
  h.Program(ctx.s);
  HashBytes(h, ctx.poc);
  // ep discovery treats ℓ as a set; sort so the caller's ordering
  // cannot split otherwise identical keys.
  std::vector<std::string> names(ctx.shared);
  std::sort(names.begin(), names.end());
  h.U64(names.size());
  for (const std::string& name : names) h.Str(name);
  HashExec(h, ctx.options.verify_exec);
  return h.Finish("ep");
}

ArtifactKey P1Key(const PhaseContext& ctx, vm::FuncId ep_in_s) {
  ArtifactHasher h;
  h.Program(ctx.s);
  HashBytes(h, ctx.poc);
  h.U32(ep_in_s);
  h.Bool(ctx.options.taint.context_aware);
  // Mirror ExtractPrimitives' fuel clamp so the key matches the options
  // the extraction actually ran with.
  vm::ExecOptions exec = ctx.options.taint.exec;
  if (exec.fuel < ctx.options.verify_exec.fuel) {
    exec.fuel = ctx.options.verify_exec.fuel;
  }
  HashExec(h, exec);
  return h.Finish("p1");
}

ArtifactKey CfgKey(const PhaseContext& ctx, const cfg::CfgOptions& opts) {
  ArtifactHasher h;
  h.Program(ctx.t);
  h.Bool(opts.use_dynamic);
  h.Bool(opts.resolve_obfuscated_icalls);
  h.U64(opts.seed_inputs.size());
  for (const Bytes& seed : opts.seed_inputs) HashBytes(h, seed);
  HashExec(h, opts.exec);
  return h.Finish("cfg");
}

void CountArtifact(PhaseContext& ctx, const char* name) {
  if (ctx.tracer != nullptr) ctx.tracer->Counter(name, 1);
}

/// Type-I/II classification of a Triggered verdict (paper Table II).
ResultType ClassifyReformed(const Bytes& original, const Bytes& reformed,
                            const std::vector<std::uint32_t>& bunch_offsets,
                            const std::vector<taint::Bunch>& bunches) {
  // Type-I: every crash-primitive byte stayed at its original offset
  // (the relocation was the identity) and the guiding region of poc'
  // byte-matches the original PoC. Anything else means the PoC was
  // genuinely reformed — Type-II. Note poc' may legitimately be shorter
  // than poc (the paper observed reformed PoCs dropping unnecessary
  // trailing bytes); only bytes poc' actually contains are compared.
  std::set<std::uint32_t> sources;
  for (const taint::Bunch& bunch : bunches) {
    for (const auto& [off, val] : bunch.bytes) {
      // Pre-ep bytes travel through ep's parameters, not placement;
      // only relocatable bytes participate in the identity check.
      if (off >= bunch.file_pos_at_ep) sources.insert(off);
    }
  }
  const std::set<std::uint32_t> targets(bunch_offsets.begin(),
                                        bunch_offsets.end());
  if (sources != targets) return ResultType::kTypeII;
  for (std::uint32_t off = 0; off < reformed.size(); ++off) {
    if (targets.count(off) != 0) continue;  // crash primitive
    if (off >= original.size() || reformed[off] != original[off]) {
      return ResultType::kTypeII;
    }
  }
  return ResultType::kTypeI;
}

}  // namespace

std::string_view VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kTriggered: return "Triggered";
    case Verdict::kNotTriggerable: return "NotTriggerable";
    case Verdict::kFailure: return "Failure";
    case Verdict::kTriggeredByFuzzing: return "TriggeredByFuzzing";
  }
  return "?";
}

std::string_view ResultTypeName(ResultType type) {
  switch (type) {
    case ResultType::kTypeI: return "Type-I";
    case ResultType::kTypeII: return "Type-II";
    case ResultType::kTypeIII: return "Type-III";
    case ResultType::kFailure: return "Failure";
    case ResultType::kFuzzed: return "Fuzzed";
  }
  return "?";
}

Octopocs::Octopocs(const vm::Program& s, const vm::Program& t,
                   std::vector<std::string> shared_functions, Bytes poc,
                   PipelineOptions options,
                   std::map<std::string, std::string> t_names)
    : s_(s),
      t_(t),
      shared_(std::move(shared_functions)),
      poc_(std::move(poc)),
      options_(std::move(options)),
      t_names_(std::move(t_names)) {}

std::optional<vm::FuncId> Octopocs::DiscoverEp(support::CancelToken cancel) {
  std::set<vm::FuncId> shared_ids;
  for (const std::string& name : shared_) {
    const vm::FuncId id = s_.FindFunction(name);
    if (id != vm::kInvalidFunc) shared_ids.insert(id);
  }
  if (shared_ids.empty()) return std::nullopt;

  FirstSharedEntry fallback(shared_ids);
  vm::ExecOptions exec = options_.verify_exec;
  exec.cancel = cancel;
  vm::Interpreter interp(s_, poc_, exec);
  interp.AddObserver(&fallback);
  const vm::ExecResult run = interp.Run();
  if (!vm::IsCrash(run.trap)) return std::nullopt;

  // ep: the bottom-most (outermost) ℓ function on the crash callstack —
  // "the first function to be called in ℓ".
  for (const vm::BacktraceEntry& frame : run.backtrace) {
    if (shared_ids.count(frame.fn) != 0) return frame.fn;
  }
  return fallback.first();
}

taint::ExtractionResult Octopocs::ExtractPrimitives(vm::FuncId ep_in_s,
                                                    support::CancelToken cancel) {
  taint::ExtractionOptions opts = options_.taint;
  // The taint run must be allowed at least as much fuel as the verify
  // run, or a CWE-835 hang would never reach its "crash".
  if (opts.exec.fuel < options_.verify_exec.fuel) {
    opts.exec.fuel = options_.verify_exec.fuel;
  }
  opts.exec.cancel = cancel;
  return taint::ExtractCrashPrimitives(s_, poc_, ep_in_s, opts);
}

// -- CrashPrimitivePhase: Preprocessing + P1 ---------------------------------

PhaseStatus CrashPrimitivePhase::Run(PhaseContext& ctx) {
  using Clock = std::chrono::steady_clock;
  VerificationReport& report = ctx.report;

  // -- Preprocessing: locate ep --------------------------------------------
  ctx.attribution = "preprocessing";
  const auto t0 = Clock::now();
  support::CancelToken pre_tok = ctx.deadlines.Token();

  std::optional<vm::FuncId> ep_s;
  ArtifactKey ep_key{};
  bool resolved = false;
  if (ctx.artifacts != nullptr) {
    ep_key = EpKey(ctx);
    if (auto hit = ctx.artifacts->Get<EpArtifact>(ep_key)) {
      if (hit->found) ep_s = hit->ep;
      resolved = true;
      CountArtifact(ctx, "artifact.ep.hit");
    } else {
      CountArtifact(ctx, "artifact.ep.miss");
    }
  }
  if (!resolved) {
    ep_s = ctx.pipeline.DiscoverEp(pre_tok);
    // "Not found" is a deterministic statement about (S, poc) and is
    // cached too — but only when the clock did not cut the run short.
    if (ctx.artifacts != nullptr && !pre_tok.Check()) {
      ctx.artifacts->Put(ep_key,
                         EpArtifact{ep_s.has_value(),
                                    ep_s.value_or(vm::kInvalidFunc)});
    }
  }
  report.timings.preprocess_seconds = Seconds(t0, Clock::now());
  if (!ep_s) {
    // A cancelled run ends in kDeadline, which is not a crash, so ep
    // discovery comes back empty — attribute that to the clock, not to
    // the PoC.
    if (pre_tok.Check()) {
      ctx.FailDeadline("preprocessing");
      return PhaseStatus::kDone;
    }
    ctx.FailTool("preprocessing",
                 "preprocessing failed: the PoC does not crash S inside ℓ");
    return PhaseStatus::kDone;
  }
  report.ep_in_s = *ep_s;
  report.ep_name = ctx.s.Fn(*ep_s).name;
  const auto renamed = ctx.t_names.find(report.ep_name);
  report.ep_in_t = ctx.t.FindFunction(
      renamed != ctx.t_names.end() ? renamed->second : report.ep_name);
  if (report.ep_in_t == vm::kInvalidFunc) {
    // The clone is not even present — trivially not triggerable.
    report.verdict = Verdict::kNotTriggerable;
    report.type = ResultType::kTypeIII;
    report.detail = "ep '" + report.ep_name + "' does not exist in T";
    return PhaseStatus::kDone;
  }

  // -- P1: crash primitives --------------------------------------------------
  ctx.attribution = "P1";
  const auto t1 = Clock::now();
  support::CancelToken p1_tok = ctx.deadlines.Token();

  ArtifactKey p1_key{};
  if (ctx.artifacts != nullptr) {
    p1_key = P1Key(ctx, *ep_s);
    if (auto hit = ctx.artifacts->Get<taint::ExtractionResult>(p1_key)) {
      ctx.primitives = std::move(hit);
      CountArtifact(ctx, "artifact.p1.hit");
    } else {
      CountArtifact(ctx, "artifact.p1.miss");
    }
  }
  if (ctx.primitives == nullptr) {
    taint::ExtractionResult extracted =
        ctx.pipeline.ExtractPrimitives(*ep_s, p1_tok);
    if (ctx.artifacts != nullptr && !p1_tok.Check()) {
      ctx.primitives = ctx.artifacts->Put(p1_key, std::move(extracted));
    } else {
      ctx.primitives = std::make_shared<const taint::ExtractionResult>(
          std::move(extracted));
    }
  }
  const taint::ExtractionResult& p1 = *ctx.primitives;
  report.timings.p1_seconds = Seconds(t1, Clock::now());
  report.ep_encounters_in_s = p1.ep_encounters;
  report.bunch_count = p1.bunches.size();
  for (const taint::Bunch& b : p1.bunches) {
    report.crash_primitive_bytes += b.size();
  }
  if (!p1.Crashed() || p1.bunches.empty()) {
    if (p1_tok.Check()) {
      ctx.FailDeadline("P1");
      return PhaseStatus::kDone;
    }
    ctx.FailTool("P1", "P1 failed: no crash primitives extracted");
    return PhaseStatus::kDone;
  }
  return PhaseStatus::kContinue;
}

// -- GuidingInputPhase: CFG of T (P2 precondition) ---------------------------

PhaseStatus GuidingInputPhase::Run(PhaseContext& ctx) {
  using Clock = std::chrono::steady_clock;
  VerificationReport& report = ctx.report;

  ctx.attribution = "cfg";
  const auto t0 = Clock::now();
  support::CancelToken p23_tok = ctx.deadlines.Token();
  cfg::CfgOptions cfg_opts = ctx.options.cfg;
  if (ctx.options.poc_as_cfg_seed) cfg_opts.seed_inputs.push_back(ctx.poc);
  cfg_opts.exec.cancel = p23_tok;

  ArtifactKey cfg_key{};
  bool rehydrated = false;
  if (ctx.artifacts != nullptr) {
    cfg_key = CfgKey(ctx, cfg_opts);
    if (auto hit = ctx.artifacts->Get<cfg::Cfg::Edges>(cfg_key)) {
      ctx.graph.emplace(cfg::Cfg::FromEdges(ctx.t, *hit));
      rehydrated = true;
      CountArtifact(ctx, "artifact.cfg.hit");
    } else {
      CountArtifact(ctx, "artifact.cfg.miss");
    }
  }
  if (!rehydrated) {
    try {
      ctx.graph.emplace(cfg::Cfg::Build(ctx.t, cfg_opts));
      if (ctx.artifacts != nullptr && !p23_tok.Check()) {
        ctx.artifacts->Put(cfg_key, ctx.graph->ExportEdges());
      }
    } catch (const cfg::CfgError& e) {
      if (p23_tok.Check()) {
        ctx.FailDeadline("cfg");
        return PhaseStatus::kDone;
      }
      // The paper's Idx-15 outcome: CFG recovery failed, verification
      // is impossible (a tooling failure, not a verdict about T).
      ctx.FailTool("cfg", e.what());
      return PhaseStatus::kDone;
    }
  }
  report.timings.p23_seconds += Seconds(t0, Clock::now());
  return PhaseStatus::kContinue;
}

// -- CombinePhase: P2 + P3 ---------------------------------------------------

PhaseStatus CombinePhase::Run(PhaseContext& ctx) {
  using Clock = std::chrono::steady_clock;
  VerificationReport& report = ctx.report;

  ctx.attribution = "P2/P3";
  const auto t0 = Clock::now();
  support::CancelToken p23_tok = ctx.deadlines.Token();
  if (!sym_opts_) {
    sym_opts_ = ctx.options.symex;
    // Hint the solver with the original PoC so reformed PoCs stay as
    // close to the original as the constraints allow.
    for (std::uint32_t off = 0; off < ctx.poc.size(); ++off) {
      sym_opts_->solver.hints.emplace(off, ctx.poc[off]);
    }
    sym_opts_->tracer = ctx.tracer;
  }
  // Tokens are sticky value types: retries must re-request one so a
  // fresh attempt polls the live pipeline deadline, not a spent copy.
  sym_opts_->cancel = p23_tok;
  sym_opts_->solver.cancel = p23_tok;

  symex::SymExecutor executor(ctx.t, *ctx.graph, report.ep_in_t, *sym_opts_);
  symex::SymexResult sym = executor.GeneratePoc(ctx.primitives->bunches);
  report.timings.p23_seconds += Seconds(t0, Clock::now());

  bool theta_ceiling_hit = false;
  // Out of wall-clock: no retry of any kind can run to completion.
  if (sym.status != symex::SymexStatus::kDeadline) {
    // Adaptive θ: a program-dead verdict caused (possibly) by the loop
    // cap is retried with a doubled cap until the verdict stabilises.
    if (ctx.options.adaptive_theta &&
        sym.status == symex::SymexStatus::kProgramDead &&
        sym.loop_dead_observed) {
      if (sym_opts_->theta >= ctx.options.adaptive_theta_max) {
        theta_ceiling_hit = true;
      } else {
        sym_opts_->theta *= 2;
        return PhaseStatus::kRetry;
      }
    }
  }

  report.symex_status = sym.status;
  report.symex_stats = sym.stats;
  report.detail = sym.detail;

  // Dead ends — program-dead and budget exhaustion — may hand control
  // to the fuzz-fallback rung (DESIGN.md §16): the usual verdict is
  // *staged* in the report exactly as it would have been final, and the
  // answer becomes kContinue so FuzzFallbackPhase can try to upgrade
  // it. Proof verdicts (ep unreachable, unsat) and wall-clock failures
  // stay kDone: the rung must never second-guess a proof, and a spent
  // clock cannot fund a campaign.
  const auto stage_or_done = [&ctx]() {
    return ctx.options.fuzz_fallback ? PhaseStatus::kContinue
                                     : PhaseStatus::kDone;
  };

  switch (sym.status) {
    case symex::SymexStatus::kPocGenerated:
      break;  // proceed to P4
    case symex::SymexStatus::kCfgUnreachable:
      report.verdict = Verdict::kNotTriggerable;  // case (ii)
      report.type = ResultType::kTypeIII;
      return PhaseStatus::kDone;
    case symex::SymexStatus::kProgramDead:  // case (iii)
      if (theta_ceiling_hit) {
        // The search was cut by the loop cap even at the adaptive
        // ceiling: refusing to call this NotTriggerable avoids the
        // wrong-verdict failure mode §VII warns about.
        ctx.FailTool("P2/P3", "loop cap ceiling reached without a verdict");
        return stage_or_done();
      }
      // Program-dead is a dead end, not an unsat proof: every state
      // died, but a θ cut (without adaptive mode) or incomplete forking
      // may have hidden a live path — a concrete witness can still
      // overrule it.
      report.verdict = Verdict::kNotTriggerable;
      report.type = ResultType::kTypeIII;
      return stage_or_done();
    case symex::SymexStatus::kUnsat:        // P3.3 / parameter mismatch
      report.verdict = Verdict::kNotTriggerable;
      report.type = ResultType::kTypeIII;
      return PhaseStatus::kDone;
    case symex::SymexStatus::kBudget:
    case symex::SymexStatus::kSolverFailure:
      report.verdict = Verdict::kFailure;
      report.type = ResultType::kFailure;
      report.failed_phase = "P2/P3";
      return stage_or_done();
    case symex::SymexStatus::kReachedEp:
      report.verdict = Verdict::kFailure;
      report.type = ResultType::kFailure;
      report.failed_phase = "P2/P3";
      return PhaseStatus::kDone;
    case symex::SymexStatus::kDeadline:
      ctx.FailDeadline("P2/P3");
      if (!sym.detail.empty()) report.detail += " (" + sym.detail + ")";
      return PhaseStatus::kDone;
  }

  report.poc_generated = true;
  report.reformed_poc = std::move(sym.poc);
  report.bunch_offsets = std::move(sym.bunch_offsets);
  return PhaseStatus::kContinue;
}

// -- FuzzFallbackPhase: the trace-guided fuzzing rung (DESIGN.md §16) --------

PhaseStatus FuzzFallbackPhase::Run(PhaseContext& ctx) {
  VerificationReport& report = ctx.report;
  // P2/P3 produced a poc' — the paper pipeline proceeds untouched.
  if (report.poc_generated) return PhaseStatus::kContinue;

  // Only reachable when CombinePhase staged a dead-end verdict with the
  // rung enabled. That staged verdict survives verbatim unless a
  // campaign crash at ep is confirmed by a P4 re-run below.
  ctx.attribution = "fuzz";
  support::CancelToken fuzz_tok = ctx.deadlines.FuzzToken();

  report.fuzz_attempted = true;
  report.fuzz_seed = ctx.options.fuzz_seed;

  fuzz::DirectedFuzzOptions fuzz_opts;
  fuzz_opts.max_execs = ctx.options.fuzz_execs;
  fuzz_opts.rng_seed = ctx.options.fuzz_seed;
  fuzz_opts.cancel = fuzz_tok;
  // Pin every P1 bunch byte: the crash primitives are the part of the
  // historical trace worth carrying over verbatim — mutation effort
  // goes into the container around them.
  for (const taint::Bunch& bunch : ctx.primitives->bunches) {
    for (const auto& [offset, value] : bunch.bytes) {
      fuzz_opts.pinned_offsets.push_back(offset);
    }
  }

  // Score candidates with the backward distance map of the CFG the
  // guiding phase already built (exported, not rebuilt).
  const cfg::DistanceMap distances =
      ctx.graph->BackwardReachability(report.ep_in_t);
  const fuzz::DirectedFuzzResult run =
      fuzz::RunDirectedFuzz(ctx.t, report.ep_in_t, distances, ctx.poc,
                            fuzz_opts);

  report.fuzz_execs = run.execs;
  report.fuzz_execs_to_crash = run.execs_to_crash;
  report.fuzz_best_distance = run.best_distance;
  if (ctx.tracer != nullptr) {
    ctx.tracer->Counter("fuzz.execs", static_cast<std::int64_t>(run.execs));
  }

  if (run.crash_found) {
    // Re-run P4 concrete verification under the pipeline's own P4
    // options — the campaign's exec fuel differs from verify_exec's,
    // and only the pipeline's executor decides verdicts.
    ctx.attribution = "P4";
    support::CancelToken p4_tok = ctx.deadlines.Token();
    vm::ExecOptions verify_exec = ctx.options.verify_exec;
    verify_exec.cancel = p4_tok;
    const vm::ExecResult verify =
        vm::RunProgram(ctx.t, run.crashing_input, verify_exec);
    bool ep_on_stack = false;
    for (const vm::BacktraceEntry& frame : verify.backtrace) {
      if (frame.fn == report.ep_in_t) {
        ep_on_stack = true;
        break;
      }
    }
    if (vm::IsVulnerabilityCrash(verify.trap) && ep_on_stack) {
      report.verdict = Verdict::kTriggeredByFuzzing;
      report.type = ResultType::kFuzzed;
      report.failed_phase.clear();
      report.observed_trap = verify.trap;
      report.reformed_poc = run.crashing_input;
      report.detail = "fuzz fallback crashed T at ep: " +
                      std::string(vm::TrapName(verify.trap)) + " (" +
                      verify.trap_message + ")";
    }
  }
  // The rung is terminal either way: an unconfirmed campaign keeps the
  // staged dead-end verdict, and ConcreteVerifyPhase must never run on
  // a fuzzed candidate.
  return PhaseStatus::kDone;
}

// -- ConcreteVerifyPhase: P4 -------------------------------------------------

PhaseStatus ConcreteVerifyPhase::Run(PhaseContext& ctx) {
  using Clock = std::chrono::steady_clock;
  VerificationReport& report = ctx.report;

  ctx.attribution = "P4";
  const auto t0 = Clock::now();
  support::CancelToken p4_tok = ctx.deadlines.Token();
  vm::ExecOptions verify_exec = ctx.options.verify_exec;
  verify_exec.cancel = p4_tok;
  const vm::ExecResult verify =
      vm::RunProgram(ctx.t, report.reformed_poc, verify_exec);
  report.timings.p4_seconds = Seconds(t0, Clock::now());
  report.observed_trap = verify.trap;
  if (verify.trap == vm::TrapKind::kDeadline) {
    ctx.FailDeadline("P4");
    return PhaseStatus::kDone;
  }
  if (vm::IsVulnerabilityCrash(verify.trap)) {
    report.verdict = Verdict::kTriggered;  // case (i)
    report.type = ClassifyReformed(ctx.poc, report.reformed_poc,
                                   report.bunch_offsets,
                                   ctx.primitives->bunches);
    report.detail = "poc' crashed T: " + std::string(vm::TrapName(verify.trap)) +
                    " (" + verify.trap_message + ")";
  } else {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = "P4";
    report.detail = "generated poc' did not reproduce the crash in T";
  }
  return PhaseStatus::kDone;
}

// -- Driver ------------------------------------------------------------------

void RunPhaseGraph(PhaseContext& ctx, std::span<Phase* const> phases) {
  for (Phase* phase : phases) {
    for (std::int64_t attempt = 0;; ++attempt) {
      PhaseStatus status;
      {
        support::TraceSpan span(ctx.tracer, phase->name(), attempt);
        status = phase->Run(ctx);
      }
      if (status == PhaseStatus::kRetry) {
        if (ctx.tracer != nullptr) ctx.tracer->Counter("phase.retry", 1);
        continue;
      }
      if (status == PhaseStatus::kDone) return;
      break;  // kContinue → next phase
    }
  }
}

VerificationReport Octopocs::Verify() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  VerificationReport report;
  DeadlinePolicy deadlines(options_);
  PhaseContext ctx{*this,
                   s_,
                   t_,
                   shared_,
                   poc_,
                   t_names_,
                   options_,
                   report,
                   deadlines,
                   options_.tracer,
                   options_.artifacts,
                   /*primitives=*/nullptr,
                   /*graph=*/std::nullopt,
                   /*attribution=*/"preprocessing"};

  CrashPrimitivePhase crash_primitive;
  GuidingInputPhase guiding_input;
  CombinePhase combine;
  FuzzFallbackPhase fuzz_fallback;
  ConcreteVerifyPhase concrete_verify;
  Phase* const phases[] = {&crash_primitive, &guiding_input, &combine,
                           &fuzz_fallback, &concrete_verify};

  support::TraceSpan verify_span(options_.tracer, "verify");
  try {
    RunPhaseGraph(ctx, phases);
  } catch (const std::exception& e) {
    // Containment boundary: any phase exception — a tooling crash, an
    // injected FaultError — degrades to a well-formed kFailure report
    // that keeps whatever stats the completed phases already recorded.
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = ctx.attribution;
    report.exception_contained = true;
    report.detail =
        "contained exception during " + ctx.attribution + ": " + e.what();
  } catch (...) {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = ctx.attribution;
    report.exception_contained = true;
    report.detail = "contained non-standard exception during " + ctx.attribution;
  }
  report.timings.total_seconds = Seconds(t0, Clock::now());
  return report;
}

VerificationReport VerifyPair(const corpus::Pair& pair,
                              PipelineOptions options) {
  Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc,
                    std::move(options), pair.t_names);
  return pipeline.Verify();
}

}  // namespace octopocs::core
