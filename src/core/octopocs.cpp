#include "core/octopocs.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <type_traits>

#include "core/artifact_store.h"
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
  // cycle_skip is deliberately excluded: it produces byte-identical
  // results, so cached artifacts stay valid with the cycle fast-forward
  // on or off (the shortcut-off differential in tests/ depends on it).
  // The same policy covers SolverOptions::backend — no artifact key
  // hashes SolverOptions, so the solver core can never split identical
  // keys.
  h.U64(exec.fuel).U64(exec.max_call_depth).U64(exec.heap_limit);
}

void HashBytes(ArtifactHasher& h, const Bytes& bytes) {
  h.U64(bytes.size()).Bytes(bytes.data(), bytes.size());
}

ArtifactKey EpKey(const vm::Program& s, const Bytes& poc,
                  const std::vector<std::string>& shared,
                  const vm::ExecOptions& verify_exec) {
  ArtifactHasher h;
  h.Program(s);
  HashBytes(h, poc);
  // ep discovery treats ℓ as a set; sort so the caller's ordering
  // cannot split otherwise identical keys.
  std::vector<std::string> names(shared);
  std::sort(names.begin(), names.end());
  h.U64(names.size());
  for (const std::string& name : names) h.Str(name);
  HashExec(h, verify_exec);
  return h.Finish("ep");
}

ArtifactKey P1Key(const vm::Program& s, const Bytes& poc, vm::FuncId ep_in_s,
                  const PipelineOptions& options) {
  ArtifactHasher h;
  h.Program(s);
  HashBytes(h, poc);
  h.U32(ep_in_s);
  h.Bool(options.taint.context_aware);
  // Mirror ExtractPrimitives' fuel clamp so the key matches the options
  // the extraction actually ran with.
  vm::ExecOptions exec = options.taint.exec;
  if (exec.fuel < options.verify_exec.fuel) {
    exec.fuel = options.verify_exec.fuel;
  }
  HashExec(h, exec);
  return h.Finish("p1");
}

ArtifactKey CfgKey(const vm::Program& t, const cfg::CfgOptions& opts) {
  ArtifactHasher h;
  h.Program(t);
  h.Bool(opts.use_dynamic);
  h.Bool(opts.resolve_obfuscated_icalls);
  h.U64(opts.seed_inputs.size());
  for (const Bytes& seed : opts.seed_inputs) HashBytes(h, seed);
  HashExec(h, opts.exec);
  return h.Finish("cfg");
}

void CountArtifact(support::Tracer* tracer, const char* name) {
  if (tracer != nullptr) tracer->Counter(name, 1);
}

/// Wall-clock failure: the pipeline deadline (or the kill switch)
/// tripped during stage `which` before a verdict.
void FailDeadline(VerificationReport& report, const std::string& which) {
  report.verdict = Verdict::kFailure;
  report.type = ResultType::kFailure;
  report.failed_phase = which;
  report.deadline_expired = true;
  report.detail = "wall-clock deadline expired during " + which;
}

/// Tooling failure: stage `which` could not decide the pair.
void FailTool(VerificationReport& report, const std::string& which,
              std::string detail) {
  report.verdict = Verdict::kFailure;
  report.type = ResultType::kFailure;
  report.failed_phase = which;
  report.detail = std::move(detail);
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

VerificationReport Octopocs::Verify() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  VerificationReport report;
  // One wall-clock budget over the whole pipeline, anchored here.
  const support::Deadline deadline =
      options_.deadline_ms == 0
          ? support::Deadline::Never()
          : support::Deadline::AfterMillis(options_.deadline_ms);
  // Names the stage that is running, in the report's failed_phase
  // vocabulary: the containment boundary below charges an exception to
  // it.
  std::string attribution = "preprocessing";

  support::TraceSpan verify_span(options_.tracer, "verify");
  try {
    RunStages(deadline, report, attribution);
  } catch (const std::exception& e) {
    // Containment boundary: any stage exception — a tooling crash, an
    // injected FaultError — degrades to a well-formed kFailure report
    // that keeps whatever stats the completed stages already recorded.
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = attribution;
    report.exception_contained = true;
    report.detail =
        "contained exception during " + attribution + ": " + e.what();
  } catch (...) {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = attribution;
    report.exception_contained = true;
    report.detail = "contained non-standard exception during " + attribution;
  }
  report.timings.total_seconds = Seconds(t0, Clock::now());
  return report;
}

void Octopocs::RunStages(const support::Deadline& deadline,
                         VerificationReport& report,
                         std::string& attribution) {
  using Clock = std::chrono::steady_clock;
  support::Tracer* const tracer = options_.tracer;
  ArtifactStore* const artifacts = options_.artifacts;
  // Tokens are sticky value types, so each stage (and each θ attempt)
  // polls the live deadline through a fresh one, never a spent copy.
  const auto token = [&] {
    return support::CancelToken(deadline, options_.cancel_flag);
  };

  // P1 output (shared with the artifact store on a cache hit).
  std::shared_ptr<const taint::ExtractionResult> primitives;
  {
    support::TraceSpan span(tracer, "crash_primitive");

    // -- Preprocessing: locate ep ------------------------------------------
    attribution = "preprocessing";
    const auto t0 = Clock::now();
    support::CancelToken pre_tok = token();

    std::optional<vm::FuncId> ep_s;
    ArtifactKey ep_key{};
    bool resolved = false;
    if (artifacts != nullptr) {
      ep_key = EpKey(s_, poc_, shared_, options_.verify_exec);
      if (auto hit = artifacts->Get<EpArtifact>(ep_key)) {
        if (hit->found) ep_s = hit->ep;
        resolved = true;
        CountArtifact(tracer, "artifact.ep.hit");
      } else {
        CountArtifact(tracer, "artifact.ep.miss");
      }
    }
    if (!resolved) {
      ep_s = DiscoverEp(pre_tok);
      // "Not found" is a deterministic statement about (S, poc) and is
      // cached too — but only when the clock did not cut the run short.
      if (artifacts != nullptr && !pre_tok.Check()) {
        artifacts->Put(ep_key, EpArtifact{ep_s.has_value(),
                                          ep_s.value_or(vm::kInvalidFunc)});
      }
    }
    report.timings.preprocess_seconds = Seconds(t0, Clock::now());
    if (!ep_s) {
      // A cancelled run ends in kDeadline, which is not a crash, so ep
      // discovery comes back empty — attribute that to the clock, not to
      // the PoC.
      if (pre_tok.Check()) {
        FailDeadline(report, "preprocessing");
        return;
      }
      FailTool(report, "preprocessing",
               "preprocessing failed: the PoC does not crash S inside ℓ");
      return;
    }
    report.ep_in_s = *ep_s;
    report.ep_name = s_.Fn(*ep_s).name;
    const auto renamed = t_names_.find(report.ep_name);
    report.ep_in_t = t_.FindFunction(
        renamed != t_names_.end() ? renamed->second : report.ep_name);
    if (report.ep_in_t == vm::kInvalidFunc) {
      // The clone is not even present — trivially not triggerable.
      report.verdict = Verdict::kNotTriggerable;
      report.type = ResultType::kTypeIII;
      report.detail = "ep '" + report.ep_name + "' does not exist in T";
      return;
    }

    // -- P1: crash primitives ----------------------------------------------
    attribution = "P1";
    const auto t1 = Clock::now();
    support::CancelToken p1_tok = token();

    ArtifactKey p1_key{};
    if (artifacts != nullptr) {
      p1_key = P1Key(s_, poc_, *ep_s, options_);
      if (auto hit = artifacts->Get<taint::ExtractionResult>(p1_key)) {
        primitives = std::move(hit);
        CountArtifact(tracer, "artifact.p1.hit");
      } else {
        CountArtifact(tracer, "artifact.p1.miss");
      }
    }
    if (primitives == nullptr) {
      taint::ExtractionResult extracted = ExtractPrimitives(*ep_s, p1_tok);
      if (artifacts != nullptr && !p1_tok.Check()) {
        primitives = artifacts->Put(p1_key, std::move(extracted));
      } else {
        primitives = std::make_shared<const taint::ExtractionResult>(
            std::move(extracted));
      }
    }
    const taint::ExtractionResult& p1 = *primitives;
    report.timings.p1_seconds = Seconds(t1, Clock::now());
    report.ep_encounters_in_s = p1.ep_encounters;
    report.bunch_count = p1.bunches.size();
    for (const taint::Bunch& b : p1.bunches) {
      report.crash_primitive_bytes += b.size();
    }
    if (!p1.Crashed() || p1.bunches.empty()) {
      if (p1_tok.Check()) {
        FailDeadline(report, "P1");
        return;
      }
      FailTool(report, "P1", "P1 failed: no crash primitives extracted");
      return;
    }
  }
  const std::vector<taint::Bunch>& bunches = primitives->bunches;

  // -- T's CFG: the precondition for backward path finding -----------------
  // (rehydrated from cached edges on a store hit).
  std::optional<cfg::Cfg> graph;
  {
    support::TraceSpan span(tracer, "guiding_input");
    attribution = "cfg";
    const auto t0 = Clock::now();
    support::CancelToken p23_tok = token();
    cfg::CfgOptions cfg_opts = options_.cfg;
    if (options_.poc_as_cfg_seed) cfg_opts.seed_inputs.push_back(poc_);
    cfg_opts.exec.cancel = p23_tok;

    ArtifactKey cfg_key{};
    if (artifacts != nullptr) {
      cfg_key = CfgKey(t_, cfg_opts);
      if (auto hit = artifacts->Get<cfg::Cfg::Edges>(cfg_key)) {
        graph.emplace(cfg::Cfg::FromEdges(t_, *hit));
        CountArtifact(tracer, "artifact.cfg.hit");
      } else {
        CountArtifact(tracer, "artifact.cfg.miss");
      }
    }
    if (!graph) {
      try {
        graph.emplace(cfg::Cfg::Build(t_, cfg_opts));
        if (artifacts != nullptr && !p23_tok.Check()) {
          artifacts->Put(cfg_key, graph->ExportEdges());
        }
      } catch (const cfg::CfgError& e) {
        if (p23_tok.Check()) {
          FailDeadline(report, "cfg");
          return;
        }
        // The paper's Idx-15 outcome: CFG recovery failed, verification
        // is impossible (a tooling failure, not a verdict about T).
        FailTool(report, "cfg", e.what());
        return;
      }
    }
    report.timings.p23_seconds += Seconds(t0, Clock::now());
  }

  // -- P2 + P3: directed symex, inline bunch pinning, final solve ----------
  symex::ExecutorOptions sym_opts = options_.symex;
  // Hint the solver with the original PoC so reformed PoCs stay as close
  // to the original as the constraints allow.
  for (std::uint32_t off = 0; off < poc_.size(); ++off) {
    sym_opts.solver.hints.emplace(off, poc_[off]);
  }
  sym_opts.tracer = tracer;
  symex::SymexResult sym;
  bool theta_ceiling_hit = false;
  // Adaptive θ: a program-dead verdict caused (possibly) by the loop cap
  // is retried with a doubled cap until the verdict stabilises. Each
  // attempt gets its own `combine` span; a `phase.retry` counter sits
  // between two attempts.
  for (std::int64_t attempt = 0;; ++attempt) {
    if (attempt > 0 && tracer != nullptr) tracer->Counter("phase.retry", 1);
    support::TraceSpan span(tracer, "combine", attempt);
    attribution = "P2/P3";
    const auto t0 = Clock::now();
    support::CancelToken p23_tok = token();
    sym_opts.cancel = p23_tok;
    sym_opts.solver.cancel = p23_tok;
    symex::SymExecutor executor(t_, *graph, report.ep_in_t, sym_opts);
    sym = executor.GeneratePoc(bunches);
    report.timings.p23_seconds += Seconds(t0, Clock::now());
    if (!options_.adaptive_theta ||
        sym.status != symex::SymexStatus::kProgramDead ||
        !sym.loop_dead_observed) {
      break;
    }
    if (sym_opts.theta >= options_.adaptive_theta_max) {
      theta_ceiling_hit = true;
      break;
    }
    sym_opts.theta *= 2;
  }

  report.symex_status = sym.status;
  report.symex_stats = sym.stats;
  report.detail = sym.detail;
  switch (sym.status) {
    case symex::SymexStatus::kPocGenerated:
      break;  // proceed to P4
    case symex::SymexStatus::kCfgUnreachable:
      report.verdict = Verdict::kNotTriggerable;  // case (ii)
      report.type = ResultType::kTypeIII;
      return;
    case symex::SymexStatus::kProgramDead:  // case (iii)
      if (theta_ceiling_hit) {
        // The search was cut by the loop cap even at the adaptive
        // ceiling: refusing to call this NotTriggerable avoids the
        // wrong-verdict failure mode §VII warns about.
        FailTool(report, "P2/P3", "loop cap ceiling reached without a verdict");
        break;
      }
      // Program-dead is a dead end, not an unsat proof: every state
      // died, but a θ cut (without adaptive mode) or incomplete forking
      // may have hidden a live path — a concrete witness can still
      // overrule it.
      report.verdict = Verdict::kNotTriggerable;
      report.type = ResultType::kTypeIII;
      break;
    case symex::SymexStatus::kUnsat:  // P3.3 / parameter mismatch
      report.verdict = Verdict::kNotTriggerable;
      report.type = ResultType::kTypeIII;
      return;
    case symex::SymexStatus::kBudget:
    case symex::SymexStatus::kSolverFailure:
      report.verdict = Verdict::kFailure;
      report.type = ResultType::kFailure;
      report.failed_phase = "P2/P3";
      break;
    case symex::SymexStatus::kReachedEp:
      report.verdict = Verdict::kFailure;
      report.type = ResultType::kFailure;
      report.failed_phase = "P2/P3";
      return;
    case symex::SymexStatus::kDeadline:
      FailDeadline(report, "P2/P3");
      if (!sym.detail.empty()) report.detail += " (" + sym.detail + ")";
      return;
  }

  if (sym.status != symex::SymexStatus::kPocGenerated) {
    // A dead end — program-dead or budget exhaustion. Its verdict above
    // is final unless the fuzz rung (DESIGN.md §16) upgrades it. Proof
    // verdicts (ep unreachable, unsat) and wall-clock failures returned
    // above: the rung never second-guesses a proof, and a spent clock
    // cannot fund a campaign.
    if (options_.fuzz_fallback) {
      support::TraceSpan span(tracer, "fuzz_fallback");
      RunFuzzRung(deadline, *graph, bunches, report, attribution);
    }
    return;
  }
  report.poc_generated = true;
  report.reformed_poc = std::move(sym.poc);
  report.bunch_offsets = std::move(sym.bunch_offsets);

  // -- P4: concrete verification of poc' and Type-I/II classification ------
  support::TraceSpan span(tracer, "concrete_verify");
  attribution = "P4";
  const auto t0 = Clock::now();
  vm::ExecOptions verify_exec = options_.verify_exec;
  verify_exec.cancel = token();
  const vm::ExecResult verify =
      vm::RunProgram(t_, report.reformed_poc, verify_exec);
  report.timings.p4_seconds = Seconds(t0, Clock::now());
  report.observed_trap = verify.trap;
  if (verify.trap == vm::TrapKind::kDeadline) {
    FailDeadline(report, "P4");
    return;
  }
  if (vm::IsVulnerabilityCrash(verify.trap)) {
    report.verdict = Verdict::kTriggered;  // case (i)
    report.type = ClassifyReformed(poc_, report.reformed_poc,
                                   report.bunch_offsets, bunches);
    report.detail = "poc' crashed T: " + std::string(vm::TrapName(verify.trap)) +
                    " (" + verify.trap_message + ")";
  } else {
    report.verdict = Verdict::kFailure;
    report.type = ResultType::kFailure;
    report.failed_phase = "P4";
    report.detail = "generated poc' did not reproduce the crash in T";
  }
}

void Octopocs::RunFuzzRung(const support::Deadline& deadline,
                           const cfg::Cfg& graph,
                           const std::vector<taint::Bunch>& bunches,
                           VerificationReport& report,
                           std::string& attribution) {
  // The dead-end verdict already in `report` survives verbatim unless a
  // campaign crash at ep is confirmed by a P4 re-run below.
  attribution = "fuzz";
  report.fuzz_attempted = true;
  report.fuzz_seed = options_.fuzz_seed;

  fuzz::DirectedFuzzOptions fuzz_opts;
  fuzz_opts.max_execs = options_.fuzz_execs;
  fuzz_opts.rng_seed = options_.fuzz_seed;
  fuzz_opts.cancel = support::CancelToken(deadline, options_.cancel_flag);
  // Pin every P1 bunch byte: the crash primitives are the part of the
  // historical trace worth carrying over verbatim — mutation effort
  // goes into the container around them.
  for (const taint::Bunch& bunch : bunches) {
    for (const auto& [offset, value] : bunch.bytes) {
      fuzz_opts.pinned_offsets.push_back(offset);
    }
  }

  // Score candidates with the backward distance map of the CFG the
  // pipeline already built (exported, not rebuilt).
  const cfg::DistanceMap distances = graph.BackwardReachability(report.ep_in_t);
  const fuzz::DirectedFuzzResult run =
      fuzz::RunDirectedFuzz(t_, report.ep_in_t, distances, poc_, fuzz_opts);

  report.fuzz_execs = run.execs;
  report.fuzz_execs_to_crash = run.execs_to_crash;
  report.fuzz_best_distance = run.best_distance;
  if (options_.tracer != nullptr) {
    options_.tracer->Counter("fuzz.execs",
                             static_cast<std::int64_t>(run.execs));
  }
  // A campaign the clock or the drain cut short is a statement about
  // this run, not the pair: it must not pass for a spent budget.
  if (run.cancelled) {
    FailDeadline(report, "fuzz");
    return;
  }
  if (!run.crash_found) return;

  // Re-run P4 concrete verification under the pipeline's own P4 options
  // — the campaign's exec fuel differs from verify_exec's, and only the
  // pipeline's executor decides verdicts. The fuzzed candidate never
  // goes through the paper's P4 classification: it gets the rung's own
  // kFuzzed row.
  attribution = "P4";
  vm::ExecOptions verify_exec = options_.verify_exec;
  verify_exec.cancel = support::CancelToken(deadline, options_.cancel_flag);
  const vm::ExecResult verify =
      vm::RunProgram(t_, run.crashing_input, verify_exec);
  if (verify.trap == vm::TrapKind::kDeadline) {
    FailDeadline(report, "P4");
    return;
  }
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

VerificationReport VerifyPair(const corpus::Pair& pair,
                              PipelineOptions options) {
  Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc,
                    std::move(options), pair.t_names);
  return pipeline.Verify();
}

}  // namespace octopocs::core
