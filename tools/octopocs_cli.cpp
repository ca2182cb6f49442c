// octopocs — command-line driver for the pipeline.
//
// Subcommands:
//   verify <s.asm> <t.asm> <poc.bin> [options] [pipeline flags]
//       Run the full pipeline. ℓ defaults to the clone detector's
//       output; --shared overrides it. Writes the reformed PoC with
//       --out. Options:
//         --shared f1,f2,...   use these ℓ names instead of detecting
//         --out FILE           write poc' to FILE when generated
//         --deadline-ms N      wall-clock budget for the whole pipeline;
//                              on expiry the verdict is Failure with the
//                              tripped phase named in the report
//         --trace-out FILE     write the structured trace (phase spans,
//                              executor counters) as JSONL to FILE
//         --artifact-cache=on|off
//                              consult/populate the content-addressed
//                              artifact store (default off); results
//                              are byte-identical either way
//       [pipeline flags] are the kPipelineFlags table below, shared by
//       verify, corpus, serve and pool-worker and printed
//       by each usage message: θ, the Table III / CFG ablation knobs,
//       and the --fuzz-fallback rung with its determinism knobs
//       (DESIGN.md §16).
//   detect <s.asm> <t.asm>
//       Print the function-level clones between two programs.
//   run <prog.asm> <input.bin> [--trace]
//       Execute a program on an input; print the exit/trap state.
//   minimize <prog.asm> <poc.bin> [--out FILE]
//       Delta-debug a crashing input down to its essential bytes.
//   disasm <prog.asm>
//       Assemble and disassemble (normalizes and validates a program).
//   export <pair-index> <dir>
//       Materialize a corpus pair (1-22) as s.asm / t.asm / poc.bin /
//       shared.txt so the other subcommands can chew on it.
//   corpus [--jobs N] [--extended] [--pair-deadline-ms N]
//          [--trace-out FILE] [--artifact-cache=on|off] [--isolate]
//          [--rlimit-mb N] [--max-retries N] [--journal FILE]
//          [--resume FILE] [pipeline flags]
//       Verify the whole built-in corpus (pairs 1-15, or 16-22 with
//       --extended) with N pipeline runs in flight at once. Reports are
//       printed in pair order and are byte-identical to a serial run
//       regardless of N. --pair-deadline-ms bounds each pair's
//       wall-clock time (it is each pair's pipeline deadline); a pair
//       over budget degrades to Failure while the rest of the corpus
//       finishes. Each pair's own P2/P3 search is one serial loop;
//       --jobs parallelizes across pairs only.
//       --artifact-cache=on shares origin-side artifacts (ep, crash
//       primitives, CFG edges) across pairs with a common S or T; the
//       summary then reports the store's hit/miss counts. --trace-out
//       captures the whole corpus run as one JSONL trace.
//       Production robustness (DESIGN.md §12): --isolate runs the pairs
//       on a pool of --jobs sandboxed, supervised, pre-forked worker
//       processes (`pool-worker` mode of this binary) and prints the
//       pool's spawn/respawn/dispatch counts — a crashing or OOMing
//       pair is retried on a respawned worker with backoff and
//       quarantined after --max-retries, never taking the run down;
//       --rlimit-mb caps each worker's address space. Verdicts are
//       byte-identical to in-process runs. --journal FILE records a
//       write-ahead fsync'd JSONL crash journal; --resume FILE replays
//       the finished pairs of an interrupted run (same options only —
//       the journal's fingerprint is checked) and re-runs the rest,
//       appending to the journal. Isolated workers receive the
//       pipeline flags verbatim.
//   pool-worker [--deadline-ms N] [--gen-seed N]
//               [--abort-fault SITE:SKIP:STAMP] [pipeline flags]
//       Internal: serves `OCTO-PAIR <idx>` requests off stdin until
//       EOF/OCTO-EXIT, answering each with the framed report the
//       supervisor unmarshals (OCTO-REPORT {...} / OCTO-DONE). A
//       malformed request line exits 2. Spawned by `corpus --isolate`;
//       `printf 'OCTO-PAIR 8\n' | octopocs pool-worker` verifies one
//       pair by hand.
//   serve --socket PATH [--workers N] [--queue-depth N]
//         [--request-deadline-ms N] [--cache-dir DIR] [--trace-out FILE]
//         [pipeline flags]
//       Long-running verification daemon (DESIGN.md §14): accepts
//       OCTO-REQ requests over a unix-domain socket, runs them through
//       the phase graph with warm in-memory artifacts, and persists
//       completed reports under --cache-dir so a restarted (or SIGKILLed
//       and restarted) daemon answers repeat requests from disk.
//       Requests are served in arrival order; --queue-depth bounds the
//       FIFO admission queue, and a request arriving at a full queue is
//       shed with a structured RETRY_AFTER. Each request gets one
//       pipeline run (a contained tooling exception is retried once).
//       --request-deadline-ms caps each request server-side; a tighter
//       client deadline wins (sooner-rule). SIGINT/SIGTERM
//       drains: the daemon stops accepting, and every queued or
//       in-flight request is still answered, but the signal is also
//       the pipeline's cancel flag, so a request that needs a pipeline
//       run is reaped at its first poll and answered with a
//       deadline_expired Failure, which is never persisted.
//   client --socket PATH <pair-idx> [--poc FILE] [--deadline-ms N]
//          [--fuzz-fallback] [--fuzz-seed N] [--fuzz-execs N]
//          [--timeout-ms N] [--id STR] [--retry N] [--gen-seed N]
//       Send one verification request to a running daemon and print the
//       result in the exact per-pair format `corpus` uses (so a served
//       corpus diffs byte-identically against a batch run). Exit 0 on a
//       report, 5 when shed (RETRY_AFTER — honor retry_after_ms), 3 on
//       a transport failure, 1/2 on server-side errors. --retry N naps
//       for the shed's retry_after_ms (floored by capped-exponential
//       backoff) and re-sends up to N times; the default stays one-shot
//       so scripts driving the backoff themselves keep exit 5.
//       --gen-seed routes generated pair indices (999 and >= 1000) to
//       the synthetic-pair generator. The daemon ignores the keys of
//       the retired priority, fallback-rung and degrade-on-timeout
//       request policies that older clients send, like any unknown
//       request key (DESIGN.md §14.1).
//   gen [--seed N] [--count N] [--out FILE]
//       Emit the deterministic manifest of a generated synthetic corpus
//       (src/gen): one taxonomy + label + content-hash line per pair.
//       The same seed prints byte-identical manifests on every run —
//       CI diffs two runs to enforce it.
//   soak --workdir DIR [--seed N] [--pairs N] [--jobs N] [--smoke]
//        [--no-chaos] [--daemon-kills N] [--fuzz-execs N] [--out FILE]
//        [--trace-out FILE]
//       Generate a corpus and stream it through every execution surface
//       — in-process batch, supervised workers with a crash journal,
//       journal resume, the serve daemon in-process under a full fault
//       schedule, and a subprocess daemon SIGKILLed and restarted
//       mid-load — checking the crash-tolerance invariants
//       (src/gen/soak.h). Exits 0 only when every invariant held; --out
//       writes the deterministic report CI byte-diffs across two
//       same-seed runs.
//
// Exit code 0 on success; verify exits 0 only for a decisive verdict
// (Triggered or NotTriggerable); corpus exits 0 only when every pair's
// result type matches the registry's expected one, 1 when some pair
// reached a genuinely wrong verdict, and 4 when the only unexpected
// results are infrastructure failures (deadline expiry / contained
// faults) — distinguishable so CI can retry timeouts without masking
// real mismatches. SIGINT/SIGTERM drains gracefully — running pairs
// are cancelled, workers killed, trace buffers flushed and a partial
// summary printed — and exits 128+signal. A usage error exits 2: an
// unknown option, a flag missing its operand, or a number that is not
// all digits or out of the flag's range (ParseUnsigned).
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "clone/detector.h"
#include "core/artifact_store.h"
#include "core/journal.h"
#include "core/minimize.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "core/report_io.h"
#include "core/server.h"
#include "core/supervisor.h"
#include "corpus/extended.h"
#include "gen/generator.h"
#include "gen/soak.h"
#include "support/fault.h"
#include "support/hex.h"
#include "support/trace.h"
#include "vm/asm.h"
#include "vm/disasm.h"
#include "vm/trace.h"

using namespace octopocs;

namespace {

// -- Graceful interruption ----------------------------------------------------
//
// The handler only stores the signal number in a lock-free atomic
// (async-signal-safe); the actual drain is cooperative: `verify`,
// `corpus` and `serve` hand g_signal to the pipeline as its cancel
// flag, so every pair's cancellation tokens trip at their next poll,
// and `corpus --isolate` hands it to the worker pool, which SIGKILLs
// busy workers. The main thread then flushes trace buffers, prints a
// partial summary, and exits 128+signal — an interrupt no longer loses
// the whole trace file or the finished pairs' results.
std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void InstallSignalHandlers() {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
}

/// Absolute path of this binary, for respawning as `pool-worker`.
std::string g_self_exe;

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Bytes ReadBinaryFile(const std::string& path) {
  const std::string text = ReadTextFile(path);
  return Bytes(text.begin(), text.end());
}

void WriteFile(const std::string& path, ByteView data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

void WriteFile(const std::string& path, const std::string& text) {
  WriteFile(path, ByteView(reinterpret_cast<const std::uint8_t*>(
                               text.data()),
                           text.size()));
}

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

/// Generator seed for worker/client subcommands (--gen-seed). Non-zero
/// routes indices beyond the built-in corpora (hog pair 999, generated
/// pairs >= 1000) through gen::LoadGeneratedPair, exactly like the
/// daemon's GenPairLoader hook.
std::uint64_t g_gen_seed = 0;

corpus::Pair LoadPair(int idx) {
  if (g_gen_seed != 0 && idx >= gen::kHogIdx) {
    return gen::LoadGeneratedPair(g_gen_seed, idx);
  }
  return idx <= 15 ? corpus::BuildPair(idx) : corpus::BuildExtendedPair(idx);
}

// -- Command-line parsing -----------------------------------------------------

/// A malformed command line: main prints the message and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
/// Cap for every thread or process count a flag asks for.
constexpr std::uint64_t kMaxParallel = 256;
/// Cap for every millisecond budget (~49 days), so deadline arithmetic
/// cannot overflow.
constexpr std::uint64_t kMaxMs = kU32;
/// Cap for every number `client` sends: an OCTO-REQ integer must fit
/// the daemon's signed 64-bit JSON integers.
constexpr std::uint64_t kMaxWireInt =
    std::numeric_limits<std::int64_t>::max();

/// The one parser behind every numeric flag and operand: `text` must be
/// all decimal digits and lie in [lo, hi]. A sign, a suffix, an empty
/// string or an overflow is a UsageError naming `what`.
std::uint64_t ParseUnsigned(const std::string& what, const std::string& text,
                            std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    throw UsageError(what + " wants an integer in " + std::to_string(lo) +
                     ".." + std::to_string(hi) + ", got '" + text + "'");
  }
  return value;
}

/// One subcommand's arguments, walked left to right. A value flag takes
/// its operand through Value() or Count(), which name the flag when the
/// operand is missing or malformed.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Steps to the next argument; false once they are exhausted.
  bool Next() {
    if (next_ >= argc_) return false;
    flag_ = argv_[next_++];
    return true;
  }
  const std::string& flag() const { return flag_; }

  std::string Value() {
    if (next_ >= argc_) throw UsageError(flag_ + " wants a value");
    return argv_[next_++];
  }
  template <typename T>
  T Count(std::uint64_t lo = 0,
          std::uint64_t hi = std::numeric_limits<T>::max()) {
    return static_cast<T>(ParseUnsigned(flag_, Value(), lo, hi));
  }

 private:
  int argc_;
  char** argv_;
  int next_ = 0;
  std::string flag_;
};

/// One flag of the table every pipeline-running subcommand parses. A
/// switch has no operand; a value flag takes an unsigned in [0, max].
struct PipelineFlag {
  const char* name;
  const char* operand;  // nullptr for a switch
  std::uint64_t max;
  void (*apply)(core::PipelineOptions&, std::uint64_t);
  const char* help;
};

using Pipeline = core::PipelineOptions;

const PipelineFlag kPipelineFlags[] = {
    {"--theta", "N", kU32,
     [](Pipeline& o, std::uint64_t v) {
       o.symex.theta = static_cast<std::uint32_t>(v);
     },
     "loop cap θ (default 120)"},
    {"--context-free", nullptr, 0,
     [](Pipeline& o, std::uint64_t) { o.taint.context_aware = false; },
     "Table III mode: no per-encounter bunches"},
    {"--adaptive-theta", nullptr, 0,
     [](Pipeline& o, std::uint64_t) { o.adaptive_theta = true; },
     "retry with a growing θ on loop-dead verdicts"},
    {"--static-cfg", nullptr, 0,
     [](Pipeline& o, std::uint64_t) { o.cfg.use_dynamic = false; },
     "no dynamic CFG edges"},
    {"--fix-angr", nullptr, 0,
     [](Pipeline& o, std::uint64_t) {
       o.cfg.resolve_obfuscated_icalls = true;
     },
     "resolve obfuscated indirect calls"},
    {"--fuzz-fallback", nullptr, 0,
     [](Pipeline& o, std::uint64_t) { o.fuzz_fallback = true; },
     "fuzz from the PoC when symex dead-ends (TriggeredByFuzzing)"},
    {"--fuzz-seed", "N", kU64,
     [](Pipeline& o, std::uint64_t v) { o.fuzz_seed = v; },
     "fuzz campaign RNG seed (default 1)"},
    {"--fuzz-execs", "N", kU64,
     [](Pipeline& o, std::uint64_t v) { o.fuzz_execs = v; },
     "fuzz budget in executions, not wall clock (default 200000)"},
    {"--fuzz-deadline-ms", "N", kMaxMs,
     [](Pipeline& o, std::uint64_t v) { o.fuzz_deadline_ms = v; },
     "wall-clock backstop that abandons the campaign"},
};

/// Applies args.flag() when it is in kPipelineFlags and returns true;
/// `consumed`, when given, receives the flag and its operand verbatim
/// (what `corpus --isolate` forwards to its workers).
bool ParsePipelineFlag(Args& args, Pipeline* opts,
                       std::vector<std::string>* consumed = nullptr) {
  for (const PipelineFlag& f : kPipelineFlags) {
    if (args.flag() != f.name) continue;
    std::vector<std::string> words{f.name};
    std::uint64_t value = 0;
    if (f.operand != nullptr) {
      words.push_back(args.Value());
      value = ParseUnsigned(f.name, words.back(), 0, f.max);
    }
    f.apply(*opts, value);
    if (consumed != nullptr) {
      consumed->insert(consumed->end(), words.begin(), words.end());
    }
    return true;
  }
  return false;
}

/// Prints `usage` and then the [pipeline flags] block, both from one
/// source of truth; returns the usage exit code.
int PipelineUsage(const char* usage) {
  std::fprintf(stderr, "%s\npipeline flags:\n", usage);
  for (const PipelineFlag& f : kPipelineFlags) {
    std::string head = f.name;
    if (f.operand != nullptr) head = head + " " + f.operand;
    std::fprintf(stderr, "  %-20s %s\n", head.c_str(), f.help);
  }
  return 2;
}

/// --abort-fault SITE:SKIP:STAMP, the CI fault leg's hook in pool-worker:
/// when STAMP does not exist yet it is created and the named fault site
/// armed in hard-abort mode, so the worker dies mid-pair (SIGABRT)
/// exactly once per stamp file and the supervisor's retry runs clean.
void ArmAbortFault(const std::string& spec) {
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 =
      c1 == std::string::npos ? std::string::npos : spec.find(':', c1 + 1);
  support::FaultSite site;
  if (c2 == std::string::npos ||
      !support::FaultSiteFromName(spec.substr(0, c1), &site)) {
    throw UsageError("bad --abort-fault spec: " + spec);
  }
  const std::uint64_t skip = ParseUnsigned(
      "--abort-fault SKIP", spec.substr(c1 + 1, c2 - c1 - 1), 0, kU64);
  const std::string stamp = spec.substr(c2 + 1);
  if (!std::ifstream(stamp).good()) {
    WriteFile(stamp, std::string("armed\n"));
    support::fault::Arm(site, skip);
    support::fault::AbortOnFire(true);
  }
}

/// The observability options shared by `verify` and `corpus`: a JSONL
/// trace sink and the content-addressed artifact store.
struct ObservabilityFlags {
  std::string trace_out;
  bool artifact_cache = false;

  /// Consumes --trace-out FILE / --artifact-cache=on|off; returns false
  /// when args.flag() is not one of ours.
  bool Parse(Args& args) {
    if (args.flag() == "--trace-out") {
      trace_out = args.Value();
    } else if (args.flag() == "--artifact-cache=on" ||
               args.flag() == "--artifact-cache=off") {
      artifact_cache = args.flag() == "--artifact-cache=on";
    } else {
      return false;
    }
    return true;
  }

  /// Points the pipeline at the sinks this invocation enabled.
  void Wire(core::PipelineOptions& opts, support::Tracer& tracer,
            core::ArtifactStore& store) const {
    if (!trace_out.empty()) opts.tracer = &tracer;
    if (artifact_cache) opts.artifacts = &store;
  }

  /// Serialises the trace (when requested). Returns false on I/O error.
  bool FinishTrace(const support::Tracer& tracer) const {
    if (trace_out.empty()) return true;
    if (!tracer.WriteJsonlFile(trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return false;
    }
    std::printf("trace:     %zu event(s) -> %s\n", tracer.event_count(),
                trace_out.c_str());
    return true;
  }
};

int CmdVerify(int argc, char** argv) {
  if (argc < 3) {
    return PipelineUsage(
        "usage: octopocs verify <s.asm> <t.asm> <poc.bin> [--shared f1,f2] "
        "[--out FILE] [--deadline-ms N] [--trace-out FILE] "
        "[--artifact-cache=on|off] [pipeline flags]");
  }
  std::vector<std::string> shared;
  std::map<std::string, std::string> name_map;
  std::string out_path;
  core::PipelineOptions opts;
  ObservabilityFlags obs;
  Args args(argc - 3, argv + 3);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--shared") {
      shared = SplitCommas(args.Value());
    } else if (arg == "--out") {
      out_path = args.Value();
    } else if (arg == "--deadline-ms") {
      opts.deadline_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (!ParsePipelineFlag(args, &opts) && !obs.Parse(args)) {
      throw UsageError("unknown option: " + arg);
    }
  }
  const vm::Program s = vm::Assemble(ReadTextFile(argv[0]));
  const vm::Program t = vm::Assemble(ReadTextFile(argv[1]));
  const Bytes poc = ReadBinaryFile(argv[2]);
  if (shared.empty()) {
    for (const auto& m : clone::DetectClones(s, t)) {
      shared.push_back(m.name_in_s);
      if (m.name_in_s != m.name_in_t) name_map[m.name_in_s] = m.name_in_t;
    }
    std::printf("detected ℓ (%zu function%s):", shared.size(),
                shared.size() == 1 ? "" : "s");
    for (const auto& fn : shared) std::printf(" %s", fn.c_str());
    std::printf("\n");
    if (shared.empty()) {
      std::fprintf(stderr, "no clones detected; pass --shared\n");
      return 2;
    }
  }

  support::Tracer tracer;
  core::ArtifactStore store;
  obs.Wire(opts, tracer, store);
  InstallSignalHandlers();
  opts.cancel_flag = &g_signal;
  core::Octopocs pipeline(s, t, shared, poc, opts, name_map);
  const core::VerificationReport r = pipeline.Verify();

  std::printf("verdict:   %s (%s)\n", core::VerdictName(r.verdict).data(),
              core::ResultTypeName(r.type).data());
  std::printf("ep:        %s | encounters in S: %u | primitives: %zu bytes "
              "in %zu bunch(es)\n",
              r.ep_name.c_str(), r.ep_encounters_in_s,
              r.crash_primitive_bytes, r.bunch_count);
  std::printf("symex:     %s | %llu states | %llu instructions\n",
              symex::SymexStatusName(r.symex_status).data(),
              static_cast<unsigned long long>(r.symex_stats.states_created),
              static_cast<unsigned long long>(r.symex_stats.instructions));
  std::printf("caches:    solver %llu hit / %llu miss | interner %llu hit "
              "/ %llu node\n",
              static_cast<unsigned long long>(r.symex_stats.solver_cache_hits),
              static_cast<unsigned long long>(
                  r.symex_stats.solver_cache_misses),
              static_cast<unsigned long long>(r.symex_stats.expr_intern_hits),
              static_cast<unsigned long long>(
                  r.symex_stats.expr_intern_nodes));
  std::printf("  by kind: exact %llu | model-reuse %llu | subsumed %llu\n",
              static_cast<unsigned long long>(r.symex_stats.solver_exact_hits),
              static_cast<unsigned long long>(
                  r.symex_stats.solver_model_reuse_hits),
              static_cast<unsigned long long>(
                  r.symex_stats.solver_subsumption_hits));
  if (r.fuzz_attempted) {
    std::printf("fuzz:      %llu exec(s) | crash at %llu | best distance "
                "%.2f | seed %llu\n",
                static_cast<unsigned long long>(r.fuzz_execs),
                static_cast<unsigned long long>(r.fuzz_execs_to_crash),
                r.fuzz_best_distance,
                static_cast<unsigned long long>(r.fuzz_seed));
  }
  std::printf("detail:    %s\n", r.detail.c_str());
  if (!r.failed_phase.empty()) {
    std::printf("degraded:  phase %s%s%s\n", r.failed_phase.c_str(),
                r.deadline_expired ? " | deadline expired" : "",
                r.exception_contained ? " | exception contained" : "");
  }
  std::printf("time:      %.3f ms\n", r.timings.total_seconds * 1e3);
  if (obs.artifact_cache) {
    const core::ArtifactStore::Stats st = store.stats();
    std::printf("artifacts: %llu hit / %llu miss / %llu stored\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.insertions));
  }
  obs.FinishTrace(tracer);
  if (r.poc_generated) {
    std::printf("poc' (%zu bytes): %s\n", r.reformed_poc.size(),
                ToHex(r.reformed_poc).c_str());
    if (!out_path.empty()) {
      WriteFile(out_path, ByteView(r.reformed_poc));
      std::printf("written to %s\n", out_path.c_str());
    }
  }
  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) {
    std::printf("interrupted by signal %d — partial report above, trace "
                "flushed\n", sig);
    return 128 + sig;
  }
  return r.verdict == core::Verdict::kFailure ? 1 : 0;
}

// Worker half of `corpus --isolate`: parse the pipeline flags once (the
// supervisor forwards the corpus command's verbatim), then serve pair
// requests off stdin until EOF/OCTO-EXIT — `OCTO-PAIR <idx>` in, the
// framed report (OCTO-REPORT {...} / OCTO-DONE) out, byte-identical to
// an in-process VerifyPair with the same options. Fork/exec and warmup
// are paid once per worker instead of once per pair, and the worker
// keeps a warm artifact store across the pairs it serves (results are
// byte-identical with or without it). --abort-fault (ArmAbortFault) is
// armed once per stamp file, so the first pair served dies mid-frame
// and the supervisor's respawn+retry must recover.
int CmdPoolWorker(int argc, char** argv) {
  core::PipelineOptions opts;
  std::string abort_fault;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--deadline-ms") {
      opts.deadline_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (arg == "--gen-seed") {
      g_gen_seed = args.Count<std::uint64_t>();
    } else if (arg == "--abort-fault") {
      abort_fault = args.Value();
    } else if (!ParsePipelineFlag(args, &opts)) {
      throw UsageError("unknown pool-worker option: " + arg);
    }
  }
  if (!abort_fault.empty()) ArmAbortFault(abort_fault);

  // Warm state that survives across the pairs this worker serves — the
  // whole point of pooling.
  core::ArtifactStore store;
  opts.artifacts = &store;

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == core::kPoolExitLine) break;
    // The index is as strict as any numeric flag: `OCTO-PAIR 3x` is
    // not pair 3.
    const std::string bad = "pool-worker: bad request line: " + line;
    if (line.rfind(core::kPoolPairPrefix, 0) != 0) throw UsageError(bad);
    const std::string text = line.substr(core::kPoolPairPrefix.size());
    int idx = 0;
    try {
      idx = static_cast<int>(ParseUnsigned("pair index", text, 1, kMaxInt));
    } catch (const UsageError& e) {
      throw UsageError(bad + " (" + e.what() + ")");
    }
    const corpus::Pair pair = LoadPair(idx);
    const core::VerificationReport report = core::VerifyPair(pair, opts);
    support::fault::Disarm();
    const std::string framed = core::MarshalWorkerReport(report);
    std::fwrite(framed.data(), 1, framed.size(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

int CmdDetect(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: octopocs detect <s.asm> <t.asm>\n");
    return 2;
  }
  const vm::Program s = vm::Assemble(ReadTextFile(argv[0]));
  const vm::Program t = vm::Assemble(ReadTextFile(argv[1]));
  const auto matches = clone::DetectClones(s, t);
  for (const auto& m : matches) {
    if (m.name_in_s == m.name_in_t) {
      std::printf("%s\n", m.name_in_s.c_str());
    } else {
      std::printf("%s -> %s (renamed)\n", m.name_in_s.c_str(),
                  m.name_in_t.c_str());
    }
  }
  std::printf("%zu clone(s)\n", matches.size());
  return 0;
}

int CmdRun(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: octopocs run <prog.asm> <input.bin> [--trace]\n");
    return 2;
  }
  const vm::Program p = vm::Assemble(ReadTextFile(argv[0]));
  const Bytes input = ReadBinaryFile(argv[1]);
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") != 0) {
      throw UsageError(std::string("unknown run option: ") + argv[i]);
    }
    trace = true;
  }

  vm::ExecutionTracer tracer(400);
  tracer.BindProgram(&p);
  vm::Interpreter interp(p, input);
  if (trace) interp.AddObserver(&tracer);
  const vm::ExecResult r = interp.Run();
  if (trace) std::printf("%s\n", tracer.text().c_str());
  std::printf("trap: %s", vm::TrapName(r.trap).data());
  if (r.trap != vm::TrapKind::kNone) {
    std::printf(" (%s, fault addr 0x%llx)", r.trap_message.c_str(),
                static_cast<unsigned long long>(r.fault_addr));
    std::printf("\nbacktrace:");
    for (const auto& frame : r.backtrace) {
      std::printf(" %s", p.Fn(frame.fn).name.c_str());
    }
  } else {
    std::printf(" | return value %llu",
                static_cast<unsigned long long>(r.return_value));
  }
  std::printf("\ninstructions: %llu\n",
              static_cast<unsigned long long>(r.instructions));
  return vm::IsVulnerabilityCrash(r.trap) ? 3 : 0;
}

int CmdMinimize(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: octopocs minimize <prog.asm> <poc.bin> "
                 "[--out FILE]\n");
    return 2;
  }
  const vm::Program p = vm::Assemble(ReadTextFile(argv[0]));
  const Bytes poc = ReadBinaryFile(argv[1]);
  const core::MinimizeResult r = core::MinimizePoc(p, poc);
  std::printf("minimized %zu -> %zu bytes (%zu zeroed in place, "
              "%llu runs)\n",
              r.original_size, r.poc.size(), r.zeroed_bytes,
              static_cast<unsigned long long>(r.runs));
  std::printf("%s\n", ToHex(r.poc).c_str());
  if (argc > 3 && std::strcmp(argv[2], "--out") == 0) {
    WriteFile(argv[3], ByteView(r.poc));
  }
  return 0;
}

int CmdDisasm(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: octopocs disasm <prog.asm>\n");
    return 2;
  }
  const vm::Program p = vm::Assemble(ReadTextFile(argv[0]));
  std::printf("%s", vm::Disassemble(p).c_str());
  return 0;
}

int CmdCorpus(int argc, char** argv) {
  unsigned jobs = 1;
  bool extended = false;
  bool isolate = false;
  std::uint64_t rlimit_mb = 0;
  unsigned max_retries = 2;
  std::string journal_path;
  std::string resume_path;
  std::string worker_fault;
  core::PipelineOptions opts;
  ObservabilityFlags obs;
  // Pipeline flags a worker process must see to reproduce the
  // in-process verdict, collected verbatim as they are parsed.
  std::vector<std::string> forwarded;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--jobs") {
      jobs = args.Count<unsigned>(1, kMaxParallel);
    } else if (arg == "--extended") {
      extended = true;
    } else if (arg == "--pair-deadline-ms") {
      // Each pair's pipeline deadline: its clock starts with the pair.
      opts.deadline_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (arg == "--isolate") {
      isolate = true;
    } else if (arg == "--rlimit-mb") {
      rlimit_mb = args.Count<std::uint64_t>(0, kU32);
    } else if (arg == "--max-retries") {
      max_retries = args.Count<unsigned>(0, 100);
    } else if (arg == "--journal") {
      journal_path = args.Value();
    } else if (arg == "--resume") {
      resume_path = args.Value();
    } else if (arg == "--worker-fault") {
      // Test hook (CI fault leg): forwarded to workers as
      // --abort-fault SITE:SKIP:STAMP — the first worker to see the
      // missing stamp file aborts mid-pair, its retry runs clean.
      worker_fault = args.Value();
    } else if (!ParsePipelineFlag(args, &opts, &forwarded) &&
               !obs.Parse(args)) {
      throw UsageError("unknown option: " + arg);
    }
  }
  if ((!journal_path.empty() || !resume_path.empty()) &&
      !(journal_path.empty() || resume_path.empty())) {
    std::fprintf(stderr, "--journal and --resume are exclusive "
                         "(--resume appends to the resumed journal)\n");
    return 2;
  }
  if (!worker_fault.empty() && !isolate) {
    std::fprintf(stderr, "--worker-fault requires --isolate\n");
    return 2;
  }

  support::Tracer tracer;
  core::ArtifactStore store;
  obs.Wire(opts, tracer, store);
  const std::vector<corpus::Pair> pairs =
      extended ? corpus::BuildExtendedCorpus() : corpus::BuildCorpus();

  opts.cancel_flag = &g_signal;
  core::CorpusRunConfig config;
  config.jobs = jobs;

  core::IsolationOptions isolation;
  if (isolate) {
    isolation.worker_binary = g_self_exe;
    isolation.worker_args = forwarded;
    isolation.max_retries = max_retries;
    isolation.rlimit_mb = rlimit_mb;
    if (opts.deadline_ms > 0) {
      // The worker honors the budget cooperatively via its in-pipeline
      // deadline; the supervisor's SIGKILL backstop sits 2s above it
      // for workers too wedged to poll.
      isolation.worker_args.push_back("--deadline-ms");
      isolation.worker_args.push_back(std::to_string(opts.deadline_ms));
      isolation.deadline_ms = opts.deadline_ms + 2000;
    }
    if (!worker_fault.empty()) {
      isolation.worker_args.push_back("--abort-fault");
      isolation.worker_args.push_back(worker_fault);
    }
  }
  // The pool copies its (fully populated) options; owned here so the
  // summary can print its stats, destroyed after it so no worker
  // outlives the run.
  std::unique_ptr<core::WorkerPool> worker_pool;
  if (isolate) {
    worker_pool = std::make_unique<core::WorkerPool>(isolation, jobs);
    config.isolation = &isolation;
    config.worker_pool = worker_pool.get();
  }

  // The journal fingerprint covers every verdict-bearing knob, so a
  // resume against different options is refused instead of splicing
  // incomparable verdicts into one result set.
  const std::string fingerprint = core::CorpusOptionsFingerprint(
      opts, extended, pairs.size(), isolate, rlimit_mb);
  std::unique_ptr<core::Journal> journal;
  core::JournalState resume_state;
  if (!resume_path.empty()) {
    std::string err;
    auto state = core::LoadJournal(resume_path, &err);
    if (!state) {
      std::fprintf(stderr, "cannot resume: %s\n", err.c_str());
      return 2;
    }
    if (state->options_hash != fingerprint) {
      std::fprintf(stderr,
                   "refusing to resume %s: journal options fingerprint %s "
                   "does not match this invocation's %s\n",
                   resume_path.c_str(), state->options_hash.c_str(),
                   fingerprint.c_str());
      return 2;
    }
    if (state->pair_count != pairs.size()) {
      std::fprintf(stderr,
                   "refusing to resume %s: journal covers %zu pair(s), "
                   "this invocation runs %zu\n",
                   resume_path.c_str(), state->pair_count, pairs.size());
      return 2;
    }
    resume_state = std::move(*state);
    journal = core::Journal::Resume(resume_path, resume_state, &err);
    if (!journal) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    config.resume_finished = &resume_state.finished;
    std::printf("resume:    %zu finished pair(s) replayed, %zu in flight "
                "at the crash re-run%s\n",
                resume_state.finished.size(),
                resume_state.started_unfinished.size(),
                resume_state.torn_tail ? " (torn tail healed)" : "");
  } else if (!journal_path.empty()) {
    std::string err;
    journal = core::Journal::Create(journal_path, fingerprint, pairs.size(),
                                    &err);
    if (!journal) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
  }
  config.journal = journal.get();

  InstallSignalHandlers();
  const auto start = std::chrono::steady_clock::now();
  const auto reports = core::VerifyCorpus(pairs, opts, config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const int sig = g_signal.load(std::memory_order_relaxed);
  int decisive = 0;
  int expected_matches = 0;
  int infra_failures = 0;   // unexpected results caused by timeout/fault
  int wrong_verdicts = 0;   // unexpected results the tool actually decided
  int interrupted_pairs = 0;  // drain casualties, not statements
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const corpus::Pair& pair = pairs[i];
    const core::VerificationReport& r = reports[i];
    const bool as_expected = std::string(core::ResultTypeName(r.type)) ==
                             std::string(corpus::ExpectedResultName(pair.expected));
    const bool infra = r.deadline_expired || r.exception_contained;
    // On a drain, a deadline report says nothing about the pair — the
    // interrupt may have cut it, not the budget — even where it matches
    // an expected Failure row. This is the rule VerifyCorpus uses to
    // keep such a report out of the journal.
    const bool interrupted = sig != 0 && r.deadline_expired;
    if (r.verdict != core::Verdict::kFailure) ++decisive;
    if (interrupted) {
      ++interrupted_pairs;
    } else if (as_expected) {
      ++expected_matches;
    } else if (infra) {
      ++infra_failures;
    } else {
      ++wrong_verdicts;
    }
    const char* marker = interrupted   ? "  [INTERRUPTED]"
                         : as_expected ? ""
                         : infra       ? (r.deadline_expired
                                              ? "  [TIMEOUT]"
                                              : "  [FAULT]")
                                       : "  [UNEXPECTED]";
    std::printf("pair %2d  %-12s -> %-12s  %-15s %-8s %s%s\n", pair.idx,
                pair.s_name.c_str(), pair.t_name.c_str(),
                core::VerdictName(r.verdict).data(),
                core::ResultTypeName(r.type).data(), r.detail.c_str(),
                marker);
  }
  std::printf("%d/%zu decisive | %d/%zu as expected | %d timeout/fault | "
              "%u job(s) | %.3f s wall\n",
              decisive, pairs.size(), expected_matches, pairs.size(),
              infra_failures, jobs, wall);
  // The fuzz summary only exists when the rung is on, so rung-off runs
  // stay byte-identical to the pre-rung output.
  if (opts.fuzz_fallback) {
    int fuzz_attempts = 0;
    int fuzz_verified = 0;
    std::uint64_t fuzz_total_execs = 0;
    for (const auto& r : reports) {
      if (r.fuzz_attempted) {
        ++fuzz_attempts;
        fuzz_total_execs += r.fuzz_execs;
      }
      if (r.verdict == core::Verdict::kTriggeredByFuzzing) ++fuzz_verified;
    }
    std::printf("fuzz:      %d campaign(s) | %d verified by fuzzing | "
                "%llu exec(s) | seed %llu\n",
                fuzz_attempts, fuzz_verified,
                static_cast<unsigned long long>(fuzz_total_execs),
                static_cast<unsigned long long>(opts.fuzz_seed));
  }
  if (worker_pool != nullptr) {
    const core::WorkerPool::Stats ps = worker_pool->stats();
    std::printf("pool:      %llu spawn(s) / %llu respawn(s) / "
                "%llu dispatch(es)\n",
                static_cast<unsigned long long>(ps.spawns),
                static_cast<unsigned long long>(ps.respawns),
                static_cast<unsigned long long>(ps.dispatches));
  }
  if (obs.artifact_cache) {
    const core::ArtifactStore::Stats st = store.stats();
    std::printf("artifacts: %llu hit / %llu miss / %llu stored / "
                "%llu evicted\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.insertions),
                static_cast<unsigned long long>(st.evictions));
  }
  if (config.resume_finished != nullptr) {
    // Replayed pairs were reprinted from the journal verbatim;
    // everything else above actually re-ran this invocation.
    std::printf("resume:    %zu pair(s) replayed from journal, %zu re-run\n",
                resume_state.finished.size(),
                pairs.size() - resume_state.finished.size());
  }
  obs.FinishTrace(tracer);
  // A graceful drain supersedes the verdict-based codes: the partial
  // summary above is informational (journaled pairs survive for
  // --resume), and 128+signal tells the caller why the run is partial.
  if (sig != 0) {
    std::printf("interrupted by signal %d: %d/%zu pair(s) finished, %d "
                "cancelled or never started%s\n",
                sig, expected_matches + infra_failures + wrong_verdicts,
                pairs.size(), interrupted_pairs,
                journal != nullptr ? " — resume with --resume" : "");
    return 128 + sig;
  }
  // Exit status keys off the registry's expected result types: the
  // corpus deliberately contains NotTriggerable and Failure pairs, so
  // "all decisive" would never hold for the stock corpus. A verdict
  // mismatch (the tool decided, and decided wrong) is a hard failure;
  // deadline/fault degradations alone get their own code so callers can
  // rerun with a bigger budget instead of treating it as a regression.
  if (wrong_verdicts > 0) return 1;
  if (infra_failures > 0) return 4;
  return 0;
}

int CmdServe(int argc, char** argv) {
  core::ServeOptions serve;
  std::string trace_out;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--socket") {
      serve.socket_path = args.Value();
    } else if (arg == "--workers") {
      serve.workers = args.Count<unsigned>(1, kMaxParallel);
    } else if (arg == "--queue-depth") {
      serve.queue_depth = args.Count<std::size_t>(1, kU32);
    } else if (arg == "--request-deadline-ms") {
      serve.request_deadline_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (arg == "--cache-dir") {
      serve.cache_dir = args.Value();
    } else if (arg == "--trace-out") {
      trace_out = args.Value();
    } else if (!ParsePipelineFlag(args, &serve.pipeline)) {
      throw UsageError("unknown serve option: " + arg);
    }
  }
  if (serve.socket_path.empty()) {
    return PipelineUsage(
        "usage: octopocs serve --socket PATH [--workers N] [--queue-depth N] "
        "[--request-deadline-ms N] [--cache-dir DIR] [--trace-out FILE] "
        "[pipeline flags]");
  }

  InstallSignalHandlers();
  // Requests carrying gen_seed resolve their generated pairs through the
  // same loader the soak harness uses; without this hook they would be
  // rejected as BAD_REQUEST.
  core::SetGenPairLoader(&gen::LoadGeneratedPair);
  support::Tracer tracer;
  if (!trace_out.empty()) serve.tracer = &tracer;
  serve.interrupt = &g_signal;
  serve.pipeline.cancel_flag = &g_signal;

  core::Server server(std::move(serve));
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "cannot start daemon: %s\n", err.c_str());
    return 2;
  }
  {
    const core::DiskArtifactStore* disk = server.disk_store();
    std::printf("serving:   ready%s\n",
                disk == nullptr ? "" : " | persistent artifact cache on");
    if (disk != nullptr) {
      const core::DiskArtifactStore::Stats ds = disk->stats();
      std::printf("cache:     %llu artifact(s) loaded, %llu healed\n",
                  static_cast<unsigned long long>(ds.loaded_records),
                  static_cast<unsigned long long>(ds.healed_records));
    }
    std::fflush(stdout);
  }
  server.Wait();

  const core::ServeStats st = server.stats();
  std::printf("served:    %llu report(s) | %llu shed | %llu rejected | "
              "%llu response drop(s)\n",
              static_cast<unsigned long long>(st.served),
              static_cast<unsigned long long>(st.shed),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.response_drops));
  std::printf("retries:   %llu contained\n",
              static_cast<unsigned long long>(st.contained_retries));
  if (const core::DiskArtifactStore* disk = server.disk_store()) {
    const core::DiskArtifactStore::Stats ds = disk->stats();
    std::printf("disk:      %llu hit / %llu miss / %llu stored / "
                "%llu corrupt-dropped\n",
                static_cast<unsigned long long>(ds.hits),
                static_cast<unsigned long long>(ds.misses),
                static_cast<unsigned long long>(ds.stores),
                static_cast<unsigned long long>(ds.corrupt_drops));
  }
  if (!trace_out.empty()) {
    if (!tracer.WriteJsonlFile(trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    } else {
      std::printf("trace:     %zu event(s) -> %s\n", tracer.event_count(),
                  trace_out.c_str());
    }
  }
  const int sig = g_signal.load(std::memory_order_relaxed);
  return sig != 0 ? 128 + sig : 0;
}

int CmdClient(int argc, char** argv) {
  std::string socket_path;
  std::string poc_path;
  std::uint64_t timeout_ms = 0;
  int retries = 0;
  core::ServeRequest request;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--socket") {
      socket_path = args.Value();
    } else if (arg == "--poc") {
      poc_path = args.Value();
    } else if (arg == "--retry") {
      retries = args.Count<int>(0, 100);
    } else if (arg == "--gen-seed") {
      request.gen_seed = args.Count<std::uint64_t>(0, kMaxWireInt);
      g_gen_seed = request.gen_seed;
    } else if (arg == "--deadline-ms") {
      request.deadline_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (arg == "--fuzz-fallback") {
      request.fuzz_fallback = true;
    } else if (arg == "--fuzz-seed") {
      request.fuzz_seed = args.Count<std::uint64_t>(0, kMaxWireInt);
    } else if (arg == "--fuzz-execs") {
      request.fuzz_execs = args.Count<std::uint64_t>(0, kMaxWireInt);
    } else if (arg == "--timeout-ms") {
      timeout_ms = args.Count<std::uint64_t>(0, kMaxMs);
    } else if (arg == "--id") {
      request.id = args.Value();
    } else if (!arg.empty() && arg[0] != '-') {
      request.pair = static_cast<int>(ParseUnsigned("pair index", arg, 1,
                                                    kMaxInt));
    } else {
      throw UsageError("unknown client option: " + arg);
    }
  }
  if (socket_path.empty() || request.pair < 1) {
    std::fprintf(stderr, "usage: octopocs client --socket PATH <pair-idx> "
                         "[--poc FILE] [--deadline-ms N] "
                         "[--fuzz-fallback] [--fuzz-seed N] [--fuzz-execs N] "
                         "[--timeout-ms N] [--id STR] [--retry N] "
                         "[--gen-seed N]\n");
    return 2;
  }
  if (!poc_path.empty()) request.poc_override = ReadBinaryFile(poc_path);

  // Without --retry the behaviour (and the exit-5 contract scripts key
  // off) is one shot: a shed still exits 5 with retry_after_ms printed.
  // With --retry N, RETRY_AFTER responses nap for the server's suggested
  // retry_after_ms (floored by capped-exponential backoff) and re-send
  // up to N times; exit 5 only remains when every attempt was shed.
  core::RetryPolicy policy;
  policy.max_retries = retries;
  int attempts = 0;
  const core::ClientResult result = core::SendRequestWithRetry(
      socket_path, request, timeout_ms, policy, &attempts);
  if (attempts > 1) {
    std::fprintf(stderr, "retried: %d attempt(s)\n", attempts);
  }
  if (!result.ok) {
    if (!result.transport_error.empty()) {
      std::fprintf(stderr, "transport: %s\n", result.transport_error.c_str());
      return 3;
    }
    std::fprintf(stderr, "server: %s (%s)", result.error.code.c_str(),
                 result.error.detail.c_str());
    if (result.error.code == "RETRY_AFTER") {
      std::fprintf(stderr, " retry after %llu ms",
                   static_cast<unsigned long long>(
                       result.error.retry_after_ms));
    }
    std::fprintf(stderr, "\n");
    if (result.error.code == "RETRY_AFTER") return 5;
    return result.error.code == "BAD_REQUEST" ? 2 : 1;
  }
  // The exact per-pair line `corpus` prints, so a served run diffs
  // byte-identically against a batch run (the CI smoke's check).
  const corpus::Pair pair = LoadPair(request.pair);
  const core::VerificationReport& r = result.report;
  std::printf("pair %2d  %-12s -> %-12s  %-15s %-8s %s\n", pair.idx,
              pair.s_name.c_str(), pair.t_name.c_str(),
              core::VerdictName(r.verdict).data(),
              core::ResultTypeName(r.type).data(), r.detail.c_str());
  return 0;
}

int CmdExport(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: octopocs export <pair-index 1..22> <dir>\n");
    return 2;
  }
  const int idx =
      static_cast<int>(ParseUnsigned("pair index", argv[0], 1, kMaxInt));
  const std::string dir = argv[1];
  const corpus::Pair pair = LoadPair(idx);
  std::filesystem::create_directories(dir);
  WriteFile(dir + "/s.asm", vm::Disassemble(pair.s));
  WriteFile(dir + "/t.asm", vm::Disassemble(pair.t));
  WriteFile(dir + "/poc.bin", ByteView(pair.poc));
  std::string meta = "# pair " + std::to_string(pair.idx) + ": " +
                     pair.s_name + " -> " + pair.t_name + " (" +
                     pair.vuln_id + ", " + pair.cwe + ")\n";
  for (const auto& fn : pair.shared_functions) meta += fn + "\n";
  WriteFile(dir + "/shared.txt", meta);
  std::printf("exported pair %d (%s -> %s) to %s\n", pair.idx,
              pair.s_name.c_str(), pair.t_name.c_str(), dir.c_str());
  return 0;
}

// Deterministic manifest of a generated corpus: one DescribeGeneratedPair
// line per ordinal plus the hog pair. The same seed must produce a
// byte-identical manifest on every run and every machine — CI runs this
// twice and diffs.
int CmdGen(int argc, char** argv) {
  std::uint64_t seed = 1;
  int count = 64;
  std::string out_path;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--seed") {
      seed = args.Count<std::uint64_t>();
    } else if (arg == "--count") {
      count = args.Count<int>(1, 1'000'000);
    } else if (arg == "--out") {
      out_path = args.Value();
    } else {
      throw UsageError("usage: octopocs gen [--seed N] [--count N] "
                       "[--out FILE]");
    }
  }
  std::string manifest = "gen-manifest seed=" + std::to_string(seed) +
                         " count=" + std::to_string(count) + "\n";
  for (const gen::GeneratedPair& g : gen::GenerateCorpus(seed, count)) {
    manifest += gen::DescribeGeneratedPair(g) + "\n";
  }
  manifest += gen::DescribeGeneratedPair(gen::BuildHogPair(seed)) + "\n";
  if (out_path.empty()) {
    std::fwrite(manifest.data(), 1, manifest.size(), stdout);
  } else {
    WriteFile(out_path, manifest);
    std::printf("manifest:  %d pair(s) + hog -> %s\n", count,
                out_path.c_str());
  }
  return 0;
}

// Chaos soak: generate a corpus and stream it through every execution
// surface under a seeded fault schedule (src/gen/soak.h lists the
// invariants). Exit 0 only when every invariant held; --out captures the
// deterministic report text CI byte-diffs across two same-seed runs.
int CmdSoak(int argc, char** argv) {
  gen::SoakOptions o;
  o.worker_binary = g_self_exe;
  std::string out_path;
  std::string trace_out;
  Args args(argc, argv);
  while (args.Next()) {
    const std::string& arg = args.flag();
    if (arg == "--seed") {
      o.seed = args.Count<std::uint64_t>();
    } else if (arg == "--pairs") {
      o.pairs = args.Count<int>(1, 1'000'000);
    } else if (arg == "--jobs") {
      o.jobs = args.Count<unsigned>(1, kMaxParallel);
    } else if (arg == "--smoke") {
      o.pairs = 64;  // the PR-sized preset: every leg, small corpus
    } else if (arg == "--workdir") {
      o.workdir = args.Value();
    } else if (arg == "--no-chaos") {
      o.chaos = false;
    } else if (arg == "--daemon-kills") {
      o.daemon_kills = args.Count<int>(0, 100);
    } else if (arg == "--fuzz-execs") {
      o.fuzz_execs = args.Count<std::uint64_t>();
    } else if (arg == "--out") {
      out_path = args.Value();
    } else if (arg == "--trace-out") {
      trace_out = args.Value();
    } else {
      throw UsageError("usage: octopocs soak [--seed N] [--pairs N] "
                       "[--jobs N] [--smoke] --workdir DIR [--no-chaos] "
                       "[--daemon-kills N] [--fuzz-execs N] [--out FILE] "
                       "[--trace-out FILE]");
    }
  }
  if (o.workdir.empty()) {
    std::fprintf(stderr, "soak: --workdir is required (journals, caches, "
                         "sockets and stamp files live there)\n");
    return 2;
  }
  core::SetGenPairLoader(&gen::LoadGeneratedPair);
  support::Tracer tracer;
  if (!trace_out.empty()) o.tracer = &tracer;

  const auto start = std::chrono::steady_clock::now();
  const gen::SoakReport report = gen::RunSoak(o);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::string text = gen::SerializeSoakReport(report);
  std::fwrite(text.data(), 1, text.size(), stdout);
  // The run-dependent half: scheduling- and timing-sensitive counters,
  // printed for the log but never part of the diffable report.
  std::printf("chaos:     %d fault(s) armed | %d client retry(ies) | "
              "%llu shed | %d daemon restart(s) | %d quarantine(s)\n",
              report.chaos_faults_armed, report.client_retries,
              static_cast<unsigned long long>(report.server_sheds),
              report.daemon_restarts, report.quarantines);
  std::printf("time:      %.3f s wall\n", wall);
  if (!out_path.empty()) {
    WriteFile(out_path, text);
    std::printf("report:    -> %s\n", out_path.c_str());
  }
  if (!trace_out.empty()) {
    if (!tracer.WriteJsonlFile(trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    } else {
      std::printf("trace:     %zu event(s) -> %s\n", tracer.event_count(),
                  trace_out.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "octopocs — propagated-vulnerability verification\n"
                 "subcommands: verify, detect, run, minimize, disasm, "
                 "export, corpus, serve, client, gen, soak, pool-worker\n");
    return 2;
  }
#ifndef _WIN32
  {
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
      buf[n] = '\0';
      g_self_exe = buf;
    }
  }
#endif
  if (g_self_exe.empty()) g_self_exe = argv[0];
  const std::string cmd = argv[1];
  try {
    if (cmd == "verify") return CmdVerify(argc - 2, argv + 2);
    if (cmd == "corpus") return CmdCorpus(argc - 2, argv + 2);
    if (cmd == "serve") return CmdServe(argc - 2, argv + 2);
    if (cmd == "client") return CmdClient(argc - 2, argv + 2);
    if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
    if (cmd == "soak") return CmdSoak(argc - 2, argv + 2);
    if (cmd == "pool-worker") return CmdPoolWorker(argc - 2, argv + 2);
    if (cmd == "detect") return CmdDetect(argc - 2, argv + 2);
    if (cmd == "run") return CmdRun(argc - 2, argv + 2);
    if (cmd == "minimize") return CmdMinimize(argc - 2, argv + 2);
    if (cmd == "disasm") return CmdDisasm(argc - 2, argv + 2);
    if (cmd == "export") return CmdExport(argc - 2, argv + 2);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  return 2;
}
