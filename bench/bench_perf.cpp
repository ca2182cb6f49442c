// Performance trajectory bench: fork cost, cache effectiveness, corpus
// throughput. Emits machine-readable BENCH_perf.json next to the text
// report so future PRs can diff perf numbers instead of prose.
//
//   bench_perf [--smoke] [--jobs N] [--out FILE]
//
// --smoke shrinks iteration counts for CI; --jobs sets the parallel leg
// of the throughput measurement (default 4).
//
// Three measurements:
//   fork        copy a fork-heavy SymState structurally (the COW path)
//               vs. copying it and then unsharing every page and map —
//               which is byte-for-byte the work the pre-COW deep copy
//               did on every fork. Reported as ns/fork and a ratio.
//   caches      solver hit rate (every hit is certified model reuse)
//               and expression-interning dedup rate accumulated over a
//               full serial corpus run.
//   throughput  pairs/sec for the 15-pair corpus, serial (best of
//               five passes) vs. --jobs, with a determinism
//               cross-check: every verdict, type, and reformed-PoC
//               byte must match between the two runs.
//               The parallel leg is reported, not gated.
//   artifacts   the content-addressed store (DESIGN.md §11): a cold
//               corpus pass (cross-pair reuse only — pairs sharing an
//               origin S or target T hit each other's artifacts) and a
//               warm pass over the same store, both byte-identical to
//               the cache-off baseline. Reports the reuse rate and the
//               wall-time of the origin-sharing pairs with and without
//               a warm cache.
//   oracle legs pair 3 (the hung-loop pair) and pair 14 (the
//               solver-heavy combine pair), each timed best-of-N under
//               the defaults and under oracle::ShortcutsOff (backtrack
//               core with no solver shortcut or context seeding, no
//               cycle skip in the interpreter or the symbolic stepper,
//               so that leg steps pair 3's hang in both). Pair
//               3's ratio is gated as pair3_speedup; both pairs' reports
//               must be byte-identical across the two configurations.
//               The whole-corpus differential lives in
//               tests/shortcuts_off_test.cpp.
//   pair 14 θ=480  pair 14 again with θ=480, defaults only, best of
//               five: its search then ends in a proof (symex status
//               unsat) over paths four times as long, so the time
//               tracks what a branch query costs as the path grows.
//   hostile     one fixed symex-hostile generated pair (a gate byte
//               feeding a warm-up loop that runs to the θ cap, asking
//               the solver at every iteration's branch), under the
//               generated corpus's rung options, timed best-of-N under
//               the defaults and under oracle::ShortcutsOff. Its report
//               identity is gated as hostile_identical; the ratio is
//               reported, and hostile_stepped_instructions (symbolic
//               instructions stepped rather than jumped to the θ cut;
//               deterministic) says how soon the stepper decided the
//               warm-up loop.
//   fuel loop   the first fuel-loop (CWE-835 hang) generated pair, timed
//               the same way. Its report identity is gated as
//               fuel_loop_identical, and fuel_loop_stepped_instructions
//               (symbolic instructions stepped rather than jumped by the
//               cycle skip; deterministic) says how soon the stepper
//               found the hang's period.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "corpus/pairs.h"
#include "gen/generator.h"
#include "oracle/oracle.h"
#include "symex/state.h"

using namespace octopocs;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A state shaped like the deep end of a P2 run: several call frames,
/// a few KB of written symbolic memory, live heap records, a long
/// constraint vector, and loop bookkeeping.
symex::SymState BuildForkHeavyState() {
  symex::SymState s;
  for (int f = 0; f < 6; ++f) {
    symex::SymFrame frame;
    frame.fn = static_cast<vm::FuncId>(f);
    frame.regs.reserve(16);
    for (std::uint32_t r = 0; r < 16; ++r) {
      frame.regs.push_back(symex::MakeBinOp(
          vm::Op::kAdd, symex::MakeInput(r), symex::MakeConst(f * 16 + r)));
    }
    s.frames.push_back(std::move(frame));
  }
  for (std::uint64_t addr = 0; addr < 4096; ++addr) {
    s.mem.Set(vm::kHeapBase + addr,
              symex::MakeBinOp(vm::Op::kXor,
                               symex::MakeInput(addr % 64),
                               symex::MakeConst(addr)));
  }
  auto& heap = s.heap.mut();
  for (std::uint64_t i = 0; i < 64; ++i) {
    heap[vm::kHeapBase + i * 64] = symex::SymAlloc{64, true};
  }
  for (std::uint32_t c = 0; c < 256; ++c) {
    s.solve_ctx.Append(symex::MakeBinOp(vm::Op::kCmpNe,
                                        symex::MakeInput(c % 64),
                                        symex::MakeConst(c)));
  }
  auto& loops = s.loop_counts.mut();
  for (vm::BlockId b = 0; b < 32; ++b) {
    loops[{0, b, 0}] = symex::SymState::LoopEntry{3, 7};
  }
  return s;
}

struct ForkCost {
  double cow_ns = 0;
  double deep_ns = 0;
  double speedup = 0;
};

/// The byte-identity predicate every alternative execution strategy
/// (parallel jobs, artifact cache) is held to against the serial
/// cache-off baseline.
bool ReportsIdentical(const std::vector<core::VerificationReport>& a,
                      const std::vector<core::VerificationReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].verdict != b[i].verdict || a[i].type != b[i].type ||
        a[i].reformed_poc != b[i].reformed_poc ||
        a[i].bunch_offsets != b[i].bunch_offsets ||
        a[i].detail != b[i].detail) {
      return false;
    }
  }
  return true;
}

/// One generated pair (the first ordinal of generator seed 2 whose
/// vulnerability class or mutation is `kind`: the corpus perfbench's
/// `generated` workload draws for --seed 1) under that workload's rung
/// options, timed best of five under the defaults and under
/// oracle::ShortcutsOff.
struct GeneratedLeg {
  gen::GeneratedPair pair;
  double seconds = 0;
  double oracle_seconds = 0;
  core::VerificationReport rep;
  /// Reports byte-identical across the two configurations, and the
  /// verdict the pair's label expects.
  bool identical = false;
};

GeneratedLeg TimeGeneratedLeg(const std::string& kind) {
  GeneratedLeg leg;
  for (int ordinal = 0;; ++ordinal) {
    leg.pair = gen::BuildGeneratedPair(2, ordinal);
    if (leg.pair.mutation == kind || leg.pair.vuln_class == kind) break;
  }
  core::PipelineOptions opts;
  opts.fuzz_fallback = true;
  opts.fuzz_seed = 1;
  opts.fuzz_execs = 20000;
  core::PipelineOptions oracle_opts = opts;
  oracle::ShortcutsOff(&oracle_opts);
  core::VerificationReport oracle_rep;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    leg.rep = core::VerifyPair(leg.pair.pair, opts);
    const double s = SecondsSince(t0);
    if (r == 0 || s < leg.seconds) leg.seconds = s;
    const auto t1 = Clock::now();
    oracle_rep = core::VerifyPair(leg.pair.pair, oracle_opts);
    const double o = SecondsSince(t1);
    if (r == 0 || o < leg.oracle_seconds) leg.oracle_seconds = o;
  }
  leg.identical = ReportsIdentical({leg.rep}, {oracle_rep}) &&
                  leg.rep.verdict == leg.pair.expected_verdict;
  return leg;
}

/// Symbolic instructions the leg's pair stepped rather than jumped
/// (a cycle skip or a loop jump): deterministic.
std::uint64_t SteppedInstructions(const GeneratedLeg& leg) {
  return leg.rep.symex_stats.instructions -
         leg.rep.symex_stats.instructions_skipped;
}

ForkCost MeasureForkCost(int iterations) {
  symex::InternScope intern;  // executor-realistic expression sharing
  const symex::SymState parent = BuildForkHeavyState();
  ForkCost cost;
  std::size_t sink = 0;  // defeats dead-copy elimination

  {
    const auto start = Clock::now();
    for (int i = 0; i < iterations; ++i) {
      symex::SymState fork = parent;       // structural COW fork
      sink += fork.frames.size();
    }
    cost.cow_ns = SecondsSince(start) * 1e9 / iterations;
  }
  {
    const auto start = Clock::now();
    for (int i = 0; i < iterations; ++i) {
      symex::SymState fork = parent;
      fork.mem.DetachAllPages();           // the pre-COW eager copy
      fork.heap.mut();
      fork.loop_counts.mut();
      sink += fork.mem.size();
    }
    cost.deep_ns = SecondsSince(start) * 1e9 / iterations;
  }
  if (sink == 0) std::printf("(unreachable)\n");
  cost.speedup = cost.cow_ns > 0 ? cost.deep_ns / cost.cow_ns : 0;
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  unsigned jobs = 4;
  std::string out_path = "BENCH_perf.json";
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--smoke") {
      smoke = true;
    } else if (args.flag() == "--jobs") {
      jobs = static_cast<unsigned>(args.Count(1, 256));
    } else if (args.flag() == "--out") {
      out_path = args.Value();
    } else {
      args.Unknown();
    }
  }

  std::printf("=== Perf trajectory (fork cost, caches, throughput) ===\n\n");

  // -- Fork cost ------------------------------------------------------------
  const int fork_iters = smoke ? 500 : 10'000;
  const ForkCost fork = MeasureForkCost(fork_iters);
  std::printf("fork (COW):   %10.1f ns\n", fork.cow_ns);
  std::printf("fork (deep):  %10.1f ns   (pre-COW eager copy)\n",
              fork.deep_ns);
  std::printf("fork speedup: %10.1fx\n\n", fork.speedup);

  // -- Serial corpus run: cache stats + baseline wall clock -----------------
  // Best of five passes, like the pair legs below: one pass swings too
  // much to resolve a 10% change. The counters come from the first pass.
  const std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  const core::PipelineOptions opts;

  std::vector<core::VerificationReport> serial;
  double serial_seconds = 0;
  for (int r = 0; r < 5; ++r) {
    const auto serial_start = Clock::now();
    auto reports = core::VerifyCorpus(pairs, opts, 1);
    const double s = SecondsSince(serial_start);
    if (r == 0 || s < serial_seconds) serial_seconds = s;
    if (r == 0) serial = std::move(reports);
  }

  unsigned long long cache_hits = 0, cache_misses = 0;
  unsigned long long intern_hits = 0, intern_nodes = 0;
  std::vector<double> pair_seconds;
  pair_seconds.reserve(serial.size());
  for (const core::VerificationReport& r : serial) {
    cache_hits += r.symex_stats.solver_cache_hits;
    cache_misses += r.symex_stats.solver_cache_misses;
    intern_hits += r.symex_stats.expr_intern_hits;
    intern_nodes += r.symex_stats.expr_intern_nodes;
    pair_seconds.push_back(r.timings.total_seconds);
  }
  const double cache_rate =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) / (cache_hits + cache_misses)
          : 0;
  const double intern_rate =
      intern_hits + intern_nodes > 0
          ? static_cast<double>(intern_hits) / (intern_hits + intern_nodes)
          : 0;
  std::printf("solver cache: %llu hit / %llu miss (%.1f%% hit rate)\n",
              cache_hits, cache_misses, cache_rate * 100);
  std::printf("interner:     %llu deduped / %llu distinct (%.1f%% of "
              "constructions)\n\n",
              intern_hits, intern_nodes, intern_rate * 100);

  // -- Parallel corpus run + determinism cross-check ------------------------
  // On a single-core host the leg is timing theater — threads just take
  // turns — and the "speedup" it reports (≈1x at best) used to trip
  // regression diffs. So the timing leg only runs with ≥2 hardware
  // threads; a 1-cpu host records parallel_leg: "skipped (1 cpu)" and
  // downstream gates key off that field instead of a meaningless ratio.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool run_parallel = hw >= 2;
  double parallel_seconds = 0;
  bool identical = true;
  if (run_parallel) {
    const auto par_start = Clock::now();
    const auto parallel = core::VerifyCorpus(pairs, opts, jobs);
    parallel_seconds = SecondsSince(par_start);
    identical = ReportsIdentical(serial, parallel);
  }
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0;
  if (run_parallel) {
    std::printf("corpus:       %.3f s serial | %.3f s with %u jobs "
                "(%.2fx, %.1f pairs/s)\n",
                serial_seconds, parallel_seconds, jobs, speedup,
                parallel_seconds > 0 ? pairs.size() / parallel_seconds : 0);
    std::printf("host:         %u hardware thread%s — wall-clock speedup is "
                "bounded by this, not by --jobs\n",
                hw, hw == 1 ? "" : "s");
    std::printf("determinism:  parallel results %s serial\n\n",
                identical ? "byte-identical to" : "DIVERGED from");
  } else {
    std::printf("corpus:       %.3f s serial | parallel leg skipped "
                "(1 hardware thread — no concurrency to measure)\n\n",
                serial_seconds);
  }

  // -- Artifact-cache legs: cold (cross-pair reuse), then warm --------------
  core::ArtifactStore store;
  core::PipelineOptions cached_opts;
  cached_opts.artifacts = &store;

  const auto cold_start = Clock::now();
  const auto cache_cold = core::VerifyCorpus(pairs, cached_opts, 1);
  const double cache_cold_seconds = SecondsSince(cold_start);
  const core::ArtifactStore::Stats cold_stats = store.stats();

  const auto warm_start = Clock::now();
  const auto cache_warm = core::VerifyCorpus(pairs, cached_opts, 1);
  const double cache_warm_seconds = SecondsSince(warm_start);
  const core::ArtifactStore::Stats total_stats = store.stats();

  const unsigned long long warm_hits = total_stats.hits - cold_stats.hits;
  const unsigned long long warm_misses =
      total_stats.misses - cold_stats.misses;
  const double reuse_rate =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) / (warm_hits + warm_misses)
          : 0;
  const bool artifact_identical = ReportsIdentical(serial, cache_cold) &&
                                  ReportsIdentical(serial, cache_warm);

  // Wall time spent on the pairs that share their origin S (or target T)
  // with another pair — the population the store exists for.
  const bool shared_origin[16] = {false, true, true,  false, false, false,
                                  true,  true, false, false, true,  true,
                                  true,  true, true,  false};
  double shared_baseline_seconds = 0, shared_warm_seconds = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].idx < 16 && shared_origin[pairs[i].idx]) {
      shared_baseline_seconds += serial[i].timings.total_seconds;
      shared_warm_seconds += cache_warm[i].timings.total_seconds;
    }
  }

  std::printf("artifacts:    cold %.3f s (%llu cross-pair hit%s) | warm "
              "%.3f s (%llu hit / %llu miss, %.0f%% reuse)\n",
              cache_cold_seconds,
              static_cast<unsigned long long>(cold_stats.hits),
              cold_stats.hits == 1 ? "" : "s", cache_warm_seconds, warm_hits,
              warm_misses, reuse_rate * 100);
  std::printf("  shared-origin pairs: %.3f s baseline -> %.3f s warm\n",
              shared_baseline_seconds, shared_warm_seconds);
  std::printf("  identity:   cached results %s the cache-off baseline\n\n",
              artifact_identical ? "byte-identical to" : "DIVERGED from");

  // -- Oracle legs: pairs 3 and 14, defaults vs every shortcut off --------
  core::PipelineOptions oracle_opts;
  oracle::ShortcutsOff(&oracle_opts);

  // Pair idx 3 hangs T in a loop until the fuel bound. The baseline leg
  // runs it with every shortcut off (the interpreter steps the whole
  // fuel budget and the symbolic stepper the whole per-state cap)
  // against the defaults (cycle skip fast-forwards both). Best-of-N wall times so scheduler noise cannot fake a
  // regression; identity of the two reports is part of the gate.
  std::size_t pair3 = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].idx == 3) pair3 = i;
  }
  double pair3_baseline_seconds = 0, pair3_optimized_seconds = 0;
  double pair3_speedup = 0;
  bool pair3_identical = true;
  if (pair3 < pairs.size()) {
    const int reps = smoke ? 1 : 3;
    core::VerificationReport baseline_rep, optimized_rep;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      baseline_rep = core::VerifyPair(pairs[pair3], oracle_opts);
      const double s = SecondsSince(t0);
      if (r == 0 || s < pair3_baseline_seconds) pair3_baseline_seconds = s;
      const auto t1 = Clock::now();
      optimized_rep = core::VerifyPair(pairs[pair3], opts);
      const double o = SecondsSince(t1);
      if (r == 0 || o < pair3_optimized_seconds) pair3_optimized_seconds = o;
    }
    pair3_speedup = pair3_optimized_seconds > 0
                        ? pair3_baseline_seconds / pair3_optimized_seconds
                        : 0;
    pair3_identical = ReportsIdentical({baseline_rep}, {optimized_rep});
    std::printf("pair 3:       %.3f s baseline (shortcuts off) | "
                "%.3f s optimized (%.1fx, reports %s)\n\n",
                pair3_baseline_seconds, pair3_optimized_seconds,
                pair3_speedup,
                pair3_identical ? "byte-identical" : "DIVERGED");
  }

  // Pair idx 14 spends nearly all its time in P2/P3 solver queries. Its
  // leg times the defaults against every shortcut off (the backtrack
  // oracle answering each query, with no solver shortcut), best of
  // five each; the time is informational, report identity is gated.
  std::size_t pair14 = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].idx == 14) pair14 = i;
  }
  double pair14_seconds = 0, pair14_oracle_seconds = 0;
  bool pair14_identical = true;
  if (pair14 < pairs.size()) {
    core::VerificationReport default_rep, oracle_rep;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      default_rep = core::VerifyPair(pairs[pair14], opts);
      const double s = SecondsSince(t0);
      if (r == 0 || s < pair14_seconds) pair14_seconds = s;
      const auto t1 = Clock::now();
      oracle_rep = core::VerifyPair(pairs[pair14], oracle_opts);
      const double o = SecondsSince(t1);
      if (r == 0 || o < pair14_oracle_seconds) pair14_oracle_seconds = o;
    }
    pair14_identical = ReportsIdentical({default_rep}, {oracle_rep});
    std::printf("pair 14:      %.3f s defaults | %.3f s shortcuts off "
                "(reports %s)\n",
                pair14_seconds, pair14_oracle_seconds,
                pair14_identical ? "byte-identical" : "DIVERGED");
  }

  // Pair 14 at θ=480, where its search ends in a proof (unsat) instead of
  // the θ cut, on paths four times as long: the cost of a branch query
  // as the path grows. Defaults only, best of five.
  double pair14_theta480_seconds = 0;
  std::string pair14_theta480_status = "absent";
  if (pair14 < pairs.size()) {
    core::PipelineOptions theta480 = opts;
    theta480.symex.theta = 480;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      const core::VerificationReport rep =
          core::VerifyPair(pairs[pair14], theta480);
      const double s = SecondsSince(t0);
      if (r == 0 || s < pair14_theta480_seconds) pair14_theta480_seconds = s;
      pair14_theta480_status = symex::SymexStatusName(rep.symex_status);
    }
    std::printf("pair 14 θ=480: %.3f s defaults (symex %s)\n",
                pair14_theta480_seconds, pair14_theta480_status.c_str());
  }
  std::printf("\n");

  // -- Hostile leg: one symex-hostile generated pair ------------------------
  // Its symbolic run is branch queries along one growing path, the cost
  // the solver's branch tiers target.
  const GeneratedLeg hostile = TimeGeneratedLeg("symex-hostile");
  const double hostile_speedup =
      hostile.seconds > 0 ? hostile.oracle_seconds / hostile.seconds : 0;
  const std::uint64_t hostile_stepped = SteppedInstructions(hostile);
  std::printf("hostile:      %.4f s defaults | %.4f s shortcuts off "
              "(%.1fx, %s, %llu instructions stepped of %llu, reports "
              "%s)\n",
              hostile.seconds, hostile.oracle_seconds, hostile_speedup,
              hostile.pair.pair.t_name.c_str(),
              static_cast<unsigned long long>(hostile_stepped),
              static_cast<unsigned long long>(
                  hostile.rep.symex_stats.instructions),
              hostile.identical ? "byte-identical" : "DIVERGED");

  // -- Fuel-loop leg: one generated CWE-835 hang ----------------------------
  // Its cost is finding the hang's period, in every concrete run of T
  // and in the symbolic stepper. The stepper's stepped (not jumped)
  // instruction count is deterministic, so CI gates a ceiling on it.
  const GeneratedLeg fuel = TimeGeneratedLeg("fuel-loop");
  const std::uint64_t fuel_stepped = SteppedInstructions(fuel);
  std::printf("fuel loop:    %.4f s defaults | %.4f s shortcuts off "
              "(%s, %llu instructions stepped of %llu, reports %s)\n\n",
              fuel.seconds, fuel.oracle_seconds,
              fuel.pair.pair.t_name.c_str(),
              static_cast<unsigned long long>(fuel_stepped),
              static_cast<unsigned long long>(
                  fuel.rep.symex_stats.instructions),
              fuel.identical ? "byte-identical" : "DIVERGED");

  // -- Machine-readable trajectory ------------------------------------------
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"fork_cow_ns\": %.1f,\n"
                 "  \"fork_deep_ns\": %.1f,\n"
                 "  \"fork_speedup\": %.2f,\n"
                 "  \"solver_cache_hits\": %llu,\n"
                 "  \"solver_cache_misses\": %llu,\n"
                 "  \"solver_cache_hit_rate\": %.4f,\n"
                 "  \"intern_hits\": %llu,\n"
                 "  \"intern_nodes\": %llu,\n"
                 "  \"corpus_pairs\": %zu,\n"
                 "  \"serial_seconds\": %.4f,\n",
                 fork.cow_ns, fork.deep_ns, fork.speedup, cache_hits,
                 cache_misses, cache_rate, intern_hits, intern_nodes,
                 pairs.size(), serial_seconds);
    std::fprintf(out, "  \"pair_seconds\": [");
    for (std::size_t i = 0; i < pair_seconds.size(); ++i) {
      std::fprintf(out, "%s%.4f", i == 0 ? "" : ", ", pair_seconds[i]);
    }
    std::fprintf(out,
                 "],\n"
                 "  \"parallel_leg\": \"%s\",\n"
                 "  \"parallel_seconds\": %.4f,\n"
                 "  \"parallel_jobs\": %u,\n"
                 "  \"parallel_schedule\": \"input-order\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"parallel_speedup\": %.3f,\n"
                 "  \"parallel_identical_to_serial\": %s,\n"
                 "  \"artifact_cache_cold_seconds\": %.4f,\n"
                 "  \"artifact_cache_warm_seconds\": %.4f,\n"
                 "  \"artifact_cold_hits\": %llu,\n"
                 "  \"artifact_warm_hits\": %llu,\n"
                 "  \"artifact_warm_misses\": %llu,\n"
                 "  \"artifact_reuse_rate\": %.4f,\n"
                 "  \"artifact_identical_to_baseline\": %s,\n"
                 "  \"artifact_shared_origin_baseline_seconds\": %.4f,\n"
                 "  \"artifact_shared_origin_warm_seconds\": %.4f,\n"
                 "  \"pair3_baseline_seconds\": %.4f,\n"
                 "  \"pair3_optimized_seconds\": %.4f,\n"
                 "  \"pair3_speedup\": %.2f,\n"
                 "  \"pair3_identical\": %s,\n"
                 "  \"pair14_seconds\": %.4f,\n"
                 "  \"pair14_oracle_seconds\": %.4f,\n"
                 "  \"pair14_identical\": %s,\n"
                 "  \"pair14_theta480_seconds\": %.4f,\n"
                 "  \"pair14_theta480_symex_status\": \"%s\",\n"
                 "  \"hostile_seconds\": %.4f,\n"
                 "  \"hostile_oracle_seconds\": %.4f,\n"
                 "  \"hostile_speedup\": %.2f,\n"
                 "  \"hostile_identical\": %s,\n"
                 "  \"hostile_stepped_instructions\": %llu,\n"
                 "  \"fuel_loop_seconds\": %.4f,\n"
                 "  \"fuel_loop_oracle_seconds\": %.4f,\n"
                 "  \"fuel_loop_identical\": %s,\n"
                 "  \"fuel_loop_stepped_instructions\": %llu,\n"
                 "  \"smoke\": %s\n"
                 "}\n",
                 run_parallel ? "ran" : "skipped (1 cpu)", parallel_seconds,
                 jobs, hw, speedup,
                 identical ? "true" : "false", cache_cold_seconds,
                 cache_warm_seconds,
                 static_cast<unsigned long long>(cold_stats.hits), warm_hits,
                 warm_misses, reuse_rate,
                 artifact_identical ? "true" : "false",
                 shared_baseline_seconds, shared_warm_seconds,
                 pair3_baseline_seconds, pair3_optimized_seconds,
                 pair3_speedup, pair3_identical ? "true" : "false",
                 pair14_seconds, pair14_oracle_seconds,
                 pair14_identical ? "true" : "false",
                 pair14_theta480_seconds, pair14_theta480_status.c_str(),
                 hostile.seconds, hostile.oracle_seconds, hostile_speedup,
                 hostile.identical ? "true" : "false",
                 static_cast<unsigned long long>(hostile_stepped),
                 fuel.seconds,
                 fuel.oracle_seconds, fuel.identical ? "true" : "false",
                 static_cast<unsigned long long>(fuel_stepped),
                 smoke ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // Hard gates: the COW fork must beat the eager copy by 5x and the
  // parallel run must agree with the serial one. Wall-clock speedup is
  // reported but not gated — it is a property of the host's core count.
  if (run_parallel && !identical) {
    std::printf("FAIL: parallel verification diverged from serial\n");
    return 1;
  }
  if (!pair3_identical) {
    std::printf("FAIL: pair-3 optimized report diverged from the "
                "baseline leg\n");
    return 1;
  }
  if (!pair14_identical) {
    std::printf("FAIL: pair-14 report diverged from the shortcut-off "
                "oracle\n");
    return 1;
  }
  if (!hostile.identical) {
    std::printf("FAIL: hostile-pair report diverged from the shortcut-off "
                "oracle or missed its label\n");
    return 1;
  }
  if (!fuel.identical) {
    std::printf("FAIL: fuel-loop pair report diverged from the "
                "shortcut-off oracle or missed its label\n");
    return 1;
  }
  if (!artifact_identical) {
    std::printf("FAIL: artifact-cached verification diverged from the "
                "cache-off baseline\n");
    return 1;
  }
  if (cold_stats.hits == 0 || warm_hits == 0) {
    std::printf("FAIL: artifact store saw no reuse (cold %llu, warm %llu "
                "hits) — keys are unstable or phases stopped consulting "
                "the store\n",
                static_cast<unsigned long long>(cold_stats.hits), warm_hits);
    return 1;
  }
  if (!smoke && fork.speedup < 5.0) {
    std::printf("FAIL: fork speedup %.2fx below the 5x floor\n",
                fork.speedup);
    return 1;
  }
  return 0;
}
