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
//   caches      solver-memoization hit rate (with the per-mechanism
//               breakdown: exact / model-reuse / subsumed) and
//               expression-interning dedup rate accumulated over a full
//               serial corpus run.
//   throughput  pairs/sec for the 15-pair corpus, serial vs. --jobs,
//               with a determinism cross-check: every verdict, type,
//               and reformed-PoC byte must match between the two runs.
//               The parallel leg feeds the serial run's per-pair wall
//               times back into VerifyCorpus as cost hints, so pairs
//               launch longest-first (LPT) — the fix for the tail-pair
//               convoy that made --jobs *slower* than serial when the
//               longest pair started last.
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
//               core, switch dispatch, no fusion, no cycle skip). Pair
//               3's ratio is gated as pair3_speedup; both pairs' reports
//               must be byte-identical across the two configurations.
//               The whole-corpus differential lives in
//               tests/shortcuts_off_test.cpp.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "corpus/pairs.h"
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
    s.constraints.push_back(symex::MakeBinOp(vm::Op::kCmpNe,
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
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
  const std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  const core::PipelineOptions opts;

  const auto serial_start = Clock::now();
  const auto serial = core::VerifyCorpus(pairs, opts, 1);
  const double serial_seconds = SecondsSince(serial_start);

  unsigned long long cache_hits = 0, cache_misses = 0;
  unsigned long long exact_hits = 0, reuse_hits = 0;
  unsigned long long subsume_hits = 0;
  unsigned long long intern_hits = 0, intern_nodes = 0;
  std::vector<double> pair_seconds;
  pair_seconds.reserve(serial.size());
  for (const core::VerificationReport& r : serial) {
    cache_hits += r.symex_stats.solver_cache_hits;
    cache_misses += r.symex_stats.solver_cache_misses;
    exact_hits += r.symex_stats.solver_exact_hits;
    reuse_hits += r.symex_stats.solver_model_reuse_hits;
    subsume_hits += r.symex_stats.solver_subsumption_hits;
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
  // Per-mechanism rates over all lookups, so a regression in one cache
  // tier shows up as a rate shift even when the total hit rate holds.
  const unsigned long long lookups = cache_hits + cache_misses;
  const auto rate_of = [lookups](unsigned long long hits) {
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  };
  const double exact_rate = rate_of(exact_hits);
  const double reuse_rate_solver = rate_of(reuse_hits);
  const double subsume_rate = rate_of(subsume_hits);
  std::printf("solver cache: %llu hit / %llu miss (%.1f%% hit rate)\n",
              cache_hits, cache_misses, cache_rate * 100);
  std::printf("  by kind:    exact %llu (%.1f%%) | model-reuse %llu (%.1f%%)"
              " | subsumed %llu (%.1f%%)\n",
              exact_hits, exact_rate * 100, reuse_hits,
              reuse_rate_solver * 100, subsume_hits, subsume_rate * 100);
  std::printf("interner:     %llu deduped / %llu distinct (%.1f%% of "
              "constructions)\n\n",
              intern_hits, intern_nodes, intern_rate * 100);

  // -- Parallel corpus run + determinism cross-check ------------------------
  // The serial leg just measured every pair, so hand those wall times to
  // the scheduler: longest pair first keeps the big pair off the tail of
  // the schedule, where it serializes the whole run behind one worker.
  //
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
    const auto parallel = core::VerifyCorpus(pairs, opts, jobs,
                                             /*pair_deadline_ms=*/0,
                                             &pair_seconds);
    parallel_seconds = SecondsSince(par_start);
    identical = ReportsIdentical(serial, parallel);
  }
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0;
  if (run_parallel) {
    std::printf("corpus:       %.3f s serial | %.3f s with %u jobs "
                "(%.2fx, %.1f pairs/s, longest-first)\n",
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
  // runs it with every shortcut off (the interpreter then steps the
  // whole fuel budget) against the defaults (cycle skip fast-forwards
  // it). Best-of-N wall times so scheduler noise cannot fake a
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
  // oracle answering each query), best of five each; the time is
  // informational, report identity is gated.
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
                "(reports %s)\n\n",
                pair14_seconds, pair14_oracle_seconds,
                pair14_identical ? "byte-identical" : "DIVERGED");
  }

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
                 "  \"solver_exact_hits\": %llu,\n"
                 "  \"solver_exact_hit_rate\": %.4f,\n"
                 "  \"solver_model_reuse_hits\": %llu,\n"
                 "  \"solver_model_reuse_hit_rate\": %.4f,\n"
                 "  \"solver_subsumption_hits\": %llu,\n"
                 "  \"solver_subsumption_hit_rate\": %.4f,\n"
                 "  \"intern_hits\": %llu,\n"
                 "  \"intern_nodes\": %llu,\n"
                 "  \"corpus_pairs\": %zu,\n"
                 "  \"serial_seconds\": %.4f,\n",
                 fork.cow_ns, fork.deep_ns, fork.speedup, cache_hits,
                 cache_misses, cache_rate, exact_hits, exact_rate,
                 reuse_hits, reuse_rate_solver, subsume_hits, subsume_rate,
                 intern_hits, intern_nodes, pairs.size(), serial_seconds);
    std::fprintf(out, "  \"pair_seconds\": [");
    for (std::size_t i = 0; i < pair_seconds.size(); ++i) {
      std::fprintf(out, "%s%.4f", i == 0 ? "" : ", ", pair_seconds[i]);
    }
    std::fprintf(out,
                 "],\n"
                 "  \"parallel_leg\": \"%s\",\n"
                 "  \"parallel_seconds\": %.4f,\n"
                 "  \"parallel_jobs\": %u,\n"
                 "  \"parallel_schedule\": \"longest-first\",\n"
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
