// The traced run's per-layer metrics, measured from outside.
//
// After the timed windows, one untimed pass replays every public layer
// call a verdict makes, each under a benchmark-side span: VerifyPair
// itself, then Octopocs::DiscoverEp, Octopocs::ExtractPrimitives,
// cfg::Cfg::Build, Cfg::BackwardReachability, fuzz::RunDirectedFuzz
// where the report says the rung ran, and vm::RunProgram on the
// reformed PoC (P4). P2/P3 is not a public call, so its time comes from
// the report's PhaseTimings (which include the CFG build). Report
// marshalling and the worker pool get their own replays; the daemon's
// figures come from the traced window's request spans.
#include <algorithm>
#include <cstring>
#include <optional>

#include "bench.h"
#include "cfg/cfg.h"
#include "core/report_io.h"
#include "core/supervisor.h"
#include "fuzz/directed.h"
#include "support/trace.h"
#include "vm/interp.h"

namespace perfbench {

namespace {

/// Closed span durations by name: (span argument, ms).
using Spans = std::map<std::string, std::vector<std::pair<std::int64_t, double>>>;

Spans CollectSpans(const support::Tracer& tracer) {
  struct Open {
    const char* name;
    std::uint64_t ts_ns;
    std::int64_t arg;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  Spans out;
  for (const support::TraceEvent& e : tracer.Snapshot()) {
    std::vector<Open>& stack = stacks[e.tid];
    if (e.kind == support::TraceEventKind::kBegin) {
      stack.push_back({e.name, e.ts_ns, e.value});
    } else if (e.kind == support::TraceEventKind::kEnd) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (std::strcmp(it->name, e.name) != 0) continue;
        out[e.name].emplace_back(
            it->arg, static_cast<double>(e.ts_ns - it->ts_ns) / 1e6);
        stack.erase(std::next(it).base());
        break;
      }
    }
  }
  return out;
}

double MeanMs(const Spans& spans, const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.empty()) return 0;
  double sum = 0;
  for (const auto& [arg, ms] : it->second) sum += ms;
  return sum / static_cast<double>(it->second.size());
}

/// Span time per argument (the item index in replays).
std::map<std::int64_t, double> ByArg(const Spans& spans, const char* name) {
  std::map<std::int64_t, double> out;
  const auto it = spans.find(name);
  if (it == spans.end()) return out;
  for (const auto& [arg, ms] : it->second) out[arg] += ms;
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Replay {
  std::vector<core::VerificationReport> reports;
  std::vector<bool> fuzzed;  // the fuzz rung ran for this item
  std::uint64_t p4_instructions = 0;
  std::uint64_t fuzz_execs = 0;
  std::uint64_t fuzz_crashes = 0;
};

Replay ReplayLayers(Context& ctx, support::Tracer* tracer) {
  Replay out;
  for (std::size_t i = 0; i < ctx.items.size(); ++i) {
    const corpus::Pair& pair = ctx.items[i].pair;
    const auto arg = static_cast<std::int64_t>(i);
    core::VerificationReport report;
    {
      support::TraceSpan span(tracer, "core.verify_pair", arg);
      report = core::VerifyPair(pair, ctx.options);
    }
    if (!MatchesLabel(ctx.items[i], report)) {
      Fail(ctx, "replay: wrong verdict for pair " + std::to_string(pair.idx));
    }
    bool fuzzed = false;
    core::Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc,
                            ctx.options, pair.t_names);
    std::optional<octopocs::vm::FuncId> ep;
    {
      support::TraceSpan span(tracer, "core.discover_ep", arg);
      ep = pipeline.DiscoverEp();
    }
    if (ep && report.ep_in_t != octopocs::vm::kInvalidFunc) {
      octopocs::taint::ExtractionResult p1;
      {
        support::TraceSpan span(tracer, "taint.extract", arg);
        p1 = pipeline.ExtractPrimitives(*ep);
      }
      octopocs::cfg::CfgOptions cfg_options = ctx.options.cfg;
      if (ctx.options.poc_as_cfg_seed) cfg_options.seed_inputs.push_back(pair.poc);
      std::optional<octopocs::cfg::Cfg> graph;
      if (p1.Crashed() && !p1.bunches.empty()) {
        try {
          support::TraceSpan span(tracer, "cfg.build", arg);
          graph.emplace(octopocs::cfg::Cfg::Build(pair.t, cfg_options));
        } catch (const octopocs::cfg::CfgError&) {
          // The paper's Idx-15 row: the pipeline stops here too.
        }
      }
      if (graph) {
        std::optional<octopocs::cfg::DistanceMap> distances;
        {
          support::TraceSpan span(tracer, "cfg.reachability", arg);
          distances.emplace(graph->BackwardReachability(report.ep_in_t));
        }
        if (report.fuzz_attempted) {
          fuzzed = true;
          octopocs::fuzz::DirectedFuzzOptions fuzz;
          fuzz.max_execs = ctx.options.fuzz_execs;
          fuzz.rng_seed = ctx.options.fuzz_seed;
          for (const auto& bunch : p1.bunches) {
            for (const auto& [offset, value] : bunch.bytes) {
              fuzz.pinned_offsets.push_back(offset);
            }
          }
          octopocs::fuzz::DirectedFuzzResult run;
          {
            support::TraceSpan span(tracer, "fuzz.campaign", arg);
            run = octopocs::fuzz::RunDirectedFuzz(pair.t, report.ep_in_t,
                                                  *distances, pair.poc, fuzz);
          }
          out.fuzz_execs += run.execs;
          if (run.crash_found) ++out.fuzz_crashes;
        }
      }
    }
    if (report.poc_generated ||
        report.verdict == core::Verdict::kTriggeredByFuzzing) {
      support::TraceSpan span(tracer, "vm.p4", arg);
      out.p4_instructions +=
          octopocs::vm::RunProgram(pair.t, report.reformed_poc,
                                   ctx.options.verify_exec)
              .instructions;
    }
    out.reports.push_back(std::move(report));
    out.fuzzed.push_back(fuzzed);
  }
  return out;
}

void ReplayReportIo(const std::vector<core::VerificationReport>& reports,
                    support::Tracer* tracer) {
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto arg = static_cast<std::int64_t>(i);
    std::string json;
    {
      support::TraceSpan span(tracer, "report_io.serialize", arg);
      json = core::SerializeReport(reports[i]);
    }
    core::VerificationReport back;
    std::string error;
    support::TraceSpan span(tracer, "report_io.parse", arg);
    core::ParseReport(json, &back, &error);
  }
}

/// Every item once through WorkerPool::RunPair on a fresh pool of two,
/// from two closed-loop threads. Returns the summed retries.
std::uint64_t ReplayPool(Context& ctx, support::Tracer* tracer,
                         std::vector<double>* overhead_ms,
                         core::WorkerPool::Stats* stats) {
  core::IsolationOptions iso;
  iso.worker_binary = ctx.args.worker;
  iso.worker_args = GeneratedWorkerArgs(ctx.corpus_seed);
  iso.deadline_ms = 120000;
  core::WorkerPool pool(iso, 2);
  std::vector<core::SupervisedResult> results(ctx.items.size());
  ClosedLoop(PassOrder(ctx.items, ctx.args.seed), 2, [&](std::size_t, int i) {
    support::TraceSpan span(tracer, "pool.run_pair", i);
    results[static_cast<std::size_t>(i)] =
        pool.RunPair(ctx.items[static_cast<std::size_t>(i)].pair, nullptr);
  });
  *stats = pool.stats();
  std::uint64_t retries = 0;
  const auto walls = ByArg(CollectSpans(*tracer), "pool.run_pair");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SupervisedResult& r = results[i];
    retries += r.attempts > 0 ? r.attempts - 1 : 0;
    if (!MatchesLabel(ctx.items[i], r.report) ||
        VerdictBytes(r.report) != ctx.reference[i]) {
      Fail(ctx, "pool replay: pair " + std::to_string(ctx.items[i].pair.idx) +
                    " differs from in-process");
    }
    overhead_ms->push_back(walls.at(static_cast<std::int64_t>(i)) -
                           r.report.timings.total_seconds * 1e3);
  }
  return retries;
}

/// One in-process pass of another seed's corpus (two threads), for the
/// traffic report.
void OtherSeedTraffic(Context& ctx) {
  if (ctx.args.workload == "paper") {
    std::printf("\n(the paper pairs do not depend on the seed; the replay "
                "pass above is their second sample)\n");
    return;
  }
  const std::uint64_t seed = ctx.corpus_seed + 1;
  const std::vector<Item> items = BuildGeneratedItems(seed);
  std::vector<Sample> samples(items.size());
  ClosedLoop(PassOrder(items, ctx.args.seed), 2, [&](std::size_t, int i) {
    const double t0 = NowS();
    const core::VerificationReport r = core::VerifyPair(
        items[static_cast<std::size_t>(i)].pair, ctx.options);
    samples[static_cast<std::size_t>(i)] = {
        i, (NowS() - t0) * 1e3, r.timings.total_seconds * 1e3, true,
        MatchesLabel(items[static_cast<std::size_t>(i)], r)};
  });
  for (const Sample& s : samples) {
    if (!s.ok) {
      Fail(ctx, "other seed: wrong verdict for pair " +
                    std::to_string(items[static_cast<std::size_t>(s.item)].pair.idx));
    }
  }
  PrintTraffic("corpus seed " + std::to_string(seed) + " (one in-process pass)",
               items, samples);
}

}  // namespace

void LayerMetrics(Context& ctx, const Window& untraced, const Window& traced,
                  support::Tracer& tracer, Metrics* out) {
  const auto put = [out](const char* name, double value, const char* unit) {
    (*out)[name] = {value, unit};
  };

  // Set-up parts, median over the run's set-ups.
  put("corpus.build_ms", Median(ctx.corpus_build_ms), "ms");
  put("gen.generate_ms", Median(ctx.gen_ms), "ms");
  put("serve.start_ms", Median(ctx.serve_start_ms), "ms");
  put("pool.warmup_ms", Median(ctx.pool_warmup_ms), "ms");

  std::vector<double> yardstick_wall, yardstick_cpu;
  for (const Window* w : {&untraced, &traced}) {
    for (const Yardstick& y : w->yardstick) {
      yardstick_wall.push_back(y.wall_ms);
      yardstick_cpu.push_back(y.cpu_ms);
    }
  }
  put("host.yardstick_ms", Median(yardstick_wall), "ms");
  put("host.yardstick_cpu_ms", Median(yardstick_cpu), "ms");

  // Tracing overhead: the same loop with and without window spans.
  const double vps_untraced =
      Ratio(static_cast<double>(untraced.samples.size()), untraced.wall_s);
  const double vps_traced =
      Ratio(static_cast<double>(traced.samples.size()), traced.wall_s);
  put("trace.verdicts_per_s_untraced", vps_untraced, "1/s");
  put("trace.verdicts_per_s_traced", vps_traced, "1/s");
  put("trace.overhead_pct",
      vps_traced > 0 ? (vps_untraced / vps_traced - 1) * 100 : 0, "%");

  // The daemon, from the traced window's request spans. A disk hit
  // returns the cold run's stored timings, so self time (span wall
  // minus the report's total_seconds) is taken on cold requests only.
  std::vector<double> cold, warm, cold_self;
  const Spans window_spans = CollectSpans(tracer);
  const auto requests = window_spans.find("serve.request");
  for (const auto& [arg, ms] :
       requests == window_spans.end() ? Spans::mapped_type{} : requests->second) {
    const Sample& s = traced.samples[static_cast<std::size_t>(arg)];
    if (s.cold) {
      cold.push_back(ms);
      cold_self.push_back(ms - s.pipeline_ms);
    } else {
      warm.push_back(ms);
    }
  }
  const LayerCounts& c = ctx.counts;
  put("serve.cold_ms", Median(cold), "ms");
  put("serve.warm_ms", Median(warm), "ms");
  put("serve.cold_overhead_ms", Median(cold_self), "ms");
  put("serve.disk_hit_rate",
      Ratio(static_cast<double>(c.disk_hits),
            static_cast<double>(c.warm_requests)),
      "ratio");
  put("serve.disk_stores",
      Ratio(static_cast<double>(c.disk_stores), c.serve_rounds),
      "count");
  put("serve.shed", static_cast<double>(c.shed), "count");
  put("artifact.mem_hit_rate",
      Ratio(static_cast<double>(c.memory.hits),
            static_cast<double>(c.memory.hits + c.memory.misses)),
      "ratio");

  // The in-process layers: one replay pass over the workload's corpus.
  const double replay_start = NowS();
  const Replay replay = ReplayLayers(ctx, &tracer);
  ReplayReportIo(replay.reports, &tracer);
  std::vector<double> pool_overhead;
  core::WorkerPool::Stats pool_stats;
  std::uint64_t pool_retries = 0;
  if (ctx.args.workload == "isolated") {
    pool_retries = ReplayPool(ctx, &tracer, &pool_overhead, &pool_stats);
  }
  const Spans spans = CollectSpans(tracer);
  std::printf("\nlayer replays: %.2f s outside the timed windows\n",
              NowS() - replay_start);

  put("core.discover_ep_ms", MeanMs(spans, "core.discover_ep"), "ms");
  put("taint.extract_ms", MeanMs(spans, "taint.extract"), "ms");
  put("cfg.build_ms", MeanMs(spans, "cfg.build"), "ms");
  put("cfg.reachability_ms", MeanMs(spans, "cfg.reachability"), "ms");
  put("vm.p4_ms", MeanMs(spans, "vm.p4"), "ms");
  double p4_total_ms = 0;
  for (const auto& [arg, ms] : ByArg(spans, "vm.p4")) p4_total_ms += ms;
  put("vm.instructions_per_us",
      Ratio(static_cast<double>(replay.p4_instructions), p4_total_ms * 1e3),
      "1/us");
  put("fuzz.campaign_ms", MeanMs(spans, "fuzz.campaign"), "ms");
  put("fuzz.execs", static_cast<double>(replay.fuzz_execs), "count");
  put("fuzz.execs_per_crash",
      Ratio(static_cast<double>(replay.fuzz_execs),
            static_cast<double>(replay.fuzz_crashes)),
      "count");
  put("report_io.serialize_us", MeanMs(spans, "report_io.serialize") * 1e3,
      "us");
  put("report_io.parse_us", MeanMs(spans, "report_io.parse") * 1e3, "us");
  put("pool.overhead_ms", Median(pool_overhead), "ms");
  put("pool.spawns", static_cast<double>(pool_stats.spawns), "count");
  put("pool.respawns", static_cast<double>(pool_stats.respawns), "count");
  put("pool.retries", static_cast<double>(pool_retries), "count");

  // SymexStats exist only in process: summed over the replay pass.
  double queries = 0, fresh = 0, steps = 0, exact = 0, reuse = 0,
         subsumed = 0, intern_hits = 0, intern_nodes = 0, instructions = 0,
         states = 0, symex_s = 0, p23_ms = 0, p1_bytes = 0;
  std::uint64_t peak_states = 0, peak_bytes = 0;
  int p23_pairs = 0;
  for (const core::VerificationReport& r : replay.reports) {
    const auto& s = r.symex_stats;
    queries += static_cast<double>(s.solver_cache_hits + s.solver_cache_misses);
    fresh += static_cast<double>(s.solver_cache_misses);
    steps += static_cast<double>(s.solver_steps);
    exact += static_cast<double>(s.solver_exact_hits);
    reuse += static_cast<double>(s.solver_model_reuse_hits);
    subsumed += static_cast<double>(s.solver_subsumption_hits);
    intern_hits += static_cast<double>(s.expr_intern_hits);
    intern_nodes += static_cast<double>(s.expr_intern_nodes);
    instructions += static_cast<double>(s.instructions);
    states += static_cast<double>(s.states_created);
    symex_s += s.elapsed_seconds;
    peak_states = std::max(peak_states, s.peak_live_states);
    peak_bytes = std::max(peak_bytes, s.peak_memory_bytes);
    p1_bytes += static_cast<double>(r.crash_primitive_bytes);
    if (r.timings.p23_seconds > 0) {
      p23_ms += r.timings.p23_seconds * 1e3;
      ++p23_pairs;
    }
  }
  put("taint.primitive_bytes", p1_bytes, "count");
  put("symex.solver_queries", queries, "count");
  put("symex.solver_fresh_solves", fresh, "count");
  put("symex.solver_steps", steps, "count");
  put("symex.exact_hit_rate", Ratio(exact, queries), "ratio");
  put("symex.model_reuse_rate", Ratio(reuse, queries), "ratio");
  put("symex.subsumption_rate", Ratio(subsumed, queries), "ratio");
  put("symex.intern_hit_rate", Ratio(intern_hits, intern_hits + intern_nodes),
      "ratio");
  put("symex.p23_ms", Ratio(p23_ms, p23_pairs), "ms");
  put("symex.instructions", instructions, "count");
  put("symex.ns_per_instruction", Ratio(symex_s * 1e9, instructions), "ns");
  put("symex.states_created", states, "count");
  put("symex.peak_live_states", static_cast<double>(peak_states), "count");
  put("symex.peak_memory_mb", static_cast<double>(peak_bytes) / (1 << 20),
      "MiB");

  // Accounting: the timed layer calls plus P2/P3 (CFG build included)
  // against VerifyPair wall time, pair by pair. The fuzz phase's own
  // distance map is a second BackwardReachability outside P2/P3.
  const auto verify = ByArg(spans, "core.verify_pair");
  const auto ep = ByArg(spans, "core.discover_ep");
  const auto p1 = ByArg(spans, "taint.extract");
  const auto reach = ByArg(spans, "cfg.reachability");
  const auto fuzz = ByArg(spans, "fuzz.campaign");
  const auto p4 = ByArg(spans, "vm.p4");
  const auto at = [](const std::map<std::int64_t, double>& m, std::int64_t k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  double covered = 0, wall = 0;
  for (std::size_t i = 0; i < replay.reports.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    wall += at(verify, k);
    covered += at(ep, k) + at(p1, k) + at(p4, k) +
               replay.reports[i].timings.p23_seconds * 1e3;
    if (replay.fuzzed[i]) covered += at(reach, k) + at(fuzz, k);
  }
  put("trace.layer_coverage", Ratio(covered, wall), "ratio");
  std::printf("layer accounting: %.1f of %.1f ms VerifyPair wall (%.1f%%) "
              "lands in timed layer calls plus P2/P3\n",
              covered, wall, 100 * Ratio(covered, wall));

  // Traffic of the replay pass, then of one other seed.
  std::vector<Sample> replay_samples;
  for (const auto& [k, ms] : verify) {
    replay_samples.push_back({static_cast<int>(k), ms, 0, true, true});
  }
  PrintTraffic("replay pass, run seed", ctx.items, replay_samples);
  OtherSeedTraffic(ctx);
}

}  // namespace perfbench
