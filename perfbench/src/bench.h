// Verdict benchmark: shared types for the workload runners, the
// outside-in layer replays and the report printer.
//
// The benchmark drives the library only through its public API, from
// the outside: it times whole verdicts (VerifyPair, Server requests,
// pooled worker runs) in a closed loop, and in a separate traced run it
// replays each public layer call under support::Tracer spans opened
// here, never inside the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "corpus/pairs.h"

namespace octopocs::support {
class Tracer;
}

namespace perfbench {

namespace core = octopocs::core;
namespace corpus = octopocs::corpus;
namespace support = octopocs::support;

struct Args {
  std::string workload;  // paper | generated | serve | isolated
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string worker;    // octopocs CLI, the isolated workload's worker
};

/// One pair of a workload with the label its verdict must equal.
struct Item {
  corpus::Pair pair;
  /// Traffic class: "pair N" on paper, vuln_class x mutation on
  /// generated corpora.
  std::string cls;
  /// Cost class used to stratify generated corpora: fuel-loop,
  /// symex-hostile or plain ("paper" on the paper corpus).
  std::string cost;
  bool paper = false;
  corpus::ExpectedResult expected_type = corpus::ExpectedResult::kTypeI;
  core::Verdict expected_verdict = core::Verdict::kTriggered;
};

/// One verdict measured in a timed window.
struct Sample {
  int item = 0;
  double ms = 0;           // wall time to the verdict, caller side
  double pipeline_ms = 0;  // the report's own total_seconds, in ms
  bool cold = true;        // serve: first ask of the pair in its round
  bool ok = true;          // label, identity and transport all held
};

/// One run of the host-speed yardstick (see RunYardstick), in wall
/// time and in the thread's CPU time.
struct Yardstick {
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// A closed-loop timed window (possibly several rounds).
struct Window {
  std::vector<Sample> samples;
  double wall_s = 0;  // summed pass time, set-up and teardown excluded
  double cpu_ms = 0;  // self plus reaped children
  int attempted = 0;
  int failed = 0;
  /// Host-speed yardstick samples taken between chunks of the window,
  /// outside its clocks.
  std::vector<Yardstick> yardstick;
  /// serve: per chunk of a round, the share of the host's CPU time it
  /// stole from this VM while the chunk ran (/proc/stat), and the index
  /// one past the chunk's last sample.
  std::vector<double> chunk_steal;
  std::vector<std::size_t> chunk_end;
};

/// Per-layer counters the runners collect outside the timed clock.
struct LayerCounts {
  // ServeStats deltas over the timed passes.
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_stores = 0;
  std::uint64_t shed = 0;
  core::ArtifactStore::Stats memory;
  int serve_rounds = 0;
  std::uint64_t warm_requests = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything one run owns.
struct Context {
  Args args;
  std::uint64_t corpus_seed = 1;  // generator seed derived from --seed
  std::vector<Item> items;
  core::PipelineOptions options;
  /// Serialized verdict-bearing bytes of the in-process reference run,
  /// per item (serve and isolated compare against these).
  std::vector<std::string> reference;
  /// One sample per set-up, at the reference host speed (each scaled by
  /// the median wall time of the yardstick samples taken just before
  /// it), and as measured.
  std::vector<double> setup_s, setup_raw_s;
  // Set-up parts, ms, one sample per set-up.
  std::vector<double> corpus_build_ms, gen_ms, serve_start_ms, pool_warmup_ms;
  LayerCounts counts;
  double worker_rss_mb = 0;  // largest pool worker's VmHWM (isolated)
  bool correct = true;
  std::vector<std::string> errors;  // first few correctness failures
};

// -- clocks and resources ------------------------------------------------------

double NowS();
double SelfCpuMs();
double ChildrenCpuMs();
/// The process's peak RSS (VmHWM), MiB. Unlike getrusage's ru_maxrss,
/// which survives execve and so starts at the launcher's peak, it
/// belongs to the address space exec created.
double SelfPeakRssMb();
/// The largest VmHWM among this process's live children, MiB.
double ChildrenPeakRssMb();

/// Times a fixed kernel of dependent loads over an L2-sized table and a
/// sort, code no module of the program runs, as the measure of host
/// speed: in wall time, which also holds time the VM is kept off a CPU,
/// for the wall-clock metrics, and in the thread's CPU time, which
/// follows only clock speed and cache contention, for the CPU metric.
Yardstick RunYardstick();
/// The yardstick's time on the 4-vCPU 2.1 GHz Xeon VM the bounds were
/// tuned on. End-to-end times are reported at that speed.
inline constexpr double kYardstickReferenceMs = 16.5;

// -- inputs (inputs.cpp) -------------------------------------------------------

/// Pairs 1-22 with their Table II or extended expectation.
std::vector<Item> BuildPaperItems();
/// A stratified generated corpus: fixed counts per cost class, filled
/// in ordinal order from GenerateCorpus(seed, ...).
std::vector<Item> BuildGeneratedItems(std::uint64_t seed);
/// The soak's rung configuration the generator's labels are certified
/// against.
core::PipelineOptions GeneratedOptions();
std::vector<std::string> GeneratedWorkerArgs(std::uint64_t seed);
bool MatchesLabel(const Item& item, const core::VerificationReport& report);
/// SerializeReport with the wall-clock timings zeroed.
std::string VerdictBytes(core::VerificationReport report);
/// Records a correctness failure (keeps the first few messages).
void Fail(Context& ctx, const std::string& message);

// -- workloads (workloads.cpp) -------------------------------------------------

/// Calls fn(k, order[k]) for every k, on `clients` threads that each
/// take the next index as soon as their previous call returns.
template <typename Fn>
void ClosedLoop(const std::vector<int>& order, unsigned clients, Fn fn) {
  std::atomic<std::size_t> next{0};
  const auto body = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= order.size()) return;
      fn(k, order[k]);
    }
  };
  if (clients <= 1) {
    body();
    return;
  }
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(body);
  for (std::thread& t : threads) t.join();
}

/// One pass over the items: the costliest class first, seed-shuffled
/// within each class.
std::vector<int> PassOrder(const std::vector<Item>& items, std::uint64_t seed);

/// Builds the inputs; times the in-process set-up (paper, generated).
void Prepare(Context& ctx);
/// Runs closed-loop verdicts for about `seconds`. A non-null tracer
/// wraps each verdict call in a benchmark-side span.
Window RunWindow(Context& ctx, double seconds, support::Tracer* tracer);

// -- layer replays (layers.cpp) ------------------------------------------------

/// The traced run's per-layer metrics: outside-in replays of every
/// public layer call, set-up parts and the runners' counters.
void LayerMetrics(Context& ctx, const Window& untraced, const Window& traced,
                  support::Tracer& tracer, Metrics* out);

// -- report (report.cpp) -------------------------------------------------------

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Prints the share of verdict time per traffic class.
void PrintTraffic(const std::string& title, const std::vector<Item>& items,
                  const std::vector<Sample>& samples);
/// The tail percentile: the highest with at least ten samples beyond
/// it. Prints its neighbours and flags a step between classes.
double TailMs(const std::vector<Item>& items, const std::vector<Sample>& samples);
void EndToEndMetrics(const Context& ctx, const Window& window, Metrics* out);
void PrintResult(const Context& ctx, const Window& window,
                 const Metrics& metrics);

}  // namespace perfbench
