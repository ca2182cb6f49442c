// Serve-mode bench: sustained request throughput and latency against an
// in-process `octopocs serve` daemon, cold (fresh artifact cache) and
// warm (daemon restarted on the populated cache), plus an overload leg
// that drives a deliberately tiny queue past saturation to show
// bounded latency with explicit sheds instead of collapse.
//
//   bench_serve [--smoke] [--passes N] [--out FILE]
//
// --passes sets how many times the warm leg replays the 15-pair corpus
// (default 20, --smoke forces 3). Results are merged into FILE
// (default BENCH_perf.json): existing non-serve fields are preserved,
// previous serve_* fields are replaced.
//
// Three measurements:
//   cold        one pass over the 15 corpus pairs against an empty
//               on-disk cache — every request runs the full pipeline
//               and persists its report. p50/p99 per-request latency
//               and requests/sec.
//   warm        the daemon is torn down and restarted on the same
//               cache directory (the crash-recovery path), then
//               replays the corpus N times — every request must be a
//               disk hit. Sustained requests/sec and p50/p99.
//   overload    workers=1, queue_depth=2, and bursts of concurrent
//               clients requesting the slowest pair. The queue bound
//               keeps served-request latency flat; the surplus is
//               answered RETRY_AFTER immediately. Every request in the
//               burst gets an answer — shed or served, never hung.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/server.h"

using namespace octopocs;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PercentileMs(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (samples[lo] * (1 - frac) + samples[hi] * frac) * 1000.0;
}

std::string UniqueSuffix() {
  return std::to_string(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Replaces the serve_* fields inside an existing flat JSON object
/// (BENCH_perf.json as written by bench_perf) without disturbing the
/// other fields; writes a fresh object when the file does not exist.
bool MergeServeFields(const std::string& path, const std::string& fields) {
  std::string body;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      body = ss.str();
    }
  }
  std::string kept;
  if (!body.empty()) {
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("\"serve_") != std::string::npos) continue;
      if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
      if (line.find_first_of('}') != std::string::npos &&
          line.find_first_not_of(" }\r") == std::string::npos) {
        continue;  // the closing brace; re-added below
      }
      kept += line;
      kept += '\n';
    }
    // The now-last field line needs a trailing comma before our block.
    const std::size_t last = kept.find_last_not_of(" \t\r\n");
    if (last != std::string::npos && kept[last] != '{' && kept[last] != ',') {
      kept = kept.substr(0, last + 1) + "," + kept.substr(last + 1);
    }
  }
  if (kept.empty()) kept = "{\n";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kept << fields << "}\n";
  return true;
}

struct LegResult {
  double seconds = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t requests = 0;
};

/// One sequential pass-set over the corpus against a running server.
LegResult DriveCorpus(const std::string& socket_path, int passes,
                      bool* all_ok) {
  LegResult leg;
  std::vector<double> latencies;
  const auto start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (int idx = 1; idx <= 15; ++idx) {
      core::ServeRequest request;
      request.pair = idx;
      const auto t0 = Clock::now();
      const core::ClientResult result = core::SendRequest(socket_path, request);
      latencies.push_back(SecondsSince(t0));
      if (!result.ok) {
        std::fprintf(stderr, "request pair %d failed: %s %s\n", idx,
                     result.error.code.c_str(),
                     result.transport_error.c_str());
        *all_ok = false;
      }
    }
  }
  leg.seconds = SecondsSince(start);
  leg.requests = latencies.size();
  leg.rps = leg.seconds > 0
                ? static_cast<double>(leg.requests) / leg.seconds
                : 0;
  leg.p50_ms = PercentileMs(latencies, 50);
  leg.p99_ms = PercentileMs(latencies, 99);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef _WIN32
  std::printf("bench_serve: the serve daemon requires POSIX; skipping\n");
  return 0;
#else
  bool smoke = false;
  int passes = 20;
  std::string out_path = "BENCH_perf.json";
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--smoke") {
      smoke = true;
    } else if (args.flag() == "--passes") {
      passes = static_cast<int>(args.Count(1, 1'000'000));
    } else if (args.flag() == "--out") {
      out_path = args.Value();
    } else {
      args.Unknown();
    }
  }
  if (smoke) passes = 3;

  const std::string suffix = UniqueSuffix();
  const std::string socket_path = "/tmp/octopocs_bench_" + suffix + ".sock";
  const std::string cache_dir = "/tmp/octopocs_bench_cache_" + suffix;
  bool all_ok = true;

  // -- Cold: fresh cache, every request runs the pipeline -------------------
  LegResult cold;
  {
    core::ServeOptions options;
    options.socket_path = socket_path;
    options.workers = 2;
    options.queue_depth = 32;
    options.cache_dir = cache_dir;
    core::Server server(options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "cold server failed to start: %s\n", error.c_str());
      return 1;
    }
    cold = DriveCorpus(socket_path, 1, &all_ok);
    server.Drain();
    const core::ServeStats stats = server.stats();
    std::printf("cold:     %llu req in %.3f s (%.1f req/s)  p50 %.2f ms  "
                "p99 %.2f ms  (%llu persisted)\n",
                static_cast<unsigned long long>(cold.requests), cold.seconds,
                cold.rps, cold.p50_ms, cold.p99_ms,
                static_cast<unsigned long long>(stats.disk_stores));
  }

  // -- Warm: daemon restarted on the populated cache ------------------------
  LegResult warm;
  std::uint64_t warm_disk_hits = 0;
  std::uint64_t warm_loaded = 0;
  {
    core::ServeOptions options;
    options.socket_path = socket_path;
    options.workers = 2;
    options.queue_depth = 32;
    options.cache_dir = cache_dir;
    core::Server server(options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "warm server failed to start: %s\n", error.c_str());
      return 1;
    }
    warm_loaded = server.disk_store()->stats().loaded_records;
    warm = DriveCorpus(socket_path, passes, &all_ok);
    server.Drain();
    warm_disk_hits = server.stats().disk_hits;
    std::printf("warm:     %llu req in %.3f s (%.1f req/s)  p50 %.2f ms  "
                "p99 %.2f ms  (%llu loaded, %llu disk hits)\n",
                static_cast<unsigned long long>(warm.requests), warm.seconds,
                warm.rps, warm.p50_ms, warm.p99_ms,
                static_cast<unsigned long long>(warm_loaded),
                static_cast<unsigned long long>(warm_disk_hits));
  }

  // -- Overload: tiny queue, concurrent burst, explicit sheds ---------------
  std::uint64_t burst_served = 0, burst_shed = 0, burst_unanswered = 0;
  double overload_p99_ms = 0;
  {
    const std::string overload_socket =
        "/tmp/octopocs_bench_ov_" + suffix + ".sock";
    core::ServeOptions options;
    options.socket_path = overload_socket;
    options.workers = 1;
    options.queue_depth = 2;
    core::Server server(options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "overload server failed to start: %s\n",
                   error.c_str());
      return 1;
    }
    // Pair 3 is the corpus's slowest pipeline run — it wedges the lone
    // worker long enough for the burst to overflow the queue.
    constexpr int kBurst = 8;
    std::vector<core::ClientResult> results(kBurst);
    std::vector<double> latencies(kBurst);
    std::vector<std::thread> clients;
    clients.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      clients.emplace_back([&, i] {
        core::ServeRequest request;
        request.pair = 3;
        const auto t0 = Clock::now();
        results[i] = core::SendRequest(overload_socket, request);
        latencies[i] = SecondsSince(t0);
      });
    }
    for (auto& t : clients) t.join();
    server.Drain();
    std::vector<double> served_latencies;
    for (int i = 0; i < kBurst; ++i) {
      if (results[i].ok) {
        ++burst_served;
        served_latencies.push_back(latencies[i]);
      } else if (results[i].error.code == "RETRY_AFTER") {
        ++burst_shed;
      } else {
        ++burst_unanswered;
      }
    }
    overload_p99_ms = PercentileMs(served_latencies, 99);
    std::printf("overload: burst of %d -> %llu served / %llu shed "
                "(served p99 %.2f ms, queue depth 2)\n",
                kBurst, static_cast<unsigned long long>(burst_served),
                static_cast<unsigned long long>(burst_shed), overload_p99_ms);
  }

  // -- Merge into the perf trajectory ---------------------------------------
  // serve_smoke only appears when the smoke leg actually ran: a full run
  // used to merge `serve_smoke: false` into the trajectory, which made
  // full-run JSONs diff against each other over a field that carries no
  // information there.
  char fields[1024];
  std::snprintf(
      fields, sizeof fields,
      "  \"serve_cold_rps\": %.1f,\n"
      "  \"serve_cold_p50_ms\": %.3f,\n"
      "  \"serve_cold_p99_ms\": %.3f,\n"
      "  \"serve_warm_rps\": %.1f,\n"
      "  \"serve_warm_p50_ms\": %.3f,\n"
      "  \"serve_warm_p99_ms\": %.3f,\n"
      "  \"serve_warm_requests\": %llu,\n"
      "  \"serve_warm_disk_hits\": %llu,\n"
      "  \"serve_overload_served\": %llu,\n"
      "  \"serve_overload_shed\": %llu,\n"
      "  \"serve_overload_p99_ms\": %.3f%s\n",
      cold.rps, cold.p50_ms, cold.p99_ms, warm.rps, warm.p50_ms, warm.p99_ms,
      static_cast<unsigned long long>(warm.requests),
      static_cast<unsigned long long>(warm_disk_hits),
      static_cast<unsigned long long>(burst_served),
      static_cast<unsigned long long>(burst_shed), overload_p99_ms,
      smoke ? ",\n  \"serve_smoke\": true" : "");
  if (MergeServeFields(out_path, fields)) {
    std::printf("merged serve fields into %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  // Hard gates: the warm restart must actually reuse the disk tier, the
  // overload burst must shed explicitly, and nothing may go unanswered.
  if (warm_loaded == 0 || warm_disk_hits != warm.requests) {
    std::printf("FAIL: warm pass was not served from the disk tier "
                "(%llu loaded, %llu/%llu hits)\n",
                static_cast<unsigned long long>(warm_loaded),
                static_cast<unsigned long long>(warm_disk_hits),
                static_cast<unsigned long long>(warm.requests));
    return 1;
  }
  if (burst_shed == 0) {
    std::printf("FAIL: the overload burst shed nothing — the queue bound "
                "did not engage\n");
    return 1;
  }
  if (burst_unanswered != 0) {
    std::printf("FAIL: %llu burst request(s) got no structured answer\n",
                static_cast<unsigned long long>(burst_unanswered));
    return 1;
  }
  if (!all_ok) {
    std::printf("FAIL: a sustained-leg request failed\n");
    return 1;
  }
  return 0;
#endif
}
