// Percentiles, the traffic report, the tail guard and the result line.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void PrintTraffic(const std::string& title, const std::vector<Item>& items,
                  const std::vector<Sample>& samples) {
  struct Row {
    double ms = 0;
    int n = 0;
  };
  std::map<std::string, Row> rows;
  double total = 0;
  for (const Sample& s : samples) {
    Row& row = rows[items[static_cast<std::size_t>(s.item)].cls];
    row.ms += s.ms;
    ++row.n;
    total += s.ms;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.ms > b.second.ms;
  });
  std::printf("\nshare of verdict time by class, %s (%zu verdicts, %.1f ms)\n",
              title.c_str(), samples.size(), total);
  std::printf("  %-32s %7s %6s %10s\n", "class", "share", "n", "mean ms");
  for (const auto& [cls, row] : sorted) {
    std::printf("  %-32s %6.2f%% %6d %10.3f\n", cls.c_str(),
                total > 0 ? 100 * row.ms / total : 0.0, row.n,
                row.ms / row.n);
  }
}

double TailMs(const std::vector<Item>& items,
              const std::vector<Sample>& samples) {
  std::vector<const Sample*> sorted;
  for (const Sample& s : samples) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const Sample* a, const Sample* b) { return a->ms < b->ms; });
  const std::size_t n = sorted.size();
  if (n == 0) return 0;
  if (n < 12) {
    std::printf("tail: only %zu verdicts, reporting the maximum\n", n);
    return sorted.back()->ms;
  }
  // Nearest rank n-10: exactly ten samples lie beyond it.
  const std::size_t k = n - 11;
  std::printf("\ntail: p%.2f (N=%zu, 10 beyond) = %.3f ms\n",
              100.0 * static_cast<double>(n - 10) / static_cast<double>(n), n,
              sorted[k]->ms);
  const auto cls = [&](std::size_t r) {
    return items[static_cast<std::size_t>(sorted[r]->item)].cls;
  };
  for (std::size_t r = k - 1; r <= k + 1; ++r) {
    std::printf("  rank %zu: %9.3f ms  pair %d (%s)\n", r + 1, sorted[r]->ms,
                items[static_cast<std::size_t>(sorted[r]->item)].pair.idx,
                cls(r).c_str());
  }
  for (std::size_t r = k - 1; r <= k; ++r) {
    if (cls(r) != cls(r + 1) && sorted[r + 1]->ms > 2 * sorted[r]->ms) {
      std::printf("  TAIL STEP: ranks %zu and %zu fall on a step between "
                  "'%s' and '%s' (%.1fx): the tail percentile is unsteady "
                  "here\n",
                  r + 1, r + 2, cls(r).c_str(), cls(r + 1).c_str(),
                  sorted[r + 1]->ms / sorted[r]->ms);
    }
  }
  return sorted[k]->ms;
}

namespace {

/// The verdict times the median is taken over. On serve, the quietest
/// quarter of the chunks by host steal: a warm request is three thread
/// hand-offs around ~0.4 ms of work, and in chunks where the host stole
/// a few percent of the VM's CPU time its latency rose about nine times
/// as much as the steal share, which no yardstick sees. Elsewhere,
/// every verdict.
std::vector<double> MedianSamples(const Window& window) {
  std::vector<double> ms;
  if (window.chunk_steal.empty()) {
    for (const Sample& s : window.samples) ms.push_back(s.ms);
    return ms;
  }
  std::vector<std::size_t> chunks(window.chunk_steal.size());
  std::iota(chunks.begin(), chunks.end(), 0);
  std::stable_sort(chunks.begin(), chunks.end(),
                   [&](std::size_t a, std::size_t b) {
                     return window.chunk_steal[a] < window.chunk_steal[b];
                   });
  chunks.resize((chunks.size() + 3) / 4);
  for (const std::size_t c : chunks) {
    for (std::size_t k = c == 0 ? 0 : window.chunk_end[c - 1];
         k < window.chunk_end[c]; ++k) {
      ms.push_back(window.samples[k].ms);
    }
  }
  std::printf("\nhost steal: median %.2f%% per chunk; the median verdict is "
              "taken over the quietest quarter, %.2f%% at most (%zu of %zu "
              "chunks, %zu verdicts)\n",
              100 * Median(window.chunk_steal),
              100 * window.chunk_steal[chunks.back()], chunks.size(),
              window.chunk_steal.size(), ms.size());
  return ms;
}

}  // namespace

void EndToEndMetrics(const Context& ctx, const Window& window, Metrics* out) {
  const std::vector<double> ms = MedianSamples(window);
  const double n = static_cast<double>(window.samples.size());
  const double raw_setup = Median(ctx.setup_raw_s);
  const double raw_vps = window.wall_s > 0 ? n / window.wall_s : 0;
  const double raw_p50 = Median(ms);
  const double raw_tail = TailMs(ctx.items, window.samples);
  const double raw_cpu = n > 0 ? window.cpu_ms / n : 0;
  // Times are reported at the reference host speed: the host's speed
  // drifts over tens of seconds, and the yardstick, sampled between
  // chunks of this very window, moves with it. Each metric is scaled by
  // the yardstick in its own clock: wall-clock metrics by its wall time,
  // which holds the time the VM is kept off a CPU as they do, and the
  // CPU metric by its thread CPU time, which does not. Set-up times
  // carry their own yardstick samples.
  std::vector<double> wall_ms, cpu_ms;
  for (const Yardstick& y : window.yardstick) {
    wall_ms.push_back(y.wall_ms);
    cpu_ms.push_back(y.cpu_ms);
  }
  const double wall_yardstick =
      wall_ms.empty() ? kYardstickReferenceMs : Median(wall_ms);
  const double cpu_yardstick =
      cpu_ms.empty() ? kYardstickReferenceMs : Median(cpu_ms);
  const double scale = kYardstickReferenceMs / wall_yardstick;
  const double cpu_scale = kYardstickReferenceMs / cpu_yardstick;
  std::printf("\nhost yardstick: median %.3f ms wall, %.3f ms thread CPU "
              "over %zu samples (reference %.1f ms); wall-clock times scaled "
              "by %.4f, CPU time by %.4f\n",
              wall_yardstick, cpu_yardstick, wall_ms.size(),
              kYardstickReferenceMs, scale, cpu_scale);
  std::printf("unscaled: setup_s %.6f verdicts_per_s %.4f verdict_p50_ms "
              "%.4f verdict_tail_ms %.3f cpu_ms_per_verdict %.4f\n",
              raw_setup, raw_vps, raw_p50, raw_tail, raw_cpu);
  (*out)["setup_s"] = {Median(ctx.setup_s), "s"};
  (*out)["verdicts_per_s"] = {raw_vps / scale, "1/s"};
  (*out)["verdict_p50_ms"] = {raw_p50 * scale, "ms"};
  (*out)["verdict_tail_ms"] = {raw_tail * scale, "ms"};
  (*out)["cpu_ms_per_verdict"] = {raw_cpu * cpu_scale, "ms"};
  (*out)["peak_rss_mb"] = {ctx.args.workload == "isolated"
                               ? ctx.worker_rss_mb
                               : SelfPeakRssMb(),
                           "MiB"};
  (*out)["verified_share"] = {
      window.attempted > 0
          ? 1.0 - static_cast<double>(window.failed) / window.attempted
          : 0,
      "ratio"};
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void PrintResult(const Context& ctx, const Window& window,
                 const Metrics& metrics) {
  std::printf("\n%s, seed %llu: %d verdicts, %d failed (failed_share %.6f)\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed), window.attempted,
              window.failed,
              window.attempted > 0
                  ? static_cast<double>(window.failed) / window.attempted
                  : 0.0);
  for (const std::string& e : ctx.errors) std::printf("  FAILED: %s\n", e.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("  %-32s %14.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ctx.correct && window.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(window.attempted);
  json += ", \"failed\": " + std::to_string(window.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
