// Soak bench: generation rate of the synthetic pair generator and
// sustained verification throughput of the chaos soak's in-process legs
// (batch, chains, serve daemon under a full fault schedule) at a corpus
// size the unit tests never reach.
//
//   bench_soak [--smoke] [--pairs N] [--seed N] [--out FILE]
//
// --pairs sets the corpus size (default 300 — the scale target from
// ROADMAP item 1; --smoke forces 48). Results land in FILE (default
// BENCH_soak.json).
//
// Hard gates (exit 1): any soak invariant violation, any label
// mismatch, or two same-seed generator manifests that are not
// byte-identical. The bench is the scale proof, not just a stopwatch.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "bench_util.h"
#include "core/server.h"
#include "gen/generator.h"
#include "gen/soak.h"

using namespace octopocs;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string UniqueDir() {
  const std::string dir =
      "/tmp/octopocs_bench_soak_" +
      std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now().time_since_epoch())
                         .count());
  return dir;
}

std::string Manifest(std::uint64_t seed, int pairs) {
  std::string out;
  for (const gen::GeneratedPair& g : gen::GenerateCorpus(seed, pairs)) {
    out += gen::DescribeGeneratedPair(g);
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef _WIN32
  std::printf("bench_soak: the soak harness requires POSIX; skipping\n");
  return 0;
#else
  bool smoke = false;
  int pairs = 300;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_soak.json";
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--smoke") {
      smoke = true;
    } else if (args.flag() == "--pairs") {
      pairs = static_cast<int>(args.Count(1, 1'000'000));
    } else if (args.flag() == "--seed") {
      seed = args.Count(0, std::numeric_limits<std::uint64_t>::max());
    } else if (args.flag() == "--out") {
      out_path = args.Value();
    } else {
      args.Unknown();
    }
  }
  if (smoke) pairs = 48;

  // -- Generation rate + determinism gate -------------------------------------
  const auto gen_start = Clock::now();
  const std::string manifest_a = Manifest(seed, pairs);
  const double gen_seconds = SecondsSince(gen_start);
  const std::string manifest_b = Manifest(seed, pairs);
  const bool deterministic = manifest_a == manifest_b;
  const double gen_rate =
      gen_seconds > 0 ? static_cast<double>(pairs) / gen_seconds : 0;
  std::printf("gen:      %d pair(s) in %.3f s (%.1f pairs/s)  "
              "second run %s\n",
              pairs, gen_seconds, gen_rate,
              deterministic ? "byte-identical" : "DIVERGED");

  // -- In-process soak legs under chaos ---------------------------------------
  gen::SoakOptions options;
  options.seed = seed;
  options.pairs = pairs;
  options.jobs = 4;
  options.chaos = true;
  options.workdir = UniqueDir();
  // The bench binary is not the CLI, so the worker/daemon subprocess
  // legs (which spawn `octopocs`) stay with `octopocs soak`; the
  // in-process legs carry the scale measurement.
  options.run_isolated = false;
  options.run_resume = false;
  options.run_rlimit = false;
  options.run_daemon = false;
  std::string mkdir_cmd = "mkdir -p " + options.workdir;
  if (std::system(mkdir_cmd.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", options.workdir.c_str());
    return 1;
  }
  core::SetGenPairLoader(&gen::LoadGeneratedPair);

  const auto soak_start = Clock::now();
  const gen::SoakReport report = gen::RunSoak(options);
  const double soak_seconds = SecondsSince(soak_start);
  // Batch + serve both verify every pair; chains add their hop-2 runs.
  const int verified = 2 * pairs + report.chains_verified;
  const double soak_rate =
      soak_seconds > 0 ? static_cast<double>(verified) / soak_seconds : 0;
  std::printf("soak:     %d verification(s) in %.3f s (%.1f pairs/s)  "
              "%d label match(es)  %d chain(s)  %d fault(s) armed  "
              "%llu shed\n",
              verified, soak_seconds, soak_rate, report.label_matches,
              report.chains_verified, report.chaos_faults_armed,
              static_cast<unsigned long long>(report.server_sheds));
  for (const std::string& v : report.violations) {
    std::printf("violation: %s\n", v.c_str());
  }

  {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "  \"soak_pairs\": %d,\n"
                  "  \"soak_gen_pairs_per_s\": %.1f,\n"
                  "  \"soak_verify_pairs_per_s\": %.1f,\n"
                  "  \"soak_label_matches\": %d,\n"
                  "  \"soak_chains_verified\": %d,\n"
                  "  \"soak_violations\": %zu%s\n"
                  "}\n",
                  pairs, gen_rate, soak_rate, report.label_matches,
                  report.chains_verified, report.violations.size(),
                  smoke ? ",\n  \"soak_smoke\": true" : "");
    out << buf;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Hard gates: this is a correctness proof at scale, not a stopwatch.
  if (!deterministic) {
    std::printf("FAIL: same-seed manifests diverged\n");
    return 1;
  }
  if (!report.ok()) {
    std::printf("FAIL: %zu soak invariant violation(s)\n",
                report.violations.size());
    return 1;
  }
  if (report.label_matches != pairs) {
    std::printf("FAIL: %d/%d labels matched\n", report.label_matches, pairs);
    return 1;
  }
  return 0;
#endif
}
