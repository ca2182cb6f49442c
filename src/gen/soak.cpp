#include "gen/soak.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/artifact_disk.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "core/server.h"
#include "core/supervisor.h"
#include "gen/generator.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/subprocess.h"
#include "support/trace.h"

namespace octopocs::gen {
namespace {

void Violate(SoakReport* report, std::string message) {
  report->violations.push_back(std::move(message));
}

void SkipLeg(SoakReport* report, const char* leg, const char* why) {
  report->skipped_legs.push_back(std::string(leg) + ": " + why);
}

/// The timing-free shape of one verdict: everything two same-seed runs
/// (or a cold and a warm daemon) must agree on byte-for-byte.
std::string CanonicalLine(const GeneratedPair& g,
                          const core::VerificationReport& r) {
  return "pair " + std::to_string(g.pair.idx) + " " + g.skeleton + "/" +
         g.vuln_class + "/" + g.mutation +
         " expect=" + std::string(core::VerdictName(g.expected_verdict)) +
         " got=" + std::string(core::VerdictName(r.verdict)) + "/" +
         std::string(core::ResultTypeName(r.type));
}

/// Every leg verifies under the same rung configuration the generator's
/// labels were certified against: fuzz fallback on, pinned seed 1, the
/// soak's exec budget.
core::PipelineOptions BasePipeline(const SoakOptions& o) {
  core::PipelineOptions opts;
  opts.fuzz_fallback = true;
  opts.fuzz_seed = 1;
  opts.fuzz_execs = o.fuzz_execs;
  return opts;
}

/// Worker-side flags reproducing BasePipeline inside a pool-worker
/// process.
std::vector<std::string> WorkerArgs(const SoakOptions& o) {
  return {"--gen-seed",   std::to_string(o.seed),
          "--fuzz-fallback",
          "--fuzz-seed",  "1",
          "--fuzz-execs", std::to_string(o.fuzz_execs)};
}

struct LegSpan {
  LegSpan(support::Tracer* tracer, int leg) : tracer_(tracer), leg_(leg) {
    if (tracer_ != nullptr) tracer_->Begin("soak_leg", leg_);
  }
  ~LegSpan() {
    if (tracer_ != nullptr) tracer_->End("soak_leg", leg_);
  }
  support::Tracer* tracer_;
  int leg_;
};

void CountVerified(const SoakOptions& o, int total) {
  if (o.tracer != nullptr) o.tracer->Counter("soak.pairs_verified", total);
}

// -- Leg A: in-process parallel batch -----------------------------------------

void RunBatchLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                 std::vector<core::VerificationReport>* reports,
                 SoakReport* report, int* verified) {
  LegSpan span(o.tracer, 1);
  std::vector<corpus::Pair> pairs;
  pairs.reserve(gen.size());
  for (const GeneratedPair& g : gen) pairs.push_back(g.pair);
  core::CorpusRunConfig config;
  config.jobs = o.jobs;
  *reports = core::VerifyCorpus(pairs, BasePipeline(o), config);
  ++report->legs_run;
  if (reports->size() != pairs.size()) {
    Violate(report, "batch: " + std::to_string(reports->size()) +
                        " verdicts for " + std::to_string(pairs.size()) +
                        " pairs (exactly-once violated)");
    return;
  }
  for (std::size_t i = 0; i < gen.size(); ++i) {
    const std::string line = CanonicalLine(gen[i], (*reports)[i]);
    report->canonical.push_back(line);
    if ((*reports)[i].verdict == gen[i].expected_verdict) {
      ++report->label_matches;
    } else {
      Violate(report, "batch: label mismatch: " + line +
                          " detail: " + (*reports)[i].detail);
    }
  }
  *verified += static_cast<int>(gen.size());
  CountVerified(o, *verified);
}

// -- Leg B: transitive S→T→U chains -------------------------------------------

void RunChainLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                 const std::vector<core::VerificationReport>& batch,
                 SoakReport* report, int* verified) {
  LegSpan span(o.tracer, 2);
  ++report->legs_run;
  int failures = 0;
  for (std::size_t i = 0; i + 1 < gen.size(); ++i) {
    if (gen[i].chain_hop != 1 || gen[i + 1].chain_hop != 2) continue;
    core::VerificationReport hop1;
    if (i < batch.size()) {
      hop1 = batch[i];
    } else {
      hop1 = core::VerifyPair(gen[i].pair, BasePipeline(o));
      ++*verified;
    }
    if (hop1.verdict != core::Verdict::kTriggered ||
        hop1.reformed_poc.empty()) {
      ++failures;
      Violate(report, "chain: hop 1 (pair " + std::to_string(gen[i].pair.idx) +
                          ") produced no reformed poc");
      continue;
    }
    // The reformed poc' proven against T is the evidence for the T→U
    // hop — the transitive propagation claim from the paper.
    corpus::Pair second = gen[i + 1].pair;
    second.poc = hop1.reformed_poc;
    const core::VerificationReport hop2 =
        core::VerifyPair(second, BasePipeline(o));
    ++*verified;
    if (hop2.verdict != core::Verdict::kTriggered) {
      ++failures;
      Violate(report, "chain: hop 2 (pair " + std::to_string(second.idx) +
                          ") verdict " +
                          std::string(core::VerdictName(hop2.verdict)) +
                          " on the reformed poc: " + hop2.detail);
    } else {
      ++report->chains_verified;
    }
  }
  if (static_cast<int>(gen.size()) >= 16 && report->chains_verified == 0 &&
      failures == 0) {
    Violate(report, "chain: no chain found in a corpus of " +
                        std::to_string(gen.size()));
  }
  CountVerified(o, *verified);
}

// -- Legs C/D: pooled workers over the report cache, then a rerun -----------

void RunIsolatedLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                    const std::string& cache_dir, SoakReport* report,
                    int* verified) {
  LegSpan span(o.tracer, 3);
  std::vector<corpus::Pair> pairs;
  pairs.reserve(gen.size());
  for (const GeneratedPair& g : gen) pairs.push_back(g.pair);

  core::IsolationOptions iso;
  iso.worker_binary = o.worker_binary;
  iso.worker_args = WorkerArgs(o);
  iso.max_retries = 3;
  iso.deadline_ms = 120000;
  if (o.chaos) {
    // One worker process SIGABRTs mid-pair at a pipeline fault site
    // chosen by the seed; the stamp file makes it happen exactly once,
    // and the supervisor's respawn-and-retry must absorb it without
    // losing or duplicating the pair.
    const auto site = static_cast<support::FaultSite>(o.seed % 5);
    iso.worker_args.push_back("--abort-fault");
    iso.worker_args.push_back(std::string(support::FaultSiteName(site)) +
                              ":0:" + o.workdir + "/abort.stamp");
    ++report->chaos_faults_armed;
  }

  // A fresh cache: a workdir reused from an earlier soak must not turn
  // this leg's pool run into a replay.
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  std::string err;
  auto cache = core::DiskArtifactStore::Open(cache_dir, &err);
  if (cache == nullptr) {
    Violate(report, "isolated: cannot open the cache: " + err);
    return;
  }
  core::CorpusRunConfig config;
  config.jobs = o.jobs;
  config.isolation = &iso;
  config.cache = cache.get();
  const auto reports = core::VerifyCorpus(pairs, BasePipeline(o), config);
  cache.reset();  // close + final fsync before reopening it
  ++report->legs_run;

  if (reports.size() != pairs.size()) {
    Violate(report, "isolated: verdict count mismatch");
    return;
  }
  for (std::size_t i = 0; i < gen.size(); ++i) {
    if (reports[i].verdict != gen[i].expected_verdict) {
      Violate(report, "isolated: " + CanonicalLine(gen[i], reports[i]) +
                          " detail: " + reports[i].detail);
    }
  }
  *verified += static_cast<int>(gen.size());
  CountVerified(o, *verified);

  // Nothing lost, proven from the durable record: every pair's key is
  // stored (Put never stores a key twice), and the clean close left no
  // torn record for the reopen to heal.
  cache = core::DiskArtifactStore::Open(cache_dir, &err);
  if (cache == nullptr) {
    Violate(report, "isolated: cache unreadable after the run: " + err);
    return;
  }
  if (cache->stats().healed_records != 0) {
    Violate(report, "isolated: torn cache record after a clean close");
  }
  for (const corpus::Pair& p : pairs) {
    if (!cache->Contains(core::ReportKey(p, BasePipeline(o)))) {
      Violate(report, "isolated: pair " + std::to_string(p.idx) +
                          " lost from the cache");
    }
  }
}

void RunResumeLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                  const std::string& cache_dir, SoakReport* report) {
  LegSpan span(o.tracer, 4);
  std::vector<corpus::Pair> pairs;
  pairs.reserve(gen.size());
  for (const GeneratedPair& g : gen) pairs.push_back(g.pair);
  std::string err;
  auto cache = core::DiskArtifactStore::Open(cache_dir, &err);
  if (cache == nullptr) {
    Violate(report, "resume: cannot open the cache: " + err);
    return;
  }

  core::IsolationOptions iso;
  iso.worker_binary = o.worker_binary;
  iso.worker_args = WorkerArgs(o);
  iso.deadline_ms = 120000;
  core::WorkerPool pool(iso, o.jobs);
  core::CorpusRunConfig config;
  config.jobs = o.jobs;
  config.isolation = &iso;
  config.worker_pool = &pool;
  config.cache = cache.get();
  const auto reports = core::VerifyCorpus(pairs, BasePipeline(o), config);
  ++report->legs_run;

  // A warm rerun replays, it does not re-run: with every pair already
  // stored, the pool must never have been handed work.
  report->resume_dispatches = pool.stats().dispatches;
  if (report->resume_dispatches != 0) {
    Violate(report, "resume: " + std::to_string(report->resume_dispatches) +
                        " pair(s) re-dispatched on a fully stored cache");
  }
  for (std::size_t i = 0; i < gen.size() && i < reports.size(); ++i) {
    if (reports[i].verdict != gen[i].expected_verdict) {
      Violate(report, "resume: replayed verdict drifted: " +
                          CanonicalLine(gen[i], reports[i]));
    }
  }
}

// -- Leg E: the resource hog vs RLIMIT_CPU ------------------------------------

void RunRlimitLeg(const SoakOptions& o, SoakReport* report) {
  LegSpan span(o.tracer, 5);
  const GeneratedPair hog = BuildHogPair(o.seed);
  core::IsolationOptions iso;
  iso.worker_binary = o.worker_binary;
  // A fuzz budget no campaign against a guarded+hostile T can spend:
  // the worker burns its whole CPU allowance mutating rejected inputs.
  iso.worker_args = {"--gen-seed", std::to_string(o.seed), "--fuzz-fallback",
                     "--fuzz-execs", "2000000000"};
  iso.max_retries = 1;
  iso.cpu_seconds = 1;
  iso.deadline_ms = 30000;
  // RLIMIT_CPU counts over a worker's whole life, so the hog gets a
  // fresh one-slot pool: its cap is then a per-pair cap.
  const core::SupervisedResult sr =
      core::WorkerPool(iso, 1).RunPair(hog.pair, nullptr);
  ++report->legs_run;
  if (sr.quarantined) ++report->quarantines;
  const bool killed = sr.last_outcome == core::ChildOutcome::kResourceKill ||
                      sr.last_outcome == core::ChildOutcome::kTimeout;
  if (!killed) {
    Violate(report,
            "rlimit: hog pair ended as " +
                std::string(core::ChildOutcomeName(sr.last_outcome)) +
                " instead of a resource kill");
  }
  // The one verdict a killed worker may produce is the contained
  // infrastructure failure — anything decisive would be a lie.
  if (sr.report.verdict != core::Verdict::kFailure) {
    Violate(report, "rlimit: hog pair got decisive verdict " +
                        std::string(core::VerdictName(sr.report.verdict)));
  }
  if (report->quarantines > 1) {
    Violate(report, "rlimit: quarantines not bounded: " +
                        std::to_string(report->quarantines));
  }
}

// -- Legs F/G: the daemon under chaos and under SIGKILL -----------------------

struct ServedSlot {
  int count = 0;
  core::Verdict verdict = core::Verdict::kFailure;
  std::string line;
};

/// One client's unit of work: keep asking until a clean report arrives.
/// RETRY_AFTER sheds and transport failures (a daemon mid-restart) retry
/// inside SendRequestWithRetry; a contained/deadline report is transient
/// by definition (the server never caches one), so it is re-asked
/// outright.
bool ServeOnePair(const std::string& socket_path, const SoakOptions& o,
                  const GeneratedPair& g, core::VerificationReport* out,
                  std::atomic<int>* retries) {
  core::ServeRequest request;
  request.pair = g.pair.idx;
  request.gen_seed = o.seed;
  request.fuzz_fallback = true;
  request.fuzz_seed = 1;
  request.fuzz_execs = o.fuzz_execs;
  request.id = "soak";
  core::RetryPolicy policy;
  policy.max_retries = 40;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 400;
  policy.retry_transport = true;
  for (int resend = 0; resend < 8; ++resend) {
    int attempts = 0;
    const core::ClientResult result = core::SendRequestWithRetry(
        socket_path, request, 60000, policy, &attempts);
    retries->fetch_add(attempts - 1 + (resend != 0 ? 1 : 0),
                       std::memory_order_relaxed);
    if (result.ok && !result.report.exception_contained &&
        !result.report.deadline_expired) {
      *out = result.report;
      return true;
    }
  }
  return false;
}

void RunServeLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                 SoakReport* report, int* verified) {
  LegSpan span(o.tracer, 6);
  core::SetGenPairLoader(&LoadGeneratedPair);
  core::ServeOptions so;
  so.socket_path = o.workdir + "/soak.sock";
  so.cache_dir = o.workdir + "/serve-cache";
  so.workers = o.jobs;
  so.queue_depth = 4;  // small on purpose: shedding is part of the soak
  const std::string socket_path = so.socket_path;
  core::Server server(std::move(so));
  std::string err;
  if (!server.Start(&err)) {
    Violate(report, "serve: daemon would not start: " + err);
    return;
  }

  std::atomic<bool> done{false};
  std::atomic<int> retries{0};
  std::atomic<int> armed{0};
  std::thread chaos;
  if (o.chaos) {
    chaos = std::thread([&] {
      // Cycle through every fault site — admission, disk-store and
      // response writes included — on a seeded schedule. Each Arm is
      // one-shot, so this is a stream of isolated infrastructure
      // failures the daemon must absorb per-request.
      Rng rng(o.seed ^ 0x9e3779b97f4a7c15ULL);
      int i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto site = static_cast<support::FaultSite>(
            static_cast<std::size_t>(i) % support::kFaultSiteCount);
        support::fault::Arm(site, rng.Below(3));
        armed.fetch_add(1, std::memory_order_relaxed);
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      support::fault::Disarm();
    });
  }

  std::vector<ServedSlot> slots(gen.size());
  std::mutex mu;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> next{0};
  const unsigned nclients = std::max(1u, o.jobs);
  for (unsigned c = 0; c < nclients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= gen.size()) return;
        core::VerificationReport r;
        if (ServeOnePair(socket_path, o, gen[i], &r, &retries)) {
          std::lock_guard<std::mutex> lock(mu);
          ++slots[i].count;
          slots[i].verdict = r.verdict;
          slots[i].line = CanonicalLine(gen[i], r);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  if (chaos.joinable()) chaos.join();
  support::fault::Disarm();
  report->server_sheds += server.stats().shed;
  server.Drain();
  ++report->legs_run;
  report->chaos_faults_armed += armed.load(std::memory_order_relaxed);
  report->client_retries += retries.load(std::memory_order_relaxed);

  for (std::size_t i = 0; i < gen.size(); ++i) {
    if (slots[i].count != 1) {
      Violate(report, "serve: pair " + std::to_string(gen[i].pair.idx) +
                          " got " + std::to_string(slots[i].count) +
                          " verdicts under chaos");
    } else if (slots[i].verdict != gen[i].expected_verdict) {
      Violate(report, "serve: label mismatch: " + slots[i].line);
    }
  }
  *verified += static_cast<int>(gen.size());
  CountVerified(o, *verified);
}

void RunDaemonLeg(const SoakOptions& o, const std::vector<GeneratedPair>& gen,
                  SoakReport* report, int* verified) {
  LegSpan span(o.tracer, 7);
#ifdef _WIN32
  (void)gen;
  (void)verified;
  SkipLeg(report, "daemon", "requires POSIX");
  return;
#else
  const std::string sock = o.workdir + "/daemon.sock";
  const std::string cache = o.workdir + "/daemon-cache";
  support::PersistentProcess daemon;
  const auto spawn = [&]() -> bool {
    // A SIGKILL leaves the old socket file behind; unlink it so
    // readiness below really means the new daemon is listening.
    ::unlink(sock.c_str());
    std::string err;
    if (!daemon.Spawn({o.worker_binary, "serve", "--socket", sock,
                       "--cache-dir", cache, "--workers",
                       std::to_string(std::max(1u, o.jobs))},
                      support::SubprocessLimits{}, &err)) {
      return false;
    }
    for (int i = 0; i < 400; ++i) {
      if (::access(sock.c_str(), F_OK) == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };
  if (!spawn()) {
    Violate(report, "daemon: never became ready on " + sock);
    return;
  }

  std::atomic<int> retries{0};
  std::atomic<std::size_t> next{0};
  std::vector<ServedSlot> slots(gen.size());
  std::mutex mu;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < std::max(1u, o.jobs); ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= gen.size()) return;
        core::VerificationReport r;
        if (ServeOnePair(sock, o, gen[i], &r, &retries)) {
          std::lock_guard<std::mutex> lock(mu);
          ++slots[i].count;
          slots[i].verdict = r.verdict;
          slots[i].line = CanonicalLine(gen[i], r);
        }
      }
    });
  }
  // The kill happens mid-load: once the clients are past a checkpoint,
  // SIGKILL the daemon under them and bring a fresh one up on the same
  // cache dir. In-flight requests die with it; the clients' transport
  // retries ride through the dead window, and the restarted daemon's
  // disk tier must hand back the pre-kill verdicts unchanged.
  for (int kill = 0; kill < o.daemon_kills; ++kill) {
    const std::size_t checkpoint =
        (gen.size() * static_cast<std::size_t>(kill + 1)) /
        static_cast<std::size_t>(o.daemon_kills + 1);
    while (next.load(std::memory_order_relaxed) < checkpoint) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    daemon.Kill();
    ++report->daemon_restarts;
    if (!spawn()) {
      Violate(report, "daemon: restart " + std::to_string(kill + 1) +
                          " never became ready");
      break;
    }
  }
  for (std::thread& t : clients) t.join();
  ++report->legs_run;
  report->client_retries += retries.load(std::memory_order_relaxed);

  bool streamed_ok = true;
  for (std::size_t i = 0; i < gen.size(); ++i) {
    if (slots[i].count != 1) {
      streamed_ok = false;
      Violate(report, "daemon: pair " + std::to_string(gen[i].pair.idx) +
                          " got " + std::to_string(slots[i].count) +
                          " verdicts across the restart");
    } else if (slots[i].verdict != gen[i].expected_verdict) {
      Violate(report, "daemon: label mismatch: " + slots[i].line);
    }
  }
  *verified += static_cast<int>(gen.size());

  // Warm identity: re-ask the restarted daemon for every pair. Each
  // answer must be canonically byte-identical to the one streamed
  // around the kill — nothing lost, nothing duplicated, nothing
  // re-decided differently.
  if (streamed_ok) {
    for (std::size_t i = 0; i < gen.size(); ++i) {
      core::VerificationReport r;
      if (!ServeOnePair(sock, o, gen[i], &r, &retries)) {
        Violate(report, "daemon: warm re-request for pair " +
                            std::to_string(gen[i].pair.idx) + " failed");
        continue;
      }
      const std::string warm = CanonicalLine(gen[i], r);
      if (warm != slots[i].line) {
        Violate(report, "daemon: warm verdict drifted: streamed '" +
                            slots[i].line + "' vs warm '" + warm + "'");
      }
    }
    *verified += static_cast<int>(gen.size());
  }
  CountVerified(o, *verified);
  daemon.Kill();
#endif
}

}  // namespace

SoakReport RunSoak(const SoakOptions& options) {
  SoakReport report;
  report.pairs = options.pairs;
  int verified = 0;
  const bool have_workdir = !options.workdir.empty();
  const bool have_binary = !options.worker_binary.empty();
  try {
    std::vector<GeneratedPair> gen;
    if (options.tracer != nullptr) options.tracer->Begin("gen", options.pairs);
    gen = GenerateCorpus(options.seed, options.pairs);
    if (options.tracer != nullptr) options.tracer->End("gen", options.pairs);

    std::vector<core::VerificationReport> batch;
    if (options.run_batch) {
      RunBatchLeg(options, gen, &batch, &report, &verified);
    } else {
      SkipLeg(&report, "batch", "disabled");
    }
    if (options.run_chain) {
      RunChainLeg(options, gen, batch, &report, &verified);
    } else {
      SkipLeg(&report, "chain", "disabled");
    }

    const std::string cache_dir = options.workdir + "/corpus-cache";
    if (!options.run_isolated) {
      SkipLeg(&report, "isolated", "disabled");
    } else if (!have_workdir || !have_binary) {
      SkipLeg(&report, "isolated", "needs workdir + worker binary");
    } else {
      RunIsolatedLeg(options, gen, cache_dir, &report, &verified);
    }
    if (!options.run_resume) {
      SkipLeg(&report, "resume", "disabled");
    } else if (!have_workdir || !have_binary || !options.run_isolated) {
      SkipLeg(&report, "resume", "needs the isolated leg's cache");
    } else {
      RunResumeLeg(options, gen, cache_dir, &report);
    }
    if (!options.run_rlimit) {
      SkipLeg(&report, "rlimit", "disabled");
    } else if (!have_binary) {
      SkipLeg(&report, "rlimit", "needs worker binary");
    } else {
      RunRlimitLeg(options, &report);
    }
    if (!options.run_serve) {
      SkipLeg(&report, "serve", "disabled");
    } else if (!have_workdir) {
      SkipLeg(&report, "serve", "needs workdir");
    } else {
      RunServeLeg(options, gen, &report, &verified);
    }
    if (!options.run_daemon) {
      SkipLeg(&report, "daemon", "disabled");
    } else if (!have_workdir || !have_binary) {
      SkipLeg(&report, "daemon", "needs workdir + worker binary");
    } else {
      RunDaemonLeg(options, gen, &report, &verified);
    }
  } catch (const std::exception& e) {
    Violate(&report, std::string("soak: uncontained exception: ") + e.what());
  }
  std::sort(report.canonical.begin(), report.canonical.end());
  if (options.tracer != nullptr) {
    options.tracer->Counter(
        "soak.violations", static_cast<std::int64_t>(report.violations.size()));
  }
  return report;
}

std::string SerializeSoakReport(const SoakReport& report) {
  // Deterministic fields only: everything here must be byte-identical
  // across two same-seed soaks (CI diffs this text). Retry, shed and
  // chaos counts are timing-dependent and deliberately absent.
  std::string out = "soak-report v1\n";
  out += "pairs " + std::to_string(report.pairs) + "\n";
  out += "legs " + std::to_string(report.legs_run) + " skipped " +
         std::to_string(report.skipped_legs.size()) + "\n";
  out += "label-matches " + std::to_string(report.label_matches) + "\n";
  out += "chains-verified " + std::to_string(report.chains_verified) + "\n";
  for (const std::string& s : report.skipped_legs) out += "skip " + s + "\n";
  for (const std::string& line : report.canonical) out += line + "\n";
  out += "violations " + std::to_string(report.violations.size()) + "\n";
  for (const std::string& v : report.violations) out += "violation " + v + "\n";
  out += report.ok() ? "ok\n" : "FAILED\n";
  return out;
}

}  // namespace octopocs::gen
