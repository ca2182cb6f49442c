// The four workloads' set-up and closed-loop timed windows.
//
//   paper      pairs 1-22, in process, serial, default PipelineOptions
//   generated  a stratified generated corpus, in process, serial, with
//              the soak's rung options
//   serve      the same corpus through an in-process core::Server, two
//              closed-loop clients over core::SendRequest; each round
//              asks every pair cold, then at once twice warm from the
//              disk tier
//   isolated   the same corpus through VerifyCorpus over a WorkerPool
//              of two pre-forked workers
//
// Set-up is timed apart from the verdicts, and everything that is not
// the program's own set-up (reference runs, warm-up requests, drain,
// teardown, file removal, host-speed yardstick samples) sits outside
// both clocks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/parallel_verify.h"
#include "core/server.h"
#include "core/supervisor.h"
#include "gen/generator.h"
#include "support/trace.h"

namespace perfbench {

namespace {

constexpr unsigned kClients = 2;  // closed-loop client threads
constexpr unsigned kWorkers = 2;  // daemon worker threads / pool size
/// In-process set-ups timed per run (serve and isolated set up once
/// per round instead).
constexpr int kInProcessSetups = 7;
/// Untimed warm-up before the first in-process window, seconds.
constexpr double kWarmupSeconds = 1.0;
/// Warm asks per cold ask in a serve round. With one, the median
/// verdict would sit on the seam between the slowest warm and the
/// fastest cold request; with two it is the warm requests' 75th
/// percentile.
constexpr int kWarmAsks = 2;
/// Chunks per serve or isolated round (see RunServe).
constexpr int kRoundChunks = 8;
/// In-process windows take a yardstick sample after this much work, s.
constexpr double kYardstickEvery = 0.5;
/// Client-side bound on one request, ms.
constexpr std::uint64_t kRequestTimeoutMs = 120000;

/// A run does a fixed amount of work for a given --seconds, so its
/// verdict count, and with it the tail percentile, is the same in every
/// run: passes (or rounds) = seconds / the nominal time of one on a
/// 4-vCPU 2.1 GHz Xeon VM. A run that takes three times as long as
/// asked stops early.
int Repeats(const Context& ctx, double seconds) {
  const std::string& wl = ctx.args.workload;
  const double nominal = wl == "paper"       ? 1.0
                         : wl == "generated" ? 5.0
                         : wl == "serve"     ? 5.0
                                             : 2.5;
  return std::max(1, static_cast<int>(std::lround(seconds / nominal)));
}

bool KeepGoing(int done, int repeats, double start, double seconds) {
  return done < repeats && (done == 0 || NowS() - start < 3 * seconds);
}

double TvMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// VmHWM from a /proc/<pid>/status file, MiB; 0 if it has none.
double VmHwmMb(const std::filesystem::path& status) {
  std::ifstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Steal and total CPU time of the whole VM so far, in ticks.
struct HostTicks {
  double steal = 0, total = 0;
};

HostTicks ReadHostTicks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  HostTicks ticks;
  in >> label;
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// The median wall time of a few yardstick samples, the factor a set-up
/// is scaled by.
double SetupYardstickMs() {
  return Median({RunYardstick().wall_ms, RunYardstick().wall_ms,
                 RunYardstick().wall_ms});
}

rusage Usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru;
}

std::string Describe(const Item& item, const core::VerificationReport& r) {
  return "pair " + std::to_string(item.pair.idx) + " (" + item.cls +
         "): got " + std::string(core::VerdictName(r.verdict)) + "/" +
         std::string(core::ResultTypeName(r.type)) +
         (r.detail.empty() ? "" : " [" + r.detail + "]");
}

/// Label check plus, when a reference exists, byte identity with the
/// in-process report. Records the failure and returns false on mismatch.
bool Check(Context& ctx, int i, const core::VerificationReport& report,
           const char* where) {
  const Item& item = ctx.items[static_cast<std::size_t>(i)];
  if (!MatchesLabel(item, report)) {
    Fail(ctx, std::string(where) + ": wrong verdict, " +
                  Describe(item, report));
    return false;
  }
  if (!ctx.reference.empty() &&
      VerdictBytes(report) != ctx.reference[static_cast<std::size_t>(i)]) {
    Fail(ctx, std::string(where) + ": report bytes differ from in-process, " +
                  Describe(item, report));
    return false;
  }
  return true;
}

std::mutex g_fail_mu;  // Check() from client threads

bool CheckLocked(Context& ctx, int i, const core::VerificationReport& report,
                 const char* where) {
  std::lock_guard<std::mutex> lock(g_fail_mu);
  return Check(ctx, i, report, where);
}

void FailLocked(Context& ctx, const std::string& message) {
  std::lock_guard<std::mutex> lock(g_fail_mu);
  Fail(ctx, message);
}

void RecordSetup(Context& ctx, double seconds, double yardstick_ms) {
  ctx.setup_raw_s.push_back(seconds);
  ctx.setup_s.push_back(seconds * kYardstickReferenceMs / yardstick_ms);
}

void Append(Window& w, const std::vector<Sample>& pass) {
  for (const Sample& s : pass) {
    ++w.attempted;
    if (!s.ok) ++w.failed;
    w.samples.push_back(s);
  }
}

// -- in process ----------------------------------------------------------------

Window RunInProcess(Context& ctx, double seconds, support::Tracer* tracer) {
  // Serial, so no LPT order: each pass is shuffled afresh, which spreads
  // the cheap pairs that set the median over the whole window instead
  // of one burst of a few milliseconds at the end of each pass.
  std::vector<int> order(ctx.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(ctx.args.seed);
  Window w;
  const double cpu0 = SelfCpuMs();
  const double start = NowS();
  const int repeats = Repeats(ctx, seconds);
  double yardstick_wall_s = 0, yardstick_cpu_ms = 0, last_sample = 0;
  for (int rep = 0; KeepGoing(rep, repeats, start, seconds); ++rep) {
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<Sample> pass(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (NowS() - last_sample >= kYardstickEvery) {
        const double y0 = NowS(), ycpu0 = SelfCpuMs();
        w.yardstick.push_back(RunYardstick());
        last_sample = NowS();
        yardstick_wall_s += last_sample - y0;
        yardstick_cpu_ms += SelfCpuMs() - ycpu0;
      }
      const int i = order[k];
      const double t0 = NowS();
      core::VerificationReport report;
      {
        support::TraceSpan span(
            tracer, "window.verify_pair",
            static_cast<std::int64_t>(w.samples.size() + k));
        report = core::VerifyPair(ctx.items[static_cast<std::size_t>(i)].pair,
                                  ctx.options);
      }
      pass[k] = {i, (NowS() - t0) * 1e3, report.timings.total_seconds * 1e3,
                 true, Check(ctx, i, report, "in-process")};
    }
    Append(w, pass);
  }
  w.wall_s = NowS() - start - yardstick_wall_s;
  w.cpu_ms = SelfCpuMs() - cpu0 - yardstick_cpu_ms;
  return w;
}

// -- serve ---------------------------------------------------------------------

core::ServeRequest Request(int pair, std::uint64_t gen_seed) {
  const core::PipelineOptions options = GeneratedOptions();
  core::ServeRequest request;
  request.pair = pair;
  request.gen_seed = gen_seed;
  request.fuzz_fallback = options.fuzz_fallback;
  request.fuzz_seed = options.fuzz_seed;
  request.fuzz_execs = options.fuzz_execs;
  return request;
}

Window RunServe(Context& ctx, double seconds, support::Tracer* tracer) {
  Window w;
  static int round = 0;
  const double start = NowS();
  const int repeats = Repeats(ctx, seconds);
  for (int rep = 0; KeepGoing(rep, repeats, start, seconds); ++rep) {
    const std::string tag = std::to_string(round++);
    const std::string socket_path = "serve-" + tag + ".sock";
    const std::string cache_dir = "serve-cache-" + tag;

    // Set-up: the corpus, then a daemon with a fresh disk tier.
    const double yardstick = SetupYardstickMs();
    const double t0 = NowS();
    ctx.items = BuildGeneratedItems(ctx.corpus_seed);
    const double t1 = NowS();
    core::ArtifactStore store;
    core::ServeOptions so;
    so.socket_path = socket_path;
    so.cache_dir = cache_dir;
    so.workers = kWorkers;
    so.pipeline = ctx.options;
    so.pipeline.artifacts = &store;
    core::Server server(std::move(so));
    std::string error;
    const bool started = server.Start(&error);
    const double t2 = NowS();
    if (!started) {
      Fail(ctx, "serve: daemon would not start: " + error);
      return w;
    }
    ctx.gen_ms.push_back((t1 - t0) * 1e3);
    ctx.serve_start_ms.push_back((t2 - t1) * 1e3);
    RecordSetup(ctx, t2 - t0, yardstick);

    // Untimed warm-up: one request per worker thread, for paper pairs
    // that are not in the corpus, so first-use costs stay out.
    ClosedLoop({1, 2}, kClients, [&](std::size_t, int pair) {
      const core::ClientResult r =
          core::SendRequest(socket_path, Request(pair, 0), kRequestTimeoutMs);
      if (!r.ok) FailLocked(ctx, "serve: warm-up request failed");
    });
    const core::ServeStats stats0 = server.stats();
    const core::ArtifactStore::Stats mem0 = store.stats();

    // Each client asks a pair cold and then at once twice warm, so warm
    // requests are spread over the whole round, not packed into a burst
    // that one moment of host noise can cover. The round is walked in
    // chunks, each holding every cost class in LPT order, with a
    // yardstick sample between them.
    const std::vector<int> order = PassOrder(ctx.items, ctx.args.seed);
    constexpr int kAsks = 1 + kWarmAsks;
    for (int chunk = 0; chunk < kRoundChunks; ++chunk) {
      std::vector<int> part;
      for (std::size_t k = static_cast<std::size_t>(chunk); k < order.size();
           k += kRoundChunks) {
        part.push_back(order[k]);
      }
      w.yardstick.push_back(RunYardstick());
      std::vector<Sample> pass(part.size() * kAsks);
      const std::size_t base = w.samples.size();
      const HostTicks ticks0 = ReadHostTicks();
      const double cpu0 = SelfCpuMs();
      const double p0 = NowS();
      ClosedLoop(part, kClients, [&](std::size_t k, int i) {
        const core::ServeRequest request =
            Request(ctx.items[static_cast<std::size_t>(i)].pair.idx,
                    ctx.corpus_seed);
        for (int ask = 0; ask < kAsks; ++ask) {
          const std::size_t slot = k * kAsks + static_cast<std::size_t>(ask);
          const double a = NowS();
          core::ClientResult r;
          {
            support::TraceSpan span(tracer, "serve.request",
                                    static_cast<std::int64_t>(base + slot));
            r = core::SendRequest(socket_path, request, kRequestTimeoutMs);
          }
          Sample s{i, (NowS() - a) * 1e3,
                   r.report.timings.total_seconds * 1e3, ask == 0, false};
          if (!r.ok) {
            FailLocked(ctx, "serve: pair " + std::to_string(request.pair) +
                                " not answered: " +
                                (r.transport_error.empty()
                                     ? r.error.code + " " + r.error.detail
                                     : r.transport_error));
          } else {
            s.ok = CheckLocked(ctx, i, r.report, "serve");
          }
          pass[slot] = s;
        }
      });
      w.wall_s += NowS() - p0;
      w.cpu_ms += SelfCpuMs() - cpu0;
      const HostTicks ticks1 = ReadHostTicks();
      w.chunk_steal.push_back((ticks1.steal - ticks0.steal) /
                              std::max(1.0, ticks1.total - ticks0.total));
      Append(w, pass);
      w.chunk_end.push_back(w.samples.size());
    }

    // Teardown, untimed. Drain joins the daemon's threads, so the
    // counters below include each request's bookkeeping, which a worker
    // finishes after its response is already on the wire.
    server.Drain();
    const core::ServeStats stats = server.stats();
    ctx.counts.disk_hits += stats.disk_hits - stats0.disk_hits;
    ctx.counts.disk_stores += stats.disk_stores - stats0.disk_stores;
    ctx.counts.shed += stats.shed - stats0.shed;
    const core::ArtifactStore::Stats mem = store.stats();
    ctx.counts.memory.hits += mem.hits - mem0.hits;
    ctx.counts.memory.misses += mem.misses - mem0.misses;
    ctx.counts.warm_requests += order.size() * kWarmAsks;
    ++ctx.counts.serve_rounds;
    std::filesystem::remove_all(cache_dir);
  }
  return w;
}

// -- isolated ------------------------------------------------------------------

Window RunIsolated(Context& ctx, double seconds, support::Tracer* tracer) {
  Window w;
  core::IsolationOptions iso;
  iso.worker_binary = ctx.args.worker;
  iso.worker_args = GeneratedWorkerArgs(ctx.corpus_seed);
  iso.deadline_ms = kRequestTimeoutMs;
  const double start = NowS();
  const int repeats = Repeats(ctx, seconds);
  for (int rep = 0; KeepGoing(rep, repeats, start, seconds); ++rep) {
    const double children_cpu0 = ChildrenCpuMs();

    // Set-up: the corpus, then the pool until its first worker answers.
    const double yardstick = SetupYardstickMs();
    const double t0 = NowS();
    ctx.items = BuildGeneratedItems(ctx.corpus_seed);
    const double t1 = NowS();
    auto pool = std::make_unique<core::WorkerPool>(iso, kWorkers);
    int warm = 0;
    while (ctx.items[static_cast<std::size_t>(warm)].cost != "plain") ++warm;
    std::mutex ready_mu;
    double first_ready = 0;
    // Both workers warm concurrently; the rest of the warm-up is untimed.
    ClosedLoop({warm, warm}, kWorkers, [&](std::size_t, int i) {
      const core::SupervisedResult r =
          pool->RunPair(ctx.items[static_cast<std::size_t>(i)].pair, nullptr);
      std::lock_guard<std::mutex> lock(ready_mu);
      if (first_ready == 0) first_ready = NowS();
      Check(ctx, i, r.report, "isolated warm-up");
    });
    ctx.gen_ms.push_back((t1 - t0) * 1e3);
    ctx.pool_warmup_ms.push_back((first_ready - t1) * 1e3);
    RecordSetup(ctx, first_ready - t0, yardstick);

    // No journal: its two fsyncs per pair put the disk's latency on
    // every verdict (see README.md, "fsync").
    core::CorpusRunConfig config;
    config.jobs = 1;
    config.isolation = &iso;
    config.worker_pool = pool.get();
    // Each client hands VerifyCorpus one pair at a time, which is how
    // the verdict clock sees each pair; two clients sharing the pool
    // schedule exactly like VerifyCorpus with two jobs.
    std::vector<std::vector<corpus::Pair>> single;
    for (const Item& item : ctx.items) single.push_back({item.pair});

    // Chunked like a serve round, with a yardstick sample between
    // chunks while the pool is idle.
    const std::vector<int> order = PassOrder(ctx.items, ctx.args.seed);
    for (int chunk = 0; chunk < kRoundChunks; ++chunk) {
      std::vector<int> part;
      for (std::size_t k = static_cast<std::size_t>(chunk); k < order.size();
           k += kRoundChunks) {
        part.push_back(order[k]);
      }
      w.yardstick.push_back(RunYardstick());
      std::vector<Sample> pass(part.size());
      const std::size_t base = w.samples.size();
      const double cpu0 = SelfCpuMs();
      const double p0 = NowS();
      ClosedLoop(part, kClients, [&](std::size_t k, int i) {
        const double a = NowS();
        std::vector<core::VerificationReport> reports;
        {
          support::TraceSpan span(tracer, "pool.verify_corpus",
                                  static_cast<std::int64_t>(base + k));
          reports = core::VerifyCorpus(single[static_cast<std::size_t>(i)],
                                       ctx.options, config);
        }
        const core::VerificationReport& r = reports.front();
        pass[k] = {i, (NowS() - a) * 1e3, r.timings.total_seconds * 1e3, true,
                   CheckLocked(ctx, i, r, "isolated")};
      });
      w.wall_s += NowS() - p0;
      w.cpu_ms += SelfCpuMs() - cpu0;
      Append(w, pass);
    }

    // Teardown, untimed. The workers' peak RSS is read while they are
    // alive; destroying the pool reaps them, which is when their CPU time
    // (spawn and warm-up included) becomes visible.
    ctx.worker_rss_mb = std::max(ctx.worker_rss_mb, ChildrenPeakRssMb());
    pool.reset();
    w.cpu_ms += ChildrenCpuMs() - children_cpu0;
  }
  return w;
}

}  // namespace

Yardstick RunYardstick() {
  // A random single-cycle permutation of 64K entries (256 KiB, L2-sized)
  // chased for 40 laps, then a sort of 8K keys. Built once; no call
  // allocates afterwards, so the program's heap and the process's
  // thread count leave the yardstick alone, and one warm-up lap refills
  // whatever the program evicted from the cache.
  struct State {
    std::vector<std::uint32_t> next;
    std::vector<std::uint64_t> keys, work;
  };
  static State state = [] {
    State st;
    std::mt19937_64 rng(42);
    st.next.resize(1u << 16);
    std::iota(st.next.begin(), st.next.end(), 0u);
    for (std::size_t i = st.next.size() - 1; i > 0; --i) {
      std::swap(st.next[i], st.next[rng() % i]);  // Sattolo: one cycle
    }
    st.keys.resize(1u << 13);
    for (std::uint64_t& k : st.keys) k = rng();
    st.work.reserve(st.keys.size());
    return st;
  }();
  static std::atomic<std::uint64_t> sink{0};
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < state.next.size(); ++i) p = state.next[p];
  const double t0 = NowS(), cpu0 = ThreadCpuS();
  for (std::size_t i = 0; i < 40 * state.next.size(); ++i) p = state.next[p];
  state.work.assign(state.keys.begin(), state.keys.end());
  std::sort(state.work.begin(), state.work.end());
  sink.fetch_add(p + state.work[p % state.work.size()],
                 std::memory_order_relaxed);
  return {(NowS() - t0) * 1e3, (ThreadCpuS() - cpu0) * 1e3};
}


std::vector<int> PassOrder(const std::vector<Item>& items,
                           std::uint64_t seed) {
  // The costliest class first, seed-shuffled within each class, so two
  // parallel clients finish a pass together (the LPT order VerifyCorpus's
  // cost hints give).
  std::mt19937_64 rng(seed);
  std::vector<int> order;
  for (const char* cost : {"paper", "fuel-loop", "symex-hostile", "plain"}) {
    std::vector<int> group;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].cost == cost) group.push_back(static_cast<int>(i));
    }
    std::shuffle(group.begin(), group.end(), rng);
    order.insert(order.end(), group.begin(), group.end());
  }
  return order;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SelfCpuMs() {
  const rusage ru = Usage(RUSAGE_SELF);
  return TvMs(ru.ru_utime) + TvMs(ru.ru_stime);
}

double ChildrenCpuMs() {
  const rusage ru = Usage(RUSAGE_CHILDREN);
  return TvMs(ru.ru_utime) + TvMs(ru.ru_stime);
}

double SelfPeakRssMb() { return VmHwmMb("/proc/self/status"); }


double ChildrenPeakRssMb() {
  // Field 4 of /proc/<pid>/stat is the parent pid; the command name
  // before it sits in parentheses and may hold spaces.
  const std::string self = std::to_string(getpid());
  double peak = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 1));
    std::string state, ppid;
    fields >> state >> ppid;
    if (ppid == self) peak = std::max(peak, VmHwmMb(entry.path() / "status"));
  }
  return peak;
}

void Prepare(Context& ctx) {
  const std::string& wl = ctx.args.workload;
  if (wl == "paper" || wl == "generated") {
    for (int rep = 0; rep < kInProcessSetups; ++rep) {
      const double yardstick = SetupYardstickMs();
      const double t0 = NowS();
      ctx.items = wl == "paper" ? BuildPaperItems()
                                : BuildGeneratedItems(ctx.corpus_seed);
      const double dt = NowS() - t0;
      RecordSetup(ctx, dt, yardstick);
      (wl == "paper" ? ctx.corpus_build_ms : ctx.gen_ms).push_back(dt * 1e3);
    }
    if (wl == "generated") ctx.options = GeneratedOptions();
    // Untimed warm-up, verdicts checked.
    const double start = NowS();
    for (std::size_t i = 0; i < ctx.items.size(); ++i) {
      Check(ctx, static_cast<int>(i),
            core::VerifyPair(ctx.items[i].pair, ctx.options), "warm-up");
      if (NowS() - start > kWarmupSeconds) break;
    }
    return;
  }

  // serve, isolated: the in-process reference every served or pooled
  // report must equal byte for byte (untimed, two jobs).
  core::SetGenPairLoader(&octopocs::gen::LoadGeneratedPair);
  ctx.options = GeneratedOptions();
  ctx.items = BuildGeneratedItems(ctx.corpus_seed);
  std::vector<corpus::Pair> pairs;
  for (const Item& item : ctx.items) pairs.push_back(item.pair);
  const auto reports = core::VerifyCorpus(pairs, ctx.options, kWorkers);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    Check(ctx, static_cast<int>(i), reports[i], "in-process reference");
  }
  for (const core::VerificationReport& r : reports) {
    ctx.reference.push_back(VerdictBytes(r));
  }
}

Window RunWindow(Context& ctx, double seconds, support::Tracer* tracer) {
  if (ctx.args.workload == "serve") return RunServe(ctx, seconds, tracer);
  if (ctx.args.workload == "isolated") {
    return RunIsolated(ctx, seconds, tracer);
  }
  return RunInProcess(ctx, seconds, tracer);
}

}  // namespace perfbench
