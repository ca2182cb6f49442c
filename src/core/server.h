// The verification daemon behind `octopocs serve` (DESIGN.md §14).
//
// Batch `corpus` pays pipeline warmup (ep discovery, crash primitives,
// CFG edges) once per process and then dies with its caches. The server
// keeps a process alive: it accepts verification requests over a
// unix-domain socket, runs them through the same pipeline, and keeps
// both artifact tiers warm — the in-memory ArtifactStore across
// requests, and the on-disk DiskArtifactStore across restarts and
// crashes.
//
// Request protocol (one request per connection; framing constants in
// core/report_io.h):
//
//   client -> server   OCTO-REQ {"pair":8,"deadline_ms":5000,...}\n
//   server -> client   OCTO-REPORT {...}\nOCTO-DONE\n        (success)
//                      OCTO-ERR {"code":"RETRY_AFTER",...}\nOCTO-DONE\n
//
// Success responses reuse the worker wire framing verbatim, so clients
// parse them with UnmarshalWorkerReport.
//
// Admission control: a bounded FIFO queue of queue_depth requests,
// served in arrival order. A request that arrives at a full queue is
// answered RETRY_AFTER "queue full"; retry_after_ms is derived from the
// observed service rate, so clients back off proportionally to real
// load instead of hammering a saturated daemon.
//
// Deadlines: every request's pipeline budget is
// ComposeDeadlineMs(server request_deadline_ms, client deadline_ms),
// the smaller of the two where 0 means unbounded. Each request gets one
// pipeline run under the options it asked for; the only re-run is for a
// contained tooling exception, retried once after a RetryBackoffMs nap
// (the supervisor's capped-exponential policy). A tripped deadline is
// answered as it stands. Reports are persisted to the disk tier under
// the store rule and key that `corpus --cache-dir` shares (ReportKey /
// PutReport in core/artifact_disk.h): clean completions only, keyed by
// content (programs, PoC, verdict-bearing options), which is what makes
// cold-vs-warm verdicts byte-identical by construction.
//
// Shutdown: Drain() (the SIGINT/SIGTERM path) stops accepting, lets
// queued and in-flight requests finish and respond, flushes the disk
// store, and joins every thread. `octopocs serve` also makes the signal
// flag the pipeline's cancel_flag, so there a drained request is reaped
// at its first poll and answered with a deadline_expired Failure, which
// is never persisted. A SIGKILL instead loses nothing durable: the disk
// tier heals its torn tail on the next Open.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_disk.h"
#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "support/socket.h"

namespace octopocs::support {
class Tracer;
}

namespace octopocs::core {

// -- Request / response payloads ----------------------------------------------

/// One parsed OCTO-REQ line. Unknown JSON keys are ignored (forward
/// compatibility) — including the keys of the retired priority,
/// fallback-rung and degrade-on-timeout request policies that older
/// clients send (DESIGN.md §14.1) — and missing keys keep these
/// defaults.
struct ServeRequest {
  int pair = 0;               // corpus pair index (1-based, Table II)
  std::string id;             // client-chosen correlation id (trace arg)
  std::uint64_t deadline_ms = 0;  // client budget (0 = server cap only)
  /// Enable the fuzz-fallback rung for this request (DESIGN.md §16).
  /// Verdict-bearing: folds into the served-report cache key, unlike
  /// the deadline knobs.
  bool fuzz_fallback = false;
  std::uint64_t fuzz_seed = 0;    // 0 = the daemon's configured seed
  std::uint64_t fuzz_execs = 0;   // 0 = the daemon's configured budget
  /// Optional PoC override (raw bytes; wire format is hex). Empty means
  /// the pair's own corpus PoC.
  Bytes poc_override;
  /// Non-zero routes pair indices beyond the built-in corpora (hog pair
  /// 999, generated pairs >= 1000) to the registered generated-pair
  /// loader with this generator seed. Content-addressed caching needs no
  /// special casing: the generated programs themselves key the report.
  std::uint64_t gen_seed = 0;
};

/// Loader for generated pair indices (src/gen). The daemon cannot link
/// the generator directly (gen links core), so the CLI and the soak
/// harness register gen::LoadGeneratedPair at startup. Unset, requests
/// carrying gen_seed are rejected as BAD_REQUEST.
using GenPairLoader = corpus::Pair (*)(std::uint64_t seed, int idx);
void SetGenPairLoader(GenPairLoader loader);
GenPairLoader GetGenPairLoader();

/// Parses the JSON payload of an OCTO-REQ line. False (with *error set)
/// on malformed JSON, bad hex, or a numeric key that is not a JSON
/// integer in range: pair in [1, INT_MAX], deadline_ms at most
/// 2^32-1 ms, fuzz_seed / fuzz_execs / gen_seed non-negative.
bool ParseServeRequest(std::string_view json, ServeRequest* out,
                       std::string* error);
std::string SerializeServeRequest(const ServeRequest& request);

/// Structured rejection carried by an OCTO-ERR line.
struct ServeError {
  std::string code;   // "RETRY_AFTER" | "BAD_REQUEST" | "INTERNAL"
  std::uint64_t retry_after_ms = 0;  // meaningful for RETRY_AFTER
  std::string detail;
};

std::string SerializeServeError(const ServeError& error);
bool ParseServeError(std::string_view json, ServeError* out,
                     std::string* error);

/// Sooner-wins deadline composition: 0 means unbounded on either side,
/// otherwise the smaller budget applies. Used to merge the server's
/// request_deadline_ms cap with the client's own deadline.
std::uint64_t ComposeDeadlineMs(std::uint64_t server_cap_ms,
                                std::uint64_t client_ms);

// -- Server -------------------------------------------------------------------

struct ServeOptions {
  std::string socket_path;
  /// Worker threads running the pipeline (admission runs on its own
  /// accept thread).
  unsigned workers = 2;
  /// Bounded admission queue depth; beyond it requests shed.
  std::size_t queue_depth = 16;
  /// Server-side per-request wall-clock cap, ms (0 = none). Composed
  /// with the client's own deadline via the sooner-wins rule.
  std::uint64_t request_deadline_ms = 0;
  /// Directory for the persistent artifact tier (empty = disk tier off).
  std::string cache_dir;
  /// Pipeline configuration applied to every request (per-request knobs
  /// layer on top).
  PipelineOptions pipeline;
  /// External stop flag (the CLI's signal count); polled by the accept
  /// loop and between requests. Not owned, may be null.
  const std::atomic<int>* interrupt = nullptr;
  support::Tracer* tracer = nullptr;
};

struct ServeStats {
  std::uint64_t accepted = 0;        // connections whose request was read
  std::uint64_t served = 0;          // OCTO-REPORT responses written
  std::uint64_t shed = 0;            // RETRY_AFTER (queue full / draining)
  std::uint64_t rejected = 0;        // BAD_REQUEST / INTERNAL
  std::uint64_t disk_hits = 0;       // served straight from the disk tier
  std::uint64_t disk_stores = 0;     // reports persisted
  std::uint64_t contained_retries = 0; // second attempts after contained
  std::uint64_t response_drops = 0;  // response write failed (peer gone)
};

/// The daemon. Start() spawns the accept thread and worker pool and
/// returns; Wait() blocks until Drain() completes (normally driven by
/// the interrupt flag). Tests and benches run it in-process.
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, opens the disk tier (when configured), spawns
  /// threads. False with *error set when the socket or cache dir cannot
  /// be set up.
  bool Start(std::string* error);

  /// Blocks until the server has drained (interrupt flag, or Drain()
  /// from another thread).
  void Wait();

  /// Stops accepting, finishes queued + in-flight requests, responds to
  /// all of them, flushes the disk store, joins threads. Idempotent.
  void Drain();

  ServeStats stats() const;
  const DiskArtifactStore* disk_store() const { return disk_.get(); }
  std::size_t queue_size() const;

 private:
  struct Queued {
    ServeRequest request;
    int fd = -1;
    std::uint64_t enqueued_at_ms = 0;
    std::uint64_t seq = 0;  // admission order (the request span's id)
  };

  void AcceptLoop();
  void WorkerLoop();
  /// Reads, parses and admits (or sheds) one connection's request.
  void HandleConnection(int fd);
  /// Runs one admitted request to a response. Never throws.
  void ServeOne(Queued item);
  /// The daemon's pipeline options with the request's overrides and
  /// its composed deadline.
  PipelineOptions RequestOptions(const ServeRequest& request) const;
  VerificationReport RunRequest(const corpus::Pair& pair,
                                const PipelineOptions& opts);
  std::uint64_t EstimateRetryAfterMs();
  void RespondError(int fd, const ServeError& error);
  bool RespondReport(int fd, const VerificationReport& report);

  ServeOptions options_;
  support::UnixListener listener_;
  std::unique_ptr<DiskArtifactStore> disk_;
  std::unique_ptr<ArtifactStore> memory_tier_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  bool draining_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t service_ms_ewma_ = 0;  // observed per-request service time
  ServeStats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
};

// -- Client helper ------------------------------------------------------------

/// Outcome of one client round-trip.
struct ClientResult {
  bool ok = false;            // an OCTO-REPORT frame arrived and parsed
  VerificationReport report;  // valid when ok
  ServeError error;           // valid when !ok and the server answered
  std::string transport_error;  // connect/read/frame failure detail
};

/// Connects to `socket_path`, sends `request`, awaits the framed
/// response. `timeout_ms` bounds the whole round trip (0 = a generous
/// default).
ClientResult SendRequest(const std::string& socket_path,
                         const ServeRequest& request,
                         std::uint64_t timeout_ms = 0);

/// Client-side retry policy for SendRequestWithRetry. A structured
/// RETRY_AFTER sleeps the server-suggested retry_after_ms floored by a
/// capped-exponential backoff (base_backoff_ms << attempt, capped at
/// max_backoff_ms) so repeated sheds back off even when the server keeps
/// suggesting tiny naps. Transport failures (daemon restarting, socket
/// gone) retry on the same schedule only when retry_transport is set —
/// the soak harness uses that to ride through a SIGKILL'd daemon.
struct RetryPolicy {
  int max_retries = 0;  // additional attempts after the first
  std::uint64_t base_backoff_ms = 50;
  std::uint64_t max_backoff_ms = 2000;
  bool retry_transport = false;
};

/// SendRequest plus the retry loop. Returns the final attempt's result;
/// `attempts` (optional) reports how many round trips were made.
ClientResult SendRequestWithRetry(const std::string& socket_path,
                                  const ServeRequest& request,
                                  std::uint64_t timeout_ms,
                                  const RetryPolicy& policy,
                                  int* attempts = nullptr);

}  // namespace octopocs::core
