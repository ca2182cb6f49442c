#include "core/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "core/journal.h"
#include "core/report_io.h"
#include "core/supervisor.h"
#include "corpus/extended.h"
#include "support/fault.h"
#include "support/hex.h"
#include "support/trace.h"

namespace octopocs::core {

namespace {

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

GenPairLoader g_gen_loader = nullptr;

/// Largest client deadline a request may carry (~49 days): the ceiling
/// the CLI's deadline flags enforce, so deadline arithmetic cannot wrap.
constexpr std::uint64_t kMaxServeDeadlineMs =
    std::numeric_limits<std::uint32_t>::max();

corpus::Pair BuildAnyPair(int idx, std::uint64_t gen_seed) {
  if (gen_seed != 0) {
    if (g_gen_loader == nullptr) {
      throw std::out_of_range("generated pair requested but no loader set");
    }
    return g_gen_loader(gen_seed, idx);
  }
  return idx <= 15 ? corpus::BuildPair(idx) : corpus::BuildExtendedPair(idx);
}

}  // namespace

void SetGenPairLoader(GenPairLoader loader) { g_gen_loader = loader; }
GenPairLoader GetGenPairLoader() { return g_gen_loader; }

// Smaller of two budgets where 0 means "unbounded" — the Deadline::
// Sooner rule applied to millisecond knobs.
std::uint64_t ComposeDeadlineMs(std::uint64_t server_cap_ms,
                                std::uint64_t client_ms) {
  if (server_cap_ms == 0) return client_ms;
  if (client_ms == 0) return server_cap_ms;
  return std::min(server_cap_ms, client_ms);
}

// -- Request / response payloads ----------------------------------------------

bool ParseServeRequest(std::string_view json, ServeRequest* out,
                       std::string* error) {
  minijson::Value value;
  if (!minijson::Parse(json, &value, error)) return false;
  if (value.kind != minijson::Value::Kind::kObject) {
    if (error != nullptr) *error = "request is not a JSON object";
    return false;
  }
  *out = ServeRequest{};
  // Numeric keys take JSON integers in [0, hi] only: a fraction, a
  // negative or an out-of-range value is a BAD_REQUEST, never truncated
  // or wrapped into some other pair, seed or budget.
  const auto uint_field = [&](const char* key, std::uint64_t hi,
                              std::uint64_t* dst) {
    const minijson::Value* v = value.Find(key);
    if (v == nullptr) return true;
    if (v->kind != minijson::Value::Kind::kInt || v->integer < 0 ||
        static_cast<std::uint64_t>(v->integer) > hi) {
      if (error != nullptr) *error = std::string("invalid ") + key;
      return false;
    }
    *dst = static_cast<std::uint64_t>(v->integer);
    return true;
  };
  constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  std::uint64_t pair = 0;
  if (!uint_field("pair", std::numeric_limits<int>::max(), &pair) ||
      !uint_field("deadline_ms", kMaxServeDeadlineMs, &out->deadline_ms) ||
      !uint_field("fuzz_seed", kInt64Max, &out->fuzz_seed) ||
      !uint_field("fuzz_execs", kInt64Max, &out->fuzz_execs) ||
      !uint_field("gen_seed", kInt64Max, &out->gen_seed)) {
    return false;
  }
  out->pair = static_cast<int>(pair);
  if (const auto* v = value.Find("id")) out->id = v->text;
  if (const auto* v = value.Find("fuzz_fallback")) {
    out->fuzz_fallback = v->boolean;
  }
  if (const auto* v = value.Find("poc")) {
    if (v->text.size() > 2 * kMaxReformedPocBytes) {
      if (error != nullptr) *error = "poc override exceeds size cap";
      return false;
    }
    try {
      out->poc_override = FromHex(v->text);
    } catch (const std::exception&) {
      if (error != nullptr) *error = "malformed poc hex";
      return false;
    }
  }
  if (out->pair < 1) {
    if (error != nullptr) *error = "missing or invalid pair index";
    return false;
  }
  return true;
}

std::string SerializeServeRequest(const ServeRequest& r) {
  std::string out = "{\"pair\":" + std::to_string(r.pair);
  if (!r.id.empty()) out += ",\"id\":\"" + minijson::Escape(r.id) + '"';
  if (r.deadline_ms != 0) {
    out += ",\"deadline_ms\":" + std::to_string(r.deadline_ms);
  }
  if (r.fuzz_fallback) out += ",\"fuzz_fallback\":true";
  if (r.fuzz_seed != 0) out += ",\"fuzz_seed\":" + std::to_string(r.fuzz_seed);
  if (r.fuzz_execs != 0) {
    out += ",\"fuzz_execs\":" + std::to_string(r.fuzz_execs);
  }
  if (!r.poc_override.empty()) {
    out += ",\"poc\":\"" + ToHex(r.poc_override) + '"';
  }
  if (r.gen_seed != 0) out += ",\"gen_seed\":" + std::to_string(r.gen_seed);
  out += '}';
  return out;
}

std::string SerializeServeError(const ServeError& e) {
  std::string out = "{\"code\":\"" + minijson::Escape(e.code) + '"';
  out += ",\"retry_after_ms\":" + std::to_string(e.retry_after_ms);
  out += ",\"detail\":\"" + minijson::Escape(e.detail) + "\"}";
  return out;
}

bool ParseServeError(std::string_view json, ServeError* out,
                     std::string* error) {
  minijson::Value value;
  if (!minijson::Parse(json, &value, error)) return false;
  if (value.kind != minijson::Value::Kind::kObject) {
    if (error != nullptr) *error = "error payload is not a JSON object";
    return false;
  }
  *out = ServeError{};
  if (const auto* v = value.Find("code")) out->code = v->text;
  if (const auto* v = value.Find("retry_after_ms")) {
    out->retry_after_ms = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const auto* v = value.Find("detail")) out->detail = v->text;
  return true;
}

// -- Server -------------------------------------------------------------------

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Server::~Server() {
  if (started_.load(std::memory_order_relaxed)) Drain();
}

bool Server::Start(std::string* error) {
  if (!options_.cache_dir.empty()) {
    disk_ = DiskArtifactStore::Open(options_.cache_dir, error);
    if (disk_ == nullptr) return false;
  }
  // The memory tier is what keeps origin-side artifacts warm across
  // requests; honor a caller-provided store, otherwise own one.
  if (options_.pipeline.artifacts == nullptr) {
    memory_tier_ = std::make_unique<ArtifactStore>();
    options_.pipeline.artifacts = memory_tier_.get();
  }
  if (!listener_.Listen(options_.socket_path, error)) return false;
  if (options_.workers == 0) options_.workers = 1;
  started_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  worker_threads_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void Server::Wait() {
  for (;;) {
    if (drained_.load(std::memory_order_acquire)) return;
    if (options_.interrupt != nullptr &&
        options_.interrupt->load(std::memory_order_relaxed) != 0) {
      Drain();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

void Server::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // Another drainer owns the teardown; its joins make `drained_`
      // true, which is what callers observe through Wait().
      return;
    }
    draining_ = true;
  }
  cv_.notify_all();
  listener_.Shutdown();  // Accept() returns -2, the accept loop exits
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  if (disk_ != nullptr) disk_->Flush();
  drained_.store(true, std::memory_order_release);
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t Server::queue_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = listener_.Accept(100, options_.interrupt);
    if (fd == -2) return;  // interrupt tripped or listener shut down
    if (fd == -1) continue;
    HandleConnection(fd);
  }
}

std::uint64_t Server::EstimateRetryAfterMs() {
  // mu_ held by the caller. Pessimistic first estimate (no sample yet):
  // assume a one-second service time so early clients back off gently.
  const std::uint64_t per_request =
      service_ms_ewma_ != 0 ? service_ms_ewma_ : 1000;
  const std::uint64_t backlog = (queue_.size() + 1) * per_request;
  return std::max<std::uint64_t>(50, backlog / options_.workers);
}

void Server::HandleConnection(int fd) {
  support::FdReader reader(fd);
  std::string line;
  // A request line is tiny; 5s covers any honest client while bounding
  // how long a stalled peer can hold the accept thread.
  const auto status = reader.ReadLine(5000, options_.interrupt, &line);
  if (status != support::FdReader::Status::kOk) {
    support::CloseFd(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return;
  }
  if (line.rfind(kServeRequestPrefix, 0) != 0) {
    RespondError(fd, {"BAD_REQUEST", 0, "missing OCTO-REQ prefix"});
    support::CloseFd(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return;
  }
  ServeRequest request;
  std::string parse_error;
  if (!ParseServeRequest(line.substr(kServeRequestPrefix.size()), &request,
                         &parse_error)) {
    RespondError(fd, {"BAD_REQUEST", 0, parse_error});
    support::CloseFd(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return;
  }

  // Admission: a bounded FIFO. Decisions happen under the lock; the
  // resulting socket writes happen after it, so a slow client never
  // blocks admission.
  std::uint64_t retry_after = 0;
  bool admitted = false;
  const bool admission_fault =
      support::fault::Poll(support::FaultSite::kAdmission);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
    if (admission_fault || draining_ ||
        queue_.size() >= options_.queue_depth) {
      retry_after = EstimateRetryAfterMs();
      ++stats_.shed;
    } else {
      queue_.push_back(Queued{std::move(request), fd, NowMs(), next_seq_++});
      admitted = true;
    }
    if (options_.tracer != nullptr) {
      options_.tracer->Counter("queue_depth",
                               static_cast<std::int64_t>(queue_.size()));
      options_.tracer->Counter(admitted ? "serve_admitted" : "serve_shed", 1);
    }
  }
  if (!admitted) {
    RespondError(fd, {"RETRY_AFTER", retry_after,
                      admission_fault ? "admission failed (transient)"
                                      : "queue full"});
    support::CloseFd(fd);
    return;
  }
  cv_.notify_one();
}

void Server::WorkerLoop() {
  for (;;) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left to serve
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ServeOne(std::move(item));
  }
}

ArtifactKey Server::ReportKey(const corpus::Pair& pair,
                              const ServeRequest& request) const {
  // Content only: programs, PoC, shared-function wiring, and the
  // semantics-affecting option knobs — never deadlines. Deadlines stay
  // out because only clean completions are stored (below), and a clean
  // completion under any budget is byte-identical to the unbudgeted
  // run, which is exactly the cold-vs-warm identity CI enforces.
  PipelineOptions semantic = options_.pipeline;
  // The fuzz rung and its seed/budget are verdict-bearing, so they key
  // the cache; its wall-clock budget is a deadline like any other.
  semantic.fuzz_fallback |= request.fuzz_fallback;
  if (request.fuzz_seed != 0) semantic.fuzz_seed = request.fuzz_seed;
  if (request.fuzz_execs != 0) semantic.fuzz_execs = request.fuzz_execs;
  semantic.deadline_ms = 0;
  semantic.fuzz_deadline_ms = 0;
  ArtifactHasher hasher;
  hasher.Program(pair.s).Program(pair.t);
  for (const auto& name : pair.shared_functions) hasher.Str(name);
  for (const auto& [s_name, t_name] : pair.t_names) {
    hasher.Str(s_name).Str(t_name);
  }
  hasher.Bytes(pair.poc.data(), pair.poc.size());
  hasher.Str(CorpusOptionsFingerprint(semantic, /*extended=*/false,
                                      /*pair_count=*/0,
                                      /*isolate=*/false, /*rlimit_mb=*/0));
  return hasher.Finish("served-report");
}

VerificationReport Server::RunRequest(const corpus::Pair& pair,
                                      const ServeRequest& request) {
  PipelineOptions opts = options_.pipeline;
  opts.tracer = options_.tracer;
  opts.fuzz_fallback |= request.fuzz_fallback;
  if (request.fuzz_seed != 0) opts.fuzz_seed = request.fuzz_seed;
  if (request.fuzz_execs != 0) opts.fuzz_execs = request.fuzz_execs;
  opts.deadline_ms = ComposeDeadlineMs(options_.request_deadline_ms,
                                       request.deadline_ms);

  if (options_.tracer != nullptr) options_.tracer->Begin("verify", pair.idx);
  VerificationReport report = VerifyPair(pair, opts);
  if (options_.tracer != nullptr) options_.tracer->End("verify", pair.idx);

  if (report.exception_contained) {
    // Contained tooling faults are transient by classification — retry
    // once after the supervisor's capped-exponential backoff.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(RetryBackoffMs(pair.idx, 0)));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.contained_retries;
    }
    if (options_.tracer != nullptr) {
      options_.tracer->Counter("serve_contained_retry", 1);
      options_.tracer->Begin("verify", pair.idx);
    }
    report = VerifyPair(pair, opts);
    if (options_.tracer != nullptr) options_.tracer->End("verify", pair.idx);
  }
  return report;
}

void Server::ServeOne(Queued item) {
  const std::uint64_t started = NowMs();
  support::Tracer* tracer = options_.tracer;
  if (tracer != nullptr) {
    tracer->Begin("request", static_cast<std::int64_t>(item.seq));
    tracer->Counter("queue_wait_ms",
                    static_cast<std::int64_t>(started - item.enqueued_at_ms));
  }

  bool responded = false;
  bool from_disk = false;
  try {
    const corpus::Pair base =
        BuildAnyPair(item.request.pair, item.request.gen_seed);
    corpus::Pair pair = base;
    if (!item.request.poc_override.empty()) {
      pair.poc = item.request.poc_override;
    }
    const ArtifactKey key = ReportKey(pair, item.request);

    VerificationReport report;
    bool have_report = false;
    if (disk_ != nullptr) {
      if (auto cached = disk_->Get(key)) {
        std::string parse_error;
        const std::string_view json(
            reinterpret_cast<const char*>(cached->data()), cached->size());
        if (ParseReport(json, &report, &parse_error)) {
          have_report = true;
          from_disk = true;
          if (tracer != nullptr) tracer->Counter("artifact_disk_hit", 1);
        }
      }
    }
    if (!have_report) {
      report = RunRequest(pair, item.request);
      // Persist only clean completions: a tripped deadline or a
      // contained fault is a statement about this run's budget/luck,
      // not about the pair, and must never be replayed as the answer.
      if (disk_ != nullptr && !report.deadline_expired &&
          !report.exception_contained) {
        const std::string json = SerializeReport(report);
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(json.data());
        if (disk_->Put(key, ByteView(bytes, json.size()))) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.disk_stores;
        }
      }
    }
    responded = RespondReport(item.fd, report);
  } catch (const std::out_of_range&) {
    RespondError(item.fd, {"BAD_REQUEST", 0,
                           "unknown pair index " +
                               std::to_string(item.request.pair)});
    support::CloseFd(item.fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    if (tracer != nullptr) {
      tracer->Counter("request_failed", 1);
      tracer->End("request", static_cast<std::int64_t>(item.seq));
    }
    return;
  } catch (const std::exception&) {
    RespondError(item.fd, {"INTERNAL", 0, "verification failed internally"});
    support::CloseFd(item.fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    if (tracer != nullptr) {
      tracer->Counter("request_failed", 1);
      tracer->End("request", static_cast<std::int64_t>(item.seq));
    }
    return;
  }
  support::CloseFd(item.fd);

  const std::uint64_t service_ms = NowMs() - started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (responded) {
      ++stats_.served;
    } else {
      ++stats_.response_drops;
    }
    if (from_disk) ++stats_.disk_hits;
    // EWMA (3:1 old:new) of service time feeds RETRY_AFTER estimates.
    service_ms_ewma_ = service_ms_ewma_ == 0
                           ? service_ms
                           : (3 * service_ms_ewma_ + service_ms) / 4;
  }
  if (tracer != nullptr) {
    if (!responded) tracer->Counter("request_failed", 1);
    tracer->End("request", static_cast<std::int64_t>(item.seq));
  }
}

void Server::RespondError(int fd, const ServeError& error) {
  if (support::fault::Poll(support::FaultSite::kResponseWrite)) return;
  std::string payload(kServeErrPrefix);
  payload += SerializeServeError(error);
  payload += '\n';
  payload += kWorkerDoneSentinel;
  payload += '\n';
  support::WriteAll(fd, payload);
}

bool Server::RespondReport(int fd, const VerificationReport& report) {
  if (support::fault::Poll(support::FaultSite::kResponseWrite)) return false;
  return support::WriteAll(fd, MarshalWorkerReport(report));
}

// -- Client helper ------------------------------------------------------------

ClientResult SendRequest(const std::string& socket_path,
                         const ServeRequest& request,
                         std::uint64_t timeout_ms) {
  if (timeout_ms == 0) timeout_ms = 600'000;
  ClientResult result;
  int fd = support::ConnectUnix(socket_path, &result.transport_error);
  if (fd < 0) return result;
  std::string line(kServeRequestPrefix);
  line += SerializeServeRequest(request);
  line += '\n';
  if (!support::WriteAll(fd, line)) {
    result.transport_error = "request write failed";
    support::CloseFd(fd);
    return result;
  }
  support::FdReader reader(fd);
  std::string frame;
  const auto status =
      reader.ReadFrame(kWorkerDoneSentinel, timeout_ms, nullptr, &frame);
  support::CloseFd(fd);
  if (status != support::FdReader::Status::kOk) {
    switch (status) {
      case support::FdReader::Status::kEof:
        result.transport_error = "server closed before responding";
        break;
      case support::FdReader::Status::kTimeout:
        result.transport_error = "response timed out";
        break;
      default:
        result.transport_error = "response read failed";
    }
    return result;
  }
  if (frame.rfind(kServeErrPrefix, 0) == 0) {
    const std::size_t eol = frame.find('\n');
    const std::string_view json =
        std::string_view(frame).substr(kServeErrPrefix.size(),
                                       eol - kServeErrPrefix.size());
    std::string parse_error;
    if (!ParseServeError(json, &result.error, &parse_error)) {
      result.transport_error = "malformed OCTO-ERR payload: " + parse_error;
    }
    return result;
  }
  std::string parse_error;
  if (!UnmarshalWorkerReport(frame, &result.report, &parse_error)) {
    result.transport_error = "malformed response frame: " + parse_error;
    return result;
  }
  result.ok = true;
  return result;
}

ClientResult SendRequestWithRetry(const std::string& socket_path,
                                  const ServeRequest& request,
                                  std::uint64_t timeout_ms,
                                  const RetryPolicy& policy, int* attempts) {
  ClientResult result;
  int made = 0;
  for (int attempt = 0;; ++attempt) {
    result = SendRequest(socket_path, request, timeout_ms);
    ++made;
    if (result.ok || attempt >= policy.max_retries) break;
    std::uint64_t nap =
        std::min(policy.max_backoff_ms,
                 policy.base_backoff_ms << std::min(attempt, 20));
    if (!result.transport_error.empty()) {
      // Transport failure: socket missing, connection refused, peer died
      // mid-frame. Only retryable when the caller expects the daemon to
      // come back (the soak harness riding through a SIGKILL restart).
      if (!policy.retry_transport) break;
    } else if (result.error.code == "RETRY_AFTER") {
      // Honor the server's own estimate, but never back off less than
      // the capped-exponential floor — a saturated daemon keeps
      // suggesting small naps and the floor is what spreads retries out.
      nap = std::min(policy.max_backoff_ms,
                     std::max(nap, result.error.retry_after_ms));
    } else {
      break;  // BAD_REQUEST / INTERNAL: retrying cannot help
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(nap));
  }
  if (attempts != nullptr) *attempts = made;
  return result;
}

}  // namespace octopocs::core
