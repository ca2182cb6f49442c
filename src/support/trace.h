// Structured tracing: span begin/end and counter events with a JSONL sink.
//
// The pipeline (DESIGN.md §11) threads one Tracer through every layer —
// the phase driver opens a span per phase attempt, the symbolic executor
// emits solver counters, VerifyCorpus wraps each pair in a span — and
// the CLI serialises the merged event stream to a JSONL file
// (--trace-out). The tracer replaces ad-hoc printf plumbing as the
// transport for per-phase wall time, solver hit-kind counters and
// artifact-cache hits.
//
// Concurrency model: each thread appends to its own chunked buffer, so
// the hot path (Begin/End/Counter) takes no lock — appends write into a
// fixed-size chunk slot and publish it with a release store. A mutex is
// taken only when a thread registers its buffer (once per thread per
// tracer) or allocates a fresh chunk (once per kChunkEvents events).
// Snapshot() merges every buffer into one stream ordered by a global
// sequence number, so cross-thread ordering is stable and reproducible
// within one process run.
//
// Event names must have static storage duration (string literals): the
// tracer stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace octopocs::support {

enum class TraceEventKind : std::uint8_t { kBegin, kEnd, kCounter };

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCounter;
  const char* name = "";     // static lifetime; never owned
  std::uint32_t tid = 0;     // dense per-tracer thread index
  std::uint64_t seq = 0;     // global order across threads
  std::uint64_t ts_ns = 0;   // nanoseconds since the tracer's epoch
  std::int64_t value = 0;    // counter value / optional span argument
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. `arg` is an optional argument rendered into the
  /// event (e.g. a retry attempt number or a pair index).
  void Begin(const char* name, std::int64_t arg = 0);
  /// Closes the innermost span opened under `name` on this thread.
  void End(const char* name, std::int64_t arg = 0);
  /// Records a point-in-time counter sample.
  void Counter(const char* name, std::int64_t value);

  /// Merged view of every thread's events, sorted by sequence number.
  /// Safe to call while other threads trace: events published before the
  /// call are included, racing appends may or may not be.
  std::vector<TraceEvent> Snapshot() const;

  /// Serialises Snapshot() as one JSON object per line:
  ///   {"type":"begin","name":"P1","tid":0,"seq":3,"ts_ns":124,"arg":0}
  ///   {"type":"counter","name":"x","tid":1,"seq":4,"ts_ns":130,"value":7}
  void WriteJsonl(std::ostream& os) const;
  /// WriteJsonl into `path`; returns false if the file cannot be opened.
  bool WriteJsonlFile(const std::string& path) const;

  /// Total events captured so far (approximate while tracing is live).
  std::size_t event_count() const;

 private:
  static constexpr std::size_t kChunkEvents = 1024;

  struct Chunk {
    TraceEvent events[kChunkEvents];
    std::atomic<std::size_t> used{0};  // published with release stores
  };

  /// Single-producer buffer: only the owning thread appends.
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    mutable std::mutex chunks_mu;  // guards the chunk *list*, not slots
    std::vector<std::unique_ptr<Chunk>> chunks;

    void Append(const TraceEvent& event);
  };

  void Record(TraceEventKind kind, const char* name, std::int64_t value);
  ThreadBuffer& LocalBuffer();

  const std::uint64_t tracer_id_;  // process-unique; keys thread caches
  std::uint64_t epoch_ns_ = 0;     // steady_clock at construction
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex buffers_mu_;  // guards registration + enumeration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span guard; tolerates a null tracer so call sites stay branch-free.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, std::int64_t arg = 0)
      : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->Begin(name_, arg);
  }
  ~TraceSpan() {
    if (tracer_ != nullptr) tracer_->End(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
};

}  // namespace octopocs::support
