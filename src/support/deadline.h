// Wall-clock deadlines and cheap cooperative cancellation.
//
// The pipeline's phases all contain open-ended loops — the concrete
// interpreter, the symbolic step loop, the CSP search — and at corpus
// scale one pathological pair must not be able to stall the whole run.
// Cancellation here is cooperative: every hot loop polls a CancelToken,
// which trips either when its monotonic-clock Deadline passes or when an
// external flag (a SIGINT/SIGTERM drain, or a test's kill switch) goes
// nonzero.
//
// The poll is engineered to cost ~nothing on the hot path: ShouldStop()
// increments a local counter and only consults the clock / the atomic
// flag once every kStride calls, so a tight interpreter loop pays one
// increment-and-mask per instruction. Once tripped a token stays
// tripped (sticky), so callers may poll freely after reporting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace octopocs::support {

/// A point in monotonic time after which work should stop. The default
/// instance never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // never expires

  static Deadline Never() { return Deadline(); }

  static Deadline AfterMillis(std::uint64_t ms) {
    Deadline d;
    d.unlimited_ = false;
    d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  bool unlimited() const { return unlimited_; }

  bool Expired() const { return !unlimited_ && Clock::now() >= at_; }

  /// Seconds until expiry; negative once expired, +inf never expires.
  double RemainingSeconds() const {
    if (unlimited_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

 private:
  Clock::time_point at_{};
  bool unlimited_ = true;
};

/// Pollable stop condition: a Deadline plus an optional shared kill
/// switch that trips on nonzero (the int type every interrupt in the
/// tree shares, so a signal number can be stored as is). Value type —
/// each loop owns its copy (the poll counter is per-copy; the flag is
/// shared). The referenced flag must outlive every token copy that
/// points at it.
class CancelToken {
 public:
  CancelToken() = default;

  explicit CancelToken(Deadline deadline,
                       const std::atomic<int>* flag = nullptr)
      : deadline_(deadline), flag_(flag) {}

  /// True when this token can ever trip — lets callers skip bookkeeping
  /// entirely for the common "no deadline configured" case.
  bool CanExpire() const {
    return !deadline_.unlimited() || flag_ != nullptr;
  }

  /// Hot-loop poll: a counter increment on most calls; the clock and the
  /// flag are consulted once every kStride calls. Sticky once tripped.
  bool ShouldStop() {
    if (stopped_) return true;
    if (!CanExpire()) return false;
    if ((++polls_ & (kStride - 1)) != 0) return false;
    return Check();
  }

  /// Immediate check (phase boundaries, failure attribution). Sticky.
  bool Check() {
    if (stopped_) return true;
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed) != 0) {
      stopped_ = true;
    } else if (deadline_.Expired()) {
      stopped_ = true;
    }
    return stopped_;
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  static constexpr std::uint32_t kStride = 512;

  Deadline deadline_;
  const std::atomic<int>* flag_ = nullptr;
  std::uint32_t polls_ = 0;
  bool stopped_ = false;
};

}  // namespace octopocs::support
