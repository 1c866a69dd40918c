//===- support/Cancellation.h - Cooperative cancellation --------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for solver backends. The racing portfolio
/// (Sec. 4.4: "no case gets slower" holds only if the winning lane can
/// stop the losing one) hands each lane a CancellationToken; the lane that
/// produces the first decisive answer cancels the other, whose solver
/// returns Unknown at the next check point. The token also carries an
/// optional soft deadline so callers can fold timeout and cancellation
/// into one poll, and an optional parent token, so a lane-private token
/// still stops when its caller's token fires.
///
/// Solvers poll shouldStop() at coarse-grained points (every N conflicts /
/// pivots / search nodes, not every iteration) so the fast path pays one
/// relaxed atomic load per batch — well under 1% overhead.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SUPPORT_CANCELLATION_H
#define STAUB_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace staub {

/// A one-shot cancellation signal shared between a controller thread and a
/// solver thread. cancel() is sticky: once requested, every subsequent
/// shouldStop() returns true. All members are safe to call concurrently.
class CancellationToken {
public:
  CancellationToken() = default;
  /// A token that also stops once \p Parent (nullable; not owned, must
  /// outlive this token) does.
  explicit CancellationToken(const CancellationToken *Parent) noexcept
      : Parent(Parent) {}
  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  /// Requests cancellation. Idempotent and thread-safe.
  void cancel() noexcept { Cancelled.store(true, std::memory_order_release); }

  /// True once cancel() was called.
  bool isCancelled() const noexcept {
    return Cancelled.load(std::memory_order_acquire);
  }

  /// Arms a soft deadline \p Seconds from now; shouldStop() starts
  /// returning true once it passes, even without an explicit cancel().
  void setDeadlineIn(double Seconds) noexcept {
    DeadlineNs.store(nowNs() + static_cast<int64_t>(Seconds * 1e9),
                     std::memory_order_release);
  }

  /// Removes the soft deadline (explicit cancel() still sticks).
  void clearDeadline() noexcept {
    DeadlineNs.store(0, std::memory_order_release);
  }

  /// The combined poll used by solver hot loops: cancelled, past the
  /// soft deadline, or the parent stops. The clock is only read when a
  /// deadline is armed.
  bool shouldStop() const noexcept {
    if (isCancelled())
      return true;
    int64_t Deadline = DeadlineNs.load(std::memory_order_acquire);
    if (Deadline != 0 && nowNs() >= Deadline)
      return true;
    return Parent && Parent->shouldStop();
  }

private:
  static int64_t nowNs() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const CancellationToken *Parent = nullptr;
  std::atomic<bool> Cancelled{false};
  std::atomic<int64_t> DeadlineNs{0};
};

/// Convenience poll for optional tokens (the common solver idiom:
/// `if (stopRequested(Options.Cancel)) return Unknown;`).
inline bool stopRequested(const CancellationToken *Token) noexcept {
  return Token && Token->shouldStop();
}

} // namespace staub

#endif // STAUB_SUPPORT_CANCELLATION_H
