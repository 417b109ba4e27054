#pragma once
// Cooperative cancellation / deadline / memory-ceiling control block.
//
// A RunControl is a small, caller-owned object shared (by pointer) between
// the thread that launches a computation and the threads executing it. The
// execution stack polls it at natural quiescent points -- the plan executor
// per contraction step (via tn::PlanWorkspace::control), the sharded sweep
// queue per work-item claim, the trajectory runners per chunk -- so a
// triggered control stops the run within one step/chunk/item rather than at
// the next top-level call boundary.
//
// Semantics:
//   * cancel      -- sticky flag; poll() raises CancelledError. Cancel is a
//                    caller decision, so it propagates through simulate()'s
//                    escalation ladder instead of being retried elsewhere.
//   * deadline    -- absolute steady_clock instant; poll() raises
//                    TimeoutError once passed. This is the library's only
//                    wall-clock budget: it is pure run-time state, never
//                    baked into compiled plans or PlanCache keys, so one
//                    deadline bounds a whole call -- every compile, replay
//                    and escalated backend spends the same budget.
//   * memory ceiling -- optional high-water element budget checked by
//                    check_memory() before large arena commitments; raises
//                    MemoryOutError (escalation-eligible in simulate()).
//
// Chaining: a control built with a parent also fires when the parent does
// (cancel, deadline and memory ceiling), so simulate() can arm a call-scoped
// deadline on a child without touching -- or losing -- the caller's control.
// The parent is fixed at construction and must outlive the child.
//
// Determinism contract: a control that never fires changes nothing -- every
// result is bit-identical to a run with control == nullptr. Every armed
// condition is an atomic, so request_cancel()/set_deadline_*() may race freely with polls
// from worker threads.
//
// This header is a leaf (linalg + <atomic>/<chrono> only) so that tn/ and
// sim/ can accept a const core::RunControl* without depending on core/.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "linalg/complex.hpp"

namespace noisim::core {

class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  RunControl() = default;
  /// A child control: everything armed on `parent` (may be null) applies
  /// to this control as well.
  explicit RunControl(const RunControl* parent) noexcept : parent_(parent) {}
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Request cancellation. Sticky: every subsequent poll() on any thread
  /// raises CancelledError until reset().
  void request_cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  /// True once this control or an ancestor was cancelled.
  bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_relaxed) ||
           (parent_ && parent_->cancel_requested());
  }

  /// Arm a wall-clock deadline `seconds` from now (seconds <= 0 clears it).
  /// A deadline past the clock's range saturates to "never".
  void set_deadline_after(double seconds) noexcept {
    if (seconds <= 0.0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    const double delta_ns = seconds * 1e9;
    deadline_ns_.store(delta_ns < static_cast<double>(kNever - now_ns)
                           ? now_ns + static_cast<std::int64_t>(delta_ns)
                           : kNever,
                       std::memory_order_relaxed);
  }

  /// Arm an absolute deadline.
  void set_deadline(Clock::time_point when) noexcept {
    deadline_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           when.time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
  }

  void clear_deadline() noexcept { deadline_ns_.store(0, std::memory_order_relaxed); }

  /// True once this control's or an ancestor's deadline has passed.
  bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d != 0 && std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                          .count() >= d)
      return true;
    return parent_ && parent_->deadline_expired();
  }

  /// Arm a high-water memory ceiling in complex elements, the unit of the
  /// executors' arenas (0 disables).
  void set_memory_ceiling_elems(std::size_t elems) noexcept {
    ceiling_elems_.store(elems, std::memory_order_relaxed);
  }

  std::size_t memory_ceiling_elems() const noexcept {
    return ceiling_elems_.load(std::memory_order_relaxed);
  }

  /// Drop every condition armed on this control (useful for test fixtures
  /// that reuse one control across cases; production callers make a fresh
  /// control per run). The parent is left as it is.
  void reset() noexcept {
    cancel_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
    ceiling_elems_.store(0, std::memory_order_relaxed);
  }

  /// Raise CancelledError on a requested cancel, TimeoutError on an expired
  /// deadline; otherwise return. Cancel wins over deadline when both fire.
  void poll() const {
    if (cancel_requested())
      throw CancelledError("run cancelled via RunControl");
    if (deadline_expired())
      throw TimeoutError("run exceeded RunControl deadline");
  }

  /// Raise MemoryOutError when `elems` would exceed this control's or an
  /// ancestor's armed ceiling. Checked before arena commitments, not on
  /// every small allocation.
  void check_memory(std::size_t elems, const char* what) const {
    const std::size_t ceiling = memory_ceiling_elems();
    if (ceiling != 0 && elems > ceiling)
      throw MemoryOutError(std::string(what) + " needs " + std::to_string(elems) +
                           " elems, above RunControl memory ceiling of " +
                           std::to_string(ceiling));
    if (parent_) parent_->check_memory(elems, what);
  }

 private:
  std::atomic<bool> cancel_{false};
  // Deadline as nanoseconds since the steady_clock epoch; 0 = unarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<std::size_t> ceiling_elems_{0};
  const RunControl* const parent_ = nullptr;
};

}  // namespace noisim::core
