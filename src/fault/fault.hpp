#pragma once
// Deterministic fault injection for failure-path testing.
//
// Every failure boundary in the execution stack carries a named injection
// site -- a `fault::poke("site-name")` call that is a single relaxed atomic
// load when no fault is armed (the common case; the branch is perfectly
// predicted and the site string is never even materialized on hot paths
// that guard on fault::enabled()). Arming a site makes its poke throw a
// site-specific error type on the nth (1-based) hit, exactly once, after
// which the site goes dormant again. This turns "hand-craft a workload
// that happens to blow the memory budget inside backend X" into "arm
// run-<X>:1 and assert the escalation", deterministically.
//
// Sites and their error types:
//   arena-alloc          MemoryOutError   ArenaBuffer growth (tn/plan.hpp)
//   aligned-alloc        MemoryOutError   AlignedAllocator::allocate
//   plan-mo              MemoryOutError   ContractionPlan::compile entry
//   plan-to              TimeoutError     ContractionPlan::compile entry
//   exec-step-mo         MemoryOutError   per-step in plan/batched executors
//   exec-step-to         TimeoutError     per-step in plan/batched executors
//   sweep-worker         FaultError       work queue, before a sweep item's eval
//   traj-chunk           FaultError       work queue, before a trajectory chunk
//   run-density          MemoryOutError   simulate() before DensityBackend::run
//   run-tn-approx        MemoryOutError   simulate() before TnApproxBackend::run
//   run-tn-trajectories  MemoryOutError   simulate() before TnTrajectoriesBackend::run
//   run-sv-trajectories  MemoryOutError   simulate() before SvTrajectoriesBackend::run
//
// The allocation sites throw MemoryOutError rather than std::bad_alloc on
// purpose: an injected allocation failure models "this backend cannot get
// the memory it bid for", which is exactly the condition simulate()'s
// escalation ladder is specified to absorb, and a typed error carries the
// site name for tests to assert on.
//
// Arming: programmatic `fault::arm("site", nth)` (tests), or the
// environment variable NOISIM_FAULTS=<site>:<nth>[,<site>:<nth>...] parsed
// once at static-initialization time (CI drills). A malformed NOISIM_FAULTS
// value cannot throw during static init, so the parse error is stashed and
// re-thrown as LinalgError (naming the variable) from the first poke --
// misconfiguration fails fast instead of silently running faultless.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace noisim::fault {

/// Thrown by sites without a domain-specific error type (sweep-worker,
/// traj-chunk): "an arbitrary exception escaped a worker".
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// True iff any site is armed (or an env parse error is pending). Relaxed
// loads suffice: arming happens-before the runs that observe it via the
// caller's own synchronization (tests arm before launching work).
extern std::atomic<bool> g_enabled;
void poke_slow(std::string_view site);
}  // namespace detail

/// Fast-path check: a single relaxed atomic load. Hot paths that would pay
/// to build the site string may guard on this explicitly.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Named injection site. No-op unless a fault is armed for `site` (one
/// relaxed load); an armed site counts hits and throws its configured
/// error on the nth, exactly once.
inline void poke(std::string_view site) {
  if (!enabled()) return;
  detail::poke_slow(site);
}

/// Arm `site` to fire on its nth (1-based) poke from now. Re-arming a site
/// resets its counter. Throws LinalgError for unknown sites or nth == 0.
void arm(std::string_view site, std::uint64_t nth);

/// Disarm every site and clear hit counters and any pending env error.
void disarm_all();

/// Re-read NOISIM_FAULTS and arm accordingly (on top of disarm_all()).
/// Throws LinalgError naming the variable on malformed grammar or unknown
/// sites. Called automatically at static-init (errors deferred to the
/// first poke); exposed for tests.
void arm_from_env();

/// Pokes observed at `site` since it was last armed (0 when never armed).
std::uint64_t hits(std::string_view site);

/// True once the fault armed at `site` has thrown.
bool fired(std::string_view site);

/// All valid site names, for documentation and error messages.
std::vector<std::string_view> known_sites();

}  // namespace noisim::fault
