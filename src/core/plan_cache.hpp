#pragma once
// Session-level plan/template cache for Algorithm-1 sweeps.
//
// Repeated approximate_fidelity / approximate_fidelity_outputs / xeb_sweep
// calls over the same circuit skeleton (level ladders, accuracy sweeps, XEB
// batches arriving over time) recompile identical AmplitudeTemplates and
// batched plans on every call: the plan is a pure function of the network
// topology and the contraction options, so all of that work is cacheable.
// A sweep evaluates every term as |a|^2 of one single-layer network (the
// bottom layer is the conjugate of the top one), so a skeleton occupies one
// entry. A PlanCache memoizes two levels:
//
//  * template entries -- one compiled AmplitudeTemplate per distinct
//    (qubit count, skeleton gate list, |psi>/<v| basis labels,
//    tn::ContractOptions) key; the key serializes every input that
//    enters plan compilation byte for byte (gate matrices included), so two
//    keys compare equal exactly when the compiled plans would be identical
//    -- there is no hash-collision failure mode, lookups compare full keys;
//  * batched plans and environment schedules -- compiled from a cached
//    template's plan and memoized inside its entry. Batched plans are keyed
//    on the varying-slot layout, batch capacity, variant counts, per-term
//    deviation bound, and unconstrained flags; a different slot layout or
//    capacity (e.g. another approximation level or batch_terms) misses and
//    compiles its own plan. Environment schedules are keyed on their target
//    slots.
//
// Replaying a cached plan is bit-identical to compiling it fresh (plan
// determinism: equal topologies compile to equal fingerprints), so results
// with a cache attached equal the cache-free results bit for bit.
//
// Thread safety: all PlanCache methods are safe to call concurrently; the
// index is mutex-protected and entries are immutable-after-build except for
// their internal plan memo (itself mutex-protected). Misses compile
// OUTSIDE the cache lock, so two threads racing on the same key may both
// compile; the first insert wins and the loser adopts the winner's entry
// (wasted work, never wrong). Eviction is LRU over template entries; an
// evicted entry stays alive for callers still holding its shared_ptr.
// Entries must not outlive the cache that handed them out.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "core/circuit_network.hpp"
#include "support/mutex.hpp"

namespace noisim::core {

class PlanCache {
 public:
  /// `max_entries` bounds the number of RESIDENT template entries (each
  /// with its plan memo); least-recently-used entries are evicted
  /// past the bound. Must be >= 1.
  explicit PlanCache(std::size_t max_entries = 64);

  /// One cached unit: a compiled template plus the batched plans and
  /// environment schedules compiled from its plan. Handed out as
  /// shared_ptr<const Entry>; the template is immutable and the plan memo
  /// is internally synchronized, so an entry may be used from many threads
  /// at once.
  class Entry {
   public:
    const AmplitudeTemplate& tmpl() const { return tmpl_; }

    /// Memoized compile_batched: returns the plan cached under `key`, or
    /// runs `compile` and caches its result. `hit` (optional) reports
    /// whether the plan came from the memo; the owning cache's counters are
    /// updated either way. If `compile` throws (e.g. CancelledError from
    /// the compile's control) nothing is cached and the exception
    /// propagates -- the next lookup with the same key retries. The memo is
    /// bounded (kMaxBatchedPlans distinct keys; compiled plans are large):
    /// inserting past the bound resets it, so a pathological stream of
    /// distinct capacities recompiles instead of growing without limit.
    std::shared_ptr<const tn::BatchedPlan> batched(
        const std::string& key, const std::function<tn::BatchedPlan()>& compile,
        bool* hit = nullptr) const EXCLUDES(mutex_);

    /// Memoized compile_env under `key` (PlanCache::env_key), with the same
    /// hit/miss accounting, failure and bound behaviour as batched().
    std::shared_ptr<const tn::EnvSchedule> env_schedule(
        const std::string& key, const std::function<tn::EnvSchedule()>& compile,
        bool* hit = nullptr) const EXCLUDES(mutex_);

    /// Bound on memoized plans (batched plans and environment schedules
    /// together) per entry (a level ladder or a handful of K/batch_terms
    /// shapes fit comfortably; see batched()).
    static constexpr std::size_t kMaxBatchedPlans = 16;

   private:
    friend class PlanCache;
    Entry(PlanCache* owner, AmplitudeTemplate tmpl)
        : owner_(owner), tmpl_(std::move(tmpl)) {}

    /// The memo behind batched() and env_schedule(): `key` carries a kind
    /// prefix, so the two key spaces never meet.
    std::shared_ptr<const void> memo(const std::string& key,
                                     const std::function<std::shared_ptr<const void>()>& compile,
                                     bool* hit) const EXCLUDES(mutex_);

    PlanCache* const owner_;       // immutable back-pointer (counters only)
    const AmplitudeTemplate tmpl_;  // immutable after construction
    mutable support::Mutex mutex_;
    mutable std::unordered_map<std::string, std::shared_ptr<const void>> plans_
        GUARDED_BY(mutex_);
  };

  /// Look up the template entry for `key`, building it with `build` on a
  /// miss (outside the cache lock). `hit` (optional) reports whether the
  /// template was served from the cache. If `build` throws, nothing is
  /// cached and the exception propagates.
  std::shared_ptr<const Entry> entry(const std::string& key,
                                     const std::function<AmplitudeTemplate()>& build,
                                     bool* hit = nullptr) EXCLUDES(mutex_);

  /// Cumulative lookup counters across template, batched-plan and
  /// environment-schedule lookups.
  std::size_t hits() const EXCLUDES(mutex_);
  std::size_t misses() const EXCLUDES(mutex_);
  /// Resident template entries / the eviction bound.
  std::size_t size() const EXCLUDES(mutex_);
  std::size_t max_entries() const { return max_entries_; }
  /// Drop every entry (in-flight shared_ptr holders keep theirs alive).
  /// Counters are preserved.
  void clear() EXCLUDES(mutex_);

  /// Serialize a template identity into a cache key: every input that
  /// enters AmplitudeTemplate construction, byte for byte (gate kinds,
  /// qubits, parameters, custom matrices, basis labels, and the
  /// contraction options).
  static std::string template_key(int n, const std::vector<qc::Gate>& skeleton,
                                  std::uint64_t psi_bits, std::uint64_t v_bits,
                                  const tn::ContractOptions& copts);

  /// Serialize a compile_batched parameter set into an Entry::batched key.
  static std::string batched_key(std::span<const std::size_t> varying_slots,
                                 std::size_t capacity,
                                 std::span<const std::size_t> variant_counts,
                                 std::size_t max_varied_per_term,
                                 std::span<const char> unconstrained);

  /// Serialize a compile_env target list into an Entry::env_schedule key.
  static std::string env_key(std::span<const std::size_t> targets);

 private:
  void note(bool hit) EXCLUDES(mutex_);

  mutable support::Mutex mutex_;
  const std::size_t max_entries_;  // immutable eviction bound
  std::size_t hits_ GUARDED_BY(mutex_) = 0;
  std::size_t misses_ GUARDED_BY(mutex_) = 0;
  // LRU order, most recently used first; index_ points into lru_.
  std::list<std::pair<std::string, std::shared_ptr<const Entry>>> lru_ GUARDED_BY(mutex_);
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, std::shared_ptr<const Entry>>>::iterator>
      index_ GUARDED_BY(mutex_);
};

}  // namespace noisim::core
