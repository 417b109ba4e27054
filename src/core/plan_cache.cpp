#include "core/plan_cache.hpp"

#include <cstring>

namespace noisim::core {

namespace {

void put_bytes(std::string& s, const void* p, std::size_t n) {
  s.append(static_cast<const char*>(p), n);
}

void put_u64(std::string& s, std::uint64_t v) { put_bytes(s, &v, sizeof v); }

void put_f64(std::string& s, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(s, bits);
}

void put_matrix(std::string& s, const la::Matrix& m) {
  put_u64(s, m.rows());
  put_u64(s, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) {
      put_f64(s, m(r, c).real());
      put_f64(s, m(r, c).imag());
    }
}

}  // namespace

PlanCache::PlanCache(std::size_t max_entries) : max_entries_(max_entries) {
  la::detail::require(max_entries >= 1, "PlanCache: max_entries must be >= 1");
}

std::shared_ptr<const tn::BatchedPlan> PlanCache::Entry::batched(
    const std::string& key, const std::function<tn::BatchedPlan()>& compile,
    bool* hit) const {
  return std::static_pointer_cast<const tn::BatchedPlan>(memo(
      "b" + key, [&] { return std::make_shared<const tn::BatchedPlan>(compile()); }, hit));
}

std::shared_ptr<const tn::EnvSchedule> PlanCache::Entry::env_schedule(
    const std::string& key, const std::function<tn::EnvSchedule()>& compile,
    bool* hit) const {
  return std::static_pointer_cast<const tn::EnvSchedule>(memo(
      "e" + key, [&] { return std::make_shared<const tn::EnvSchedule>(compile()); }, hit));
}

std::shared_ptr<const void> PlanCache::Entry::memo(
    const std::string& key, const std::function<std::shared_ptr<const void>()>& compile,
    bool* hit) const {
  {
    const support::MutexLock lock(mutex_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      owner_->note(true);
      if (hit) *hit = true;
      return it->second;
    }
  }
  // Compile outside the lock (batched compiles can be expensive); a racing
  // thread may compile the same plan -- equal topologies compile to equal
  // plans, so whichever insert wins is interchangeable.
  std::shared_ptr<const void> plan = compile();
  const support::MutexLock lock(mutex_);
  if (plans_.size() >= kMaxBatchedPlans && !plans_.count(key)) plans_.clear();
  const auto [it, inserted] = plans_.emplace(key, plan);
  owner_->note(false);
  if (hit) *hit = false;
  return inserted ? plan : it->second;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::entry(
    const std::string& key, const std::function<AmplitudeTemplate()>& build, bool* hit) {
  {
    const support::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++hits_;
      if (hit) *hit = true;
      return it->second->second;
    }
  }
  // Build outside the lock; on a lost race adopt the winner's entry so all
  // callers share one instance (and one batched-plan memo).
  std::shared_ptr<const Entry> built(new Entry(this, build()));
  const support::MutexLock lock(mutex_);
  ++misses_;
  if (hit) *hit = false;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, built);
  index_.emplace(key, lru_.begin());
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return built;
}

std::size_t PlanCache::hits() const {
  const support::MutexLock lock(mutex_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  const support::MutexLock lock(mutex_);
  return misses_;
}

std::size_t PlanCache::size() const {
  const support::MutexLock lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  const support::MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
}

void PlanCache::note(bool hit) {
  const support::MutexLock lock(mutex_);
  if (hit)
    ++hits_;
  else
    ++misses_;
}

std::string PlanCache::template_key(int n, const std::vector<qc::Gate>& skeleton,
                                    std::uint64_t psi_bits, std::uint64_t v_bits,
                                    const tn::ContractOptions& copts) {
  std::string key;
  key.reserve(64 + skeleton.size() * 48);
  put_u64(key, 9);  // key-format version (9: no workspace budget option)
  put_u64(key, static_cast<std::uint64_t>(n));
  put_u64(key, psi_bits);
  put_u64(key, v_bits);
  put_u64(key, static_cast<std::uint64_t>(copts.strategy));
  put_u64(key, copts.max_tensor_elems);
  put_u64(key, copts.replays);
  put_u64(key, skeleton.size());
  for (const qc::Gate& g : skeleton) {
    put_u64(key, static_cast<std::uint64_t>(g.kind));
    put_u64(key, static_cast<std::uint64_t>(static_cast<std::int64_t>(g.qubits[0])));
    put_u64(key, static_cast<std::uint64_t>(static_cast<std::int64_t>(g.qubits[1])));
    put_u64(key, g.params.size());
    for (const double p : g.params) put_f64(key, p);
    put_matrix(key, g.custom);
  }
  return key;
}

std::string PlanCache::batched_key(std::span<const std::size_t> varying_slots,
                                   std::size_t capacity,
                                   std::span<const std::size_t> variant_counts,
                                   std::size_t max_varied_per_term,
                                   std::span<const char> unconstrained) {
  std::string key;
  key.reserve(32 + varying_slots.size() * 17);
  put_u64(key, capacity);
  put_u64(key, max_varied_per_term);
  put_u64(key, varying_slots.size());
  for (const std::size_t s : varying_slots) put_u64(key, s);
  put_u64(key, variant_counts.size());
  for (const std::size_t c : variant_counts) put_u64(key, c);
  put_u64(key, unconstrained.size());
  if (!unconstrained.empty()) put_bytes(key, unconstrained.data(), unconstrained.size());
  return key;
}

std::string PlanCache::env_key(std::span<const std::size_t> targets) {
  std::string key;
  key.reserve(8 + targets.size() * 8);
  put_u64(key, targets.size());
  for (const std::size_t t : targets) put_u64(key, t);
  return key;
}

}  // namespace noisim::core
