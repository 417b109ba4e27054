#include "core/approx.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "circuit/simplify.hpp"
#include "core/bounds.hpp"
#include "core/plan_cache.hpp"
#include "fault/fault.hpp"
#include "linalg/svd.hpp"
#include "support/mutex.hpp"

namespace noisim::core {

namespace {

// Placeholder matrices for not-yet-assigned noise insertions. Deliberately
// non-unitary so inverse-pair cancellation can never pair them with a gate.
la::Matrix placeholder_1q() { return la::Matrix{{2.0, 0.0}, {0.0, 3.0}}; }
la::Matrix placeholder_2q() {
  la::Matrix m(4, 4);
  m(0, 0) = 2.0;
  m(1, 1) = 3.0;
  m(2, 2) = 5.0;
  m(3, 3) = 7.0;
  return m;
}

struct Site {
  std::size_t arity;  // 1 or 2 qubits
  SplitNoise split;
  double rate;  // noise rate of the channel (for the Theorem-1 bound)
};

struct BaseLists {
  std::vector<qc::Gate> gates;  // circuit gates + tagged placeholders
  std::vector<Site> sites;
};

// Gate-list skeleton with one tagged placeholder per noise site. The tag
// (params[0]) survives simplification, so insertion positions can be
// located after inverse-pair cancellation.
BaseLists build_base(const ch::NoisyCircuit& nc) {
  BaseLists base;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      base.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    qc::Gate tag = noise.num_qubits() == 1
                       ? qc::u1q(noise.qubit, placeholder_1q())
                       : qc::u2q(noise.qubit, noise.qubit2, placeholder_2q());
    tag.params = {static_cast<double>(base.sites.size())};
    base.gates.push_back(std::move(tag));

    Site site;
    site.arity = static_cast<std::size_t>(noise.num_qubits());
    site.split = split_noise(noise.channel);
    site.rate = noise.channel.noise_rate();
    const std::size_t want = site.arity == 1 ? 4 : 16;
    la::detail::require(site.split.terms() == want,
                        "approximate_fidelity: unexpected split term count");
    base.sites.push_back(std::move(site));
  }
  return base;
}

// All size-k subsets of {0, ..., n-1} in lexicographic order.
std::vector<std::vector<std::size_t>> combinations(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> cur(k);
  for (std::size_t i = 0; i < k; ++i) cur[i] = i;
  while (true) {
    out.push_back(cur);
    if (k == 0) break;
    std::size_t i = k;
    bool advanced = false;
    while (i-- > 0) {
      if (cur[i] + (k - i) < n) {
        ++cur[i];
        for (std::size_t j = i + 1; j < k; ++j) cur[j] = cur[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return out;
}

// Indices of the tagged placeholders inside a (possibly simplified) list.
std::vector<std::size_t> locate_sites(const std::vector<qc::Gate>& gates,
                                      std::size_t num_sites) {
  std::vector<std::size_t> pos(num_sites, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const qc::Gate& g = gates[i];
    if ((g.kind == qc::GateKind::U1q || g.kind == qc::GateKind::U2q) && g.params.size() == 1)
      pos[static_cast<std::size_t>(g.params[0])] = i;
  }
  for (std::size_t p : pos)
    la::detail::require(p != static_cast<std::size_t>(-1),
                        "approximate_fidelity: insertion lost during simplification");
  return pos;
}

// The skeleton every Algorithm-1 evaluation runs on: the base gate list,
// inverse-pair simplified once if eval.simplify asks, the noise sites
// located in it, and the options its templates compile under (simplify
// already applied). The sweep and approx_cost_model both build it here, so
// the template estimation compiles carries the same plan-cache key the run
// replays.
struct SweepSkeleton {
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> site_pos;
  EvalOptions eval;
};

SweepSkeleton sweep_skeleton(std::vector<qc::Gate> gates, std::size_t num_sites,
                             const EvalOptions& eval) {
  SweepSkeleton sk{eval.simplify ? qc::cancel_inverse_pairs(std::move(gates)) : std::move(gates),
                   {}, eval};
  sk.site_pos = locate_sites(sk.gates, num_sites);
  sk.eval.simplify = false;
  return sk;
}

// One enumerated term: which sites carry which subdominant index.
struct Term {
  std::size_t level;
  std::vector<std::size_t> sites;
  std::vector<std::size_t> term_idx;
};

std::vector<Term> enumerate_terms(const std::vector<Site>& sites, std::size_t level) {
  std::vector<Term> out;
  for (std::size_t u = 0; u <= level; ++u) {
    for (const std::vector<std::size_t>& chosen : combinations(sites.size(), u)) {
      std::vector<std::size_t> idx(u, 1);
      while (true) {
        out.push_back(Term{u, chosen, idx});
        std::size_t pos = 0;
        while (pos < u && idx[pos] + 1 == sites[chosen[pos]].split.terms()) idx[pos++] = 1;
        if (pos == u) break;
        ++idx[pos];
      }
    }
  }
  return out;
}

// Shared progress accounting (the contract ApproxOptions::progress
// documents): the counter is atomic and the possibly-not-thread-safe user
// callback is serialized behind a mutex, incremented inside the lock so
// observed values are strictly increasing by one.
class SerializedProgress {
 public:
  explicit SerializedProgress(const std::function<void(std::size_t)>& callback)
      : callback_(callback) {}
  void note() EXCLUDES(mutex_) {
    if (callback_) {
      const support::MutexLock lock(mutex_);
      callback_(++done_);
    } else {
      ++done_;
    }
  }

 private:
  // Immutable reference; the (possibly not thread-safe) callee is what the
  // mutex serializes, not the member itself.
  const std::function<void(std::size_t)>& callback_;
  std::atomic<std::size_t> done_{0};
  support::Mutex mutex_;
};

// Wall-clock split of a sweep: everything before eval_started() is the
// upfront setup (network build + plan compilation -- or plan-cache lookups
// -- paid once per sweep), everything after is the per-term evaluation loop.
class SweepTimer {
 public:
  SweepTimer(double& plan_seconds, double& eval_seconds)
      : plan_seconds_(plan_seconds), eval_seconds_(eval_seconds) {}
  void eval_started() {
    eval_started_ = Clock::now();
    plan_seconds_ = std::chrono::duration<double>(eval_started_ - setup_started_).count();
  }
  void eval_done() {
    eval_seconds_ = std::chrono::duration<double>(Clock::now() - eval_started_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double& plan_seconds_;
  double& eval_seconds_;
  Clock::time_point setup_started_ = Clock::now();
  Clock::time_point eval_started_{};
};

// Tensorized SVD factors per (site, term index) and the network node each
// site substitutes. The bottom template is built
// with conjugate=true, which conjugates whatever matrix the site gate
// carries; the seed path stored conj(V) there to apply V itself, and
// conj(conj(V)) == V bitwise, so V enters the substitution directly.
struct SiteFactors {
  std::vector<std::size_t> node;                   // network node per site
  std::vector<std::vector<tsr::Tensor>> top, bot;  // U / V factor tensors
};
SiteFactors build_site_factors(const std::vector<Site>& sites,
                               const std::vector<std::size_t>& site_pos,
                               const AmplitudeTemplate& tmpl) {
  SiteFactors f;
  const std::size_t num_sites = sites.size();
  f.node.resize(num_sites);
  f.top.resize(num_sites);
  f.bot.resize(num_sites);
  for (std::size_t s = 0; s < num_sites; ++s) {
    f.node[s] = tmpl.node_of_gate(site_pos[s]);
    const Site& site = sites[s];
    for (std::size_t t = 0; t < site.split.terms(); ++t) {
      f.top[s].push_back(gate_matrix_tensor(site.split.u[t], static_cast<int>(site.arity)));
      f.bot[s].push_back(gate_matrix_tensor(site.split.v[t], static_cast<int>(site.arity)));
    }
  }
  return f;
}

// Error bounds: the paper's Theorem 1 when every site is 1-qubit, and the
// generalized per-site product bound (numerically tight) always.
void fill_error_bounds(const std::vector<Site>& sites, std::size_t level, double max_rate,
                       double& error_bound, double& tight_error_bound) {
  std::vector<double> dominant_norms, subdominant_norms;
  bool all_1q = true;
  for (const Site& s : sites) {
    dominant_norms.push_back(la::spectral_norm(s.split.term(0)));
    subdominant_norms.push_back(s.split.dominant_term_error());
    if (s.arity != 1) all_1q = false;
  }
  tight_error_bound = generalized_error_bound(dominant_norms, subdominant_norms, level);
  error_bound =
      all_1q ? theorem1_error_bound(sites.size(), max_rate, level) : tight_error_bound;
}

// --- plan-cache acquisition ---------------------------------------------------

// A template either served from an ApproxOptions::plan_cache entry (shared,
// kept alive by the entry pointer) or compiled for this call. Both hand out
// a stable reference; cached batched plans are memoized inside the entry.
struct AcquiredTemplate {
  std::shared_ptr<const PlanCache::Entry> entry;  // cached case
  std::shared_ptr<const AmplitudeTemplate> owned;  // cache-free case
  const AmplitudeTemplate& tmpl() const { return entry ? entry->tmpl() : *owned; }
};

AcquiredTemplate acquire_template(PlanCache* cache, int n,
                                  const std::vector<qc::Gate>& skeleton,
                                  std::uint64_t psi_bits, std::uint64_t v_bits,
                                  bool conjugate, const EvalOptions& eval,
                                  tn::ContractStats& setup_stats) {
  AcquiredTemplate out;
  if (cache) {
    bool hit = false;
    out.entry = cache->entry(
        PlanCache::template_key(n, skeleton, psi_bits, v_bits, conjugate, eval.tn),
        [&] {
          return AmplitudeTemplate(n, skeleton, psi_bits, v_bits, conjugate, eval);
        },
        &hit);
    if (hit) {
      ++setup_stats.plan_cache_hits;
    } else {
      ++setup_stats.plan_cache_misses;
      setup_stats.merge(out.entry->tmpl().compile_stats());
    }
  } else {
    out.owned =
        std::make_shared<const AmplitudeTemplate>(n, skeleton, psi_bits, v_bits, conjugate, eval);
    setup_stats.merge(out.owned->compile_stats());
  }
  return out;
}

std::shared_ptr<const tn::BatchedPlan> acquire_batched(
    const AcquiredTemplate& at, std::span<const std::size_t> slots, std::size_t capacity,
    std::span<const std::size_t> variant_counts, std::size_t max_varied_per_term,
    std::span<const char> unconstrained, tn::ContractStats& setup_stats) {
  if (at.entry) {
    bool hit = false;
    tn::ContractStats compile_stats;
    auto plan = at.entry->batched(
        PlanCache::batched_key(slots, capacity, variant_counts, max_varied_per_term,
                               unconstrained),
        [&] {
          return at.tmpl().compile_batched(slots, capacity, &compile_stats, variant_counts,
                                           max_varied_per_term, unconstrained);
        },
        &hit);
    if (hit) {
      ++setup_stats.plan_cache_hits;
    } else {
      ++setup_stats.plan_cache_misses;
      setup_stats.merge(compile_stats);
    }
    return plan;
  }
  return std::make_shared<const tn::BatchedPlan>(at.tmpl().compile_batched(
      slots, capacity, &setup_stats, variant_counts, max_varied_per_term, unconstrained));
}

// --- the sharded 2-D sweep engine ---------------------------------------------

// One work item evaluates terms [t0, t0 + tcount) at outputs
// [obegin, obegin + ocount): out[t * ocount + o] = term value at output o.
// Every value is bit-identical to the single-output reference's value for
// that (term, output) pair -- batching only shares work, never changes bits.
using ItemEval = std::function<void(std::size_t t0, std::size_t tcount, std::size_t obegin,
                                    std::size_t ocount, std::span<cplx> out,
                                    tn::ContractStats& stats)>;
struct WorkerEval {
  ItemEval eval;
  // Merge any session-held stats into the worker's record (called once,
  // after the worker drains the queue).
  std::function<void(tn::ContractStats&)> flush;
};

// Streaming fold state for one output chunk (guarded by SweepQueue::mutex_).
// The stash is an ORDERED map on purpose: folding walks completed ranges in
// ascending term-enumeration order (lint rule unordered-fold).
struct ChunkFold {
  std::size_t begin = 0, count = 0;  // output range of the chunk
  std::size_t cursor = 0;            // next term range to fold
  std::vector<cplx> sums;            // count x (level + 1), output-major
  std::map<std::size_t, std::size_t> stash;  // completed range -> buffer
};

// Scheduler for the sharded (term-range x output-chunk) work queue: item
// claims, the bounded buffer pool, the cooperative cancel/abort flags, the
// first-exception slot, the per-chunk streaming folds, and the
// outstanding-chunk progress counters all live behind ONE annotated mutex,
// so -Wthread-safety proves every cross-worker access is locked. Workers
// call claim() -- which also polls the RunControl, the poll point of the
// engine's cancellation contract -- evaluate the claimed item into their
// pool buffer WITHOUT the lock (buffer ownership travels with the claim),
// and hand the buffer back through fold_item(). After the join, the owning
// thread runs finish() (stash drain + pool-integrity check + rethrow) and
// moves the fold results out by value via take_folds().
class SweepQueue {
 public:
  SweepQueue(const std::vector<Term>& terms, std::size_t K, std::size_t shard,
             std::size_t level, std::size_t term_batch, std::size_t num_ranges,
             std::size_t num_chunks, std::size_t pool_size, const RunControl* control)
      : terms_(terms),
        num_terms_(terms.size()),
        num_chunks_(num_chunks),
        num_ranges_(num_ranges),
        num_items_(num_ranges * num_chunks),
        level_(level),
        term_batch_(term_batch),
        pool_size_(pool_size),
        control_(control) {
    folds_.resize(num_chunks_);
    for (std::size_t c = 0; c < num_chunks_; ++c) {
      folds_[c].begin = c * shard;
      folds_[c].count = std::min(shard, K - folds_[c].begin);
      folds_[c].sums.assign(folds_[c].count * (level_ + 1), cplx{0.0, 0.0});
    }
    // Outstanding chunk folds per term, for the TERM-counting progress
    // contract: a term is reported once every chunk has folded it.
    term_pending_.assign(num_terms_, num_chunks_);
    free_bufs_.resize(pool_size_);
    for (std::size_t b = 0; b < pool_size_; ++b) free_bufs_[b] = b;
  }

  /// Claim the next (range, chunk) item together with a pool buffer,
  /// blocking while the pool is empty. Polls the RunControl first
  /// (cancellation/deadline at item-claim granularity: a cancel drains the
  /// queue for salvage, a deadline or any other control error aborts).
  /// Returns false when the worker should stop claiming: queue exhausted,
  /// a sibling aborted, or a cancel was observed.
  bool claim(std::size_t* range, std::size_t* chunk, std::size_t* buf) EXCLUDES(mutex_) {
    if (control_) {
      try {
        control_->poll();
      } catch (const CancelledError&) {
        record_cancel();
        return false;
      } catch (...) {
        // A non-cancel control error (deadline, memory ceiling) aborts the
        // sweep; stash the exception OBJECT explicitly so finish() rethrows
        // the TimeoutError/MemoryOutError that actually fired, never a
        // generic "a worker stopped".
        record_abort(std::current_exception());
        return false;
      }
    }
    const support::MutexLock lock(mutex_);
    while (!(aborted_ || cancelled_ || next_item_ >= num_items_ || !free_bufs_.empty()))
      cv_.wait(mutex_);
    if (aborted_ || cancelled_ || next_item_ >= num_items_) return false;
    const std::size_t item = next_item_++;
    *buf = free_bufs_.back();
    free_bufs_.pop_back();
    if (next_item_ >= num_items_) cv_.notify_all();
    // Range-major item order: for any chunk, lower term ranges are
    // dispensed first, so every stashed buffer's predecessor is already in
    // flight -- the fold below always advances.
    *range = item / num_chunks_;
    *chunk = item % num_chunks_;
    return true;
  }

  /// Record the first worker/control exception (passed explicitly, never
  /// fished out of ambient state) and tell siblings to drain; finish()
  /// rethrows exactly that object after the join. The buffer-returning
  /// overload hands the claimed buffer back to the pool (an abandoned item
  /// computes nothing, so its buffer is clean).
  void record_abort(std::exception_ptr err) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    abort_locked(std::move(err));
  }
  void record_abort(std::size_t buf, std::exception_ptr err) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    free_bufs_.push_back(buf);
    abort_locked(std::move(err));
  }

  /// Record an explicit cancel: the queue drains and the caller SALVAGES
  /// completed chunks instead of throwing (xeb_sweep's salvage contract).
  void record_cancel() EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    cancel_locked();
  }
  void record_cancel(std::size_t buf) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    free_bufs_.push_back(buf);
    cancel_locked();
  }

  /// Stash the completed item's buffer and fold every consecutively ready
  /// range in term-enumeration order -- the same arithmetic, in the same
  /// order, as the per-bitstring reference's reduction. Returns how many
  /// terms completed their LAST outstanding chunk (progress accounting;
  /// the caller reports them outside the lock). `buffers` is the pool
  /// storage: the claiming worker wrote values[buf] without the lock, and
  /// this mutex hand-off is what publishes them to whichever worker folds.
  std::size_t fold_item(std::size_t range, std::size_t chunk, std::size_t buf,
                        const std::vector<std::vector<cplx>>& buffers) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    ChunkFold& cf = folds_[chunk];
    cf.stash.emplace(range, buf);
    std::size_t terms_done = 0;
    for (auto it = cf.stash.find(cf.cursor); it != cf.stash.end();
         it = cf.stash.find(cf.cursor)) {
      const std::size_t fbuf = it->second;
      const std::size_t f0 = cf.cursor * term_batch_;
      const std::size_t fcount = std::min(term_batch_, num_terms_ - f0);
      const std::vector<cplx>& fv = buffers[fbuf];
      for (std::size_t t = 0; t < fcount; ++t) {
        const std::size_t u = terms_[f0 + t].level;
        for (std::size_t o = 0; o < cf.count; ++o)
          cf.sums[o * (level_ + 1) + u] += fv[t * cf.count + o];
        if (--term_pending_[f0 + t] == 0) ++terms_done;
      }
      cf.stash.erase(it);
      free_bufs_.push_back(fbuf);
      ++cf.cursor;
    }
    cv_.notify_all();
    return terms_done;
  }

  /// Teardown, called once after every worker joined: stashed buffers whose
  /// predecessor range never arrived (abort / cancel) go back to the pool,
  /// after which every buffer must be accounted for -- a leak here would
  /// strand values across reruns. Rethrows the first worker exception.
  void finish() EXCLUDES(mutex_) {
    std::exception_ptr err;
    {
      const support::MutexLock lock(mutex_);
      for (ChunkFold& cf : folds_) {
        for (const auto& [range, fbuf] : cf.stash) free_bufs_.push_back(fbuf);
        cf.stash.clear();
      }
      la::detail::require(free_bufs_.size() == pool_size_,
                          "sweep_outputs: buffer pool integrity lost during teardown");
      err = abort_error_;
    }
    if (err) std::rethrow_exception(err);
  }

  bool was_cancelled() const EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    return cancelled_;
  }

  /// Move the fold results out (by value, per the no-references-into-
  /// guarded-state convention). Call after finish().
  std::vector<ChunkFold> take_folds() EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    return std::move(folds_);
  }

 private:
  void abort_locked(std::exception_ptr err) REQUIRES(mutex_) {
    aborted_ = true;
    if (!abort_error_) abort_error_ = std::move(err);
    cv_.notify_all();
  }
  void cancel_locked() REQUIRES(mutex_) {
    cancelled_ = true;
    cv_.notify_all();
  }

  const std::vector<Term>& terms_;  // immutable enumeration-order term list
  const std::size_t num_terms_;
  const std::size_t num_chunks_;
  const std::size_t num_ranges_;
  const std::size_t num_items_;
  const std::size_t level_;
  const std::size_t term_batch_;
  const std::size_t pool_size_;
  const RunControl* const control_;  // polled, never written

  mutable support::Mutex mutex_;
  support::CondVar cv_;  // lint: not-guarded(condvar; always signalled with mutex_ held)
  std::size_t next_item_ GUARDED_BY(mutex_) = 0;
  bool aborted_ GUARDED_BY(mutex_) = false;    // worker threw: drain, rethrow after join
  bool cancelled_ GUARDED_BY(mutex_) = false;  // explicit cancel: drain, then SALVAGE
  std::exception_ptr abort_error_ GUARDED_BY(mutex_);
  std::vector<std::size_t> free_bufs_ GUARDED_BY(mutex_);  // bounded buffer pool
  std::vector<ChunkFold> folds_ GUARDED_BY(mutex_);
  std::vector<std::size_t> term_pending_ GUARDED_BY(mutex_);
};

// The one Algorithm-1 engine, behind approximate_fidelity (K = 1),
// approximate_fidelity_outputs and xeb_sweep: a single 2-D (term-range x
// output-chunk) work queue drained by `threads` workers, with a streaming
// chunk-ordered reduction.
//
//  * Items are dispensed in range-major order together with a buffer from a
//    bounded pool (threads + 2 buffers): a worker only claims an item when
//    a buffer is free, so every in-flight item is actually computing --
//    which is what guarantees the fold below always makes progress and the
//    transient value storage stays O(threads x item), never O(terms x K).
//  * Each chunk folds its term values strictly in global term-enumeration
//    order: completed items land in a per-chunk stash and are folded as
//    soon as they become the chunk's next range, reproducing the reference
//    reduction arithmetic (term_sums[level] += value, term by term) exactly
//    -- at any thread count, shard size, or completion order.
//  * A term's progress callback fires once its value has been folded for
//    every output chunk (term counts stay strictly increasing by one).
ApproxBatchResult sweep_outputs(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                std::span<const std::uint64_t> v_bits,
                                const ApproxOptions& opts, std::size_t shard_outputs) {
  const int n = nc.num_qubits();
  const std::size_t K = v_bits.size();
  BaseLists base = build_base(nc);
  const std::size_t num_sites = base.sites.size();
  const std::size_t level = std::min(opts.level, num_sites);

  ApproxBatchResult result;
  fill_error_bounds(base.sites, level, nc.max_noise_rate(), result.error_bound,
                    result.tight_error_bound);
  // K == 0 is a well-defined empty sweep: bounds only, no compiled plans
  // (a capacity-0 batched plan must never be requested).
  if (K == 0) return result;

  SweepSkeleton sk = sweep_skeleton(std::move(base.gates), num_sites, opts.eval);

  // Cooperative control for this sweep. Threading it through sk.eval.tn
  // covers plan compilation; cached templates null it out of their stored
  // options (circuit_network.cpp), so a PlanCache hit can never replay a
  // dangling pointer -- per-execution polling flows through
  // Session::set_control.
  const RunControl* control = opts.control;
  sk.eval.tn.control = control;

  const std::vector<Term> terms = enumerate_terms(base.sites, level);
  const std::size_t num_terms = terms.size();
  const std::size_t nn = static_cast<std::size_t>(n);

  SerializedProgress progress(opts.progress);
  tn::ContractStats setup_stats;
  SweepTimer timer(result.plan_seconds, result.eval_seconds);

  const bool tn_path = uses_tensor_network(sk.eval, n);

  // Output shards (work-queue granularity along the bitstring axis). The
  // state-vector path defaults to one shard: its per-term evaluation already
  // covers every output in one evolution, so chunking would only repeat it.
  const std::size_t shard =
      std::min(K, shard_outputs > 0 ? shard_outputs : (tn_path ? kOutputChunk : K));
  const std::size_t num_chunks = (K + shard - 1) / shard;

  // Term ranges: batch_terms wide, additionally capped so one batched
  // traversal holds at most kMaxBatchPairs (term, output) pairs. That width sizes
  // the batched plans; when the queue would still hold fewer items than
  // workers (a single output is one chunk), the ranges narrow further so
  // every worker gets one -- a batch below capacity never changes bits.
  const std::size_t out_chunk = std::min(shard, kOutputChunk);
  std::size_t term_batch = std::min({std::max<std::size_t>(opts.batch_terms, 1), num_terms,
                                     std::max<std::size_t>(kMaxBatchPairs / out_chunk, 1)});
  const std::size_t capacity = term_batch * out_chunk;
  const std::size_t ranges_wanted =
      (std::max<std::size_t>(opts.threads, 1) + num_chunks - 1) / num_chunks;
  if ((num_terms + term_batch - 1) / term_batch < ranges_wanted)
    term_batch = (num_terms + ranges_wanted - 1) / ranges_wanted;
  const std::size_t num_ranges = (num_terms + term_batch - 1) / term_batch;

  // --- plan-replay setup (templates, plans, factor tensors) ----------------
  // A cancel that lands during setup (template/batched-plan compilation
  // polls the control) salvages the well-defined "nothing completed yet"
  // result instead of leaking a throw: cancelled = true, every output
  // invalid. Deadlines and real errors still throw from here.
  auto salvage_empty = [&]() -> ApproxBatchResult {
    result.cancelled = true;
    result.valid.assign(K, 0);
    result.values.assign(K, 0.0);
    result.raw.assign(K, cplx{0.0, 0.0});
    result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
    result.level_values.assign(K, std::vector<double>(level + 1, 0.0));
    return result;
  };

  AcquiredTemplate top_at, bot_at;
  std::shared_ptr<const tn::BatchedPlan> top_bplan, bot_bplan;
  SiteFactors fac;
  std::vector<const tsr::Tensor*> caps_of_output;
  std::vector<std::size_t> slots;
  std::size_t V = 0;

  try {
  if (tn_path) {
    // Canonical v = 0 templates: the output caps are placeholders (always
    // substituted below), so one cached entry serves EVERY bitstring set
    // over this skeleton -- that is what makes the plan cache hit across
    // XEB batches arriving over time.
    top_at = acquire_template(opts.plan_cache, n, sk.gates, psi_bits, 0, /*conjugate=*/false,
                              sk.eval, setup_stats);
    bot_at = acquire_template(opts.plan_cache, n, sk.gates, psi_bits, 0, /*conjugate=*/true,
                              sk.eval, setup_stats);
    fac = build_site_factors(base.sites, sk.site_pos, top_at.tmpl());

    // Per-output cap pointer table (the template's shared <0|/<1| objects,
    // so the executor's pointer compaction shares rows across bitstrings).
    // Basis caps are real, so the same tensors serve the conjugated bottom
    // layer.
    caps_of_output.resize(K * nn);
    for (std::size_t o = 0; o < K; ++o)
      top_at.tmpl().fill_output_caps(v_bits[o],
                                     std::span(caps_of_output).subspan(o * nn, nn));

    // Combined varying slots: the noise sites keep Algorithm 1's per-term
    // deviation promise (<= level), the output caps flip freely.
    const std::vector<std::size_t> cap_nodes = top_at.tmpl().output_cap_nodes();
    slots = fac.node;
    slots.insert(slots.end(), cap_nodes.begin(), cap_nodes.end());
    V = slots.size();
    std::vector<std::size_t> counts(V, 2);
    std::vector<char> unconstrained(V, 0);
    for (std::size_t s = 0; s < num_sites; ++s) counts[s] = base.sites[s].split.terms();
    for (std::size_t v = num_sites; v < V; ++v) unconstrained[v] = 1;

    // Both layers batch or neither does: without a batched plan (1 x 1
    // items, a combined batch beyond the workspace budget, or one that
    // shares nothing) each term replays the per-term plans, bit-identically.
    top_bplan = batched_plan_or_null(capacity, [&] {
      return acquire_batched(top_at, slots, capacity, counts, level, unconstrained, setup_stats);
    });
    if (top_bplan)
      bot_bplan = batched_plan_or_null(capacity, [&] {
        return acquire_batched(bot_at, slots, capacity, counts, level, unconstrained,
                               setup_stats);
      });
    if (!bot_bplan) top_bplan.reset();
  }
  } catch (const CancelledError&) {
    return salvage_empty();
  }

  // Per-worker evaluator factory for the two (bit-identical) paths.
  std::function<WorkerEval(std::size_t)> make_eval;
  if (tn_path) {
    // Plan replay: each item covers (term range x <= out_chunk outputs)
    // pairs per evaluator call -- noise slots level-capped, cap slots
    // unconstrained.
    make_eval = [&](std::size_t) -> WorkerEval {
      auto top =
          std::make_shared<ReplayEvaluator>(top_at.tmpl(), slots, top_bplan.get(), control);
      auto bot =
          std::make_shared<ReplayEvaluator>(bot_at.tmpl(), slots, bot_bplan.get(), control);
      auto top_ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(capacity * V);
      auto bot_ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(capacity * V);
      auto top_amp = std::make_shared<std::vector<cplx>>(capacity);
      auto bot_amp = std::make_shared<std::vector<cplx>>(capacity);
      WorkerEval we;
      we.eval = [&, top, bot, top_ptrs, bot_ptrs, top_amp, bot_amp](
                    std::size_t t0, std::size_t tcount, std::size_t obegin,
                    std::size_t ocount, std::span<cplx> out, tn::ContractStats&) {
        for (std::size_t o0 = 0; o0 < ocount; o0 += out_chunk) {
          const std::size_t oc = std::min(out_chunk, ocount - o0);
          const std::size_t kk = tcount * oc;
          for (std::size_t t = 0; t < tcount; ++t) {
            const Term& term = terms[t0 + t];
            for (std::size_t o = 0; o < oc; ++o) {
              const std::size_t p = (t * oc + o) * V;
              // Dominant factor everywhere, subdominant at the chosen
              // sites; the output chunk's caps in the trailing slots.
              for (std::size_t s = 0; s < num_sites; ++s) {
                (*top_ptrs)[p + s] = &fac.top[s][0];
                (*bot_ptrs)[p + s] = &fac.bot[s][0];
              }
              for (std::size_t c = 0; c < term.sites.size(); ++c) {
                const std::size_t s = term.sites[c];
                (*top_ptrs)[p + s] = &fac.top[s][term.term_idx[c]];
                (*bot_ptrs)[p + s] = &fac.bot[s][term.term_idx[c]];
              }
              for (std::size_t q = 0; q < nn; ++q) {
                const tsr::Tensor* cap = caps_of_output[(obegin + o0 + o) * nn + q];
                (*top_ptrs)[p + num_sites + q] = cap;
                (*bot_ptrs)[p + num_sites + q] = cap;
              }
            }
          }
          top->evaluate({}, std::span<const tsr::Tensor* const>(*top_ptrs).first(kk * V), kk,
                        *top_amp);
          bot->evaluate({}, std::span<const tsr::Tensor* const>(*bot_ptrs).first(kk * V), kk,
                        *bot_amp);
          for (std::size_t t = 0; t < tcount; ++t)
            for (std::size_t o = 0; o < oc; ++o)
              out[t * ocount + o0 + o] = (*top_amp)[t * oc + o] * (*bot_amp)[t * oc + o];
        }
      };
      we.flush = [top, bot](tn::ContractStats& stats) {
        stats.merge(top->stats());
        stats.merge(bot->stats());
      };
      return we;
    };
  } else {
    // State-vector path: each term materializes its gate lists and
    // evaluates the chunk's outputs through batch_amplitudes (one evolution
    // per layer per term per chunk).
    make_eval = [&](std::size_t) -> WorkerEval {
      auto top = std::make_shared<std::vector<qc::Gate>>(sk.gates);
      auto bottom = std::make_shared<std::vector<qc::Gate>>(sk.gates);
      WorkerEval we;
      we.eval = [&, top, bottom](std::size_t t0, std::size_t tcount, std::size_t obegin,
                                 std::size_t ocount, std::span<cplx> out,
                                 tn::ContractStats& stats) {
        const std::span<const std::uint64_t> chunk_outputs = v_bits.subspan(obegin, ocount);
        for (std::size_t t = 0; t < tcount; ++t) {
          if (control) control->poll();  // state-vector terms have no inner poll points
          const Term& term = terms[t0 + t];
          for (std::size_t s = 0; s < num_sites; ++s) {
            std::size_t ti = 0;
            for (std::size_t c = 0; c < term.sites.size(); ++c)
              if (term.sites[c] == s) ti = term.term_idx[c];
            (*top)[sk.site_pos[s]].custom = base.sites[s].split.u[ti];
            // The bottom layer is evaluated with conjugate=true (which
            // conjugates every matrix), so store conj(V) to apply V itself.
            (*bottom)[sk.site_pos[s]].custom = base.sites[s].split.v[ti].conj();
          }
          const std::vector<cplx> top_amp = batch_amplitudes(
              n, *top, psi_bits, chunk_outputs, /*conjugate=*/false, sk.eval, &stats);
          const std::vector<cplx> bot_amp = batch_amplitudes(
              n, *bottom, psi_bits, chunk_outputs, /*conjugate=*/true, sk.eval, &stats);
          for (std::size_t o = 0; o < ocount; ++o) out[t * ocount + o] = top_amp[o] * bot_amp[o];
        }
      };
      we.flush = [](tn::ContractStats&) {};
      return we;
    };
  }

  // --- scheduler + streaming fold ------------------------------------------
  const std::size_t num_items = num_ranges * num_chunks;
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(opts.threads, num_items));
  std::vector<tn::ContractStats> worker_stats(threads);

  // Bounded buffer pool: claiming an item claims a buffer with it, so a
  // stalled chunk can never strand completed-but-unfoldable values beyond
  // the pool -- the O(outputs) table bound of the engine contract. The pool
  // STORAGE lives out here (workers write their claimed slot lock-free);
  // the free list and all other shared scheduler state live inside the
  // annotated SweepQueue above.
  const std::size_t pool_size = std::min(num_items, threads + 2);
  std::vector<std::vector<cplx>> buffers(pool_size);

  SweepQueue queue(terms, K, shard, level, term_batch, num_ranges, num_chunks,
                   pool_size, control);

  timer.eval_started();
  auto worker = [&](std::size_t w) {
    WorkerEval we;
    try {
      we = make_eval(w);  // session construction allocates; it can fail too
    } catch (...) {
      queue.record_abort(std::current_exception());
      return;
    }
    while (true) {
      std::size_t r = 0, c = 0, buf = 0;
      if (!queue.claim(&r, &c, &buf)) break;
      const std::size_t t0 = r * term_batch;
      const std::size_t tcount = std::min(term_batch, num_terms - t0);
      const std::size_t obegin = c * shard;
      const std::size_t ocount = std::min(shard, K - obegin);
      std::vector<cplx>& vbuf = buffers[buf];
      try {
        fault::poke("sweep-worker");
        vbuf.resize(tcount * ocount);
        we.eval(t0, tcount, obegin, ocount, std::span<cplx>(vbuf), worker_stats[w]);
      } catch (const CancelledError&) {
        // Step-granularity cancel inside the plan executor: the claimed item
        // is abandoned (its chunk stays short of num_ranges, so it reports
        // invalid), the buffer goes straight back to the pool, and the queue
        // drains for salvage like the claim-time cancel inside claim().
        queue.record_cancel(buf);
        break;
      } catch (...) {
        queue.record_abort(buf, std::current_exception());
        break;
      }
      std::size_t terms_done = queue.fold_item(r, c, buf, buffers);
      // The user callback runs OUTSIDE the scheduler lock: a slow callback
      // only delays this worker (the documented contract), and a throwing
      // one unwinds after the fold state and buffers are already
      // consistent, so the other workers drain the queue and the exception
      // surfaces through the join below.
      for (; terms_done > 0; --terms_done) progress.note();
    }
    we.flush(worker_stats[w]);
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      futures.push_back(std::async(std::launch::async, worker, w));
    for (auto& f : futures) f.get();
  }
  queue.finish();
  timer.eval_done();

  // Deterministic stats reduction: setup first, then workers in order.
  result.contract_stats.merge(setup_stats);
  for (const tn::ContractStats& ws : worker_stats) result.contract_stats.merge(ws);

  // Per-output assembly from the streamed level sums -- the same arithmetic,
  // in the same order, as the output's single-output sweep.
  const std::vector<ChunkFold> folds = queue.take_folds();
  result.values.assign(K, 0.0);
  result.raw.assign(K, cplx{0.0, 0.0});
  result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
  result.level_values.assign(K, {});
  result.cancelled = queue.was_cancelled();
  result.valid.assign(K, 1);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const ChunkFold& cf = folds[c];
    // Salvage contract: a chunk's outputs are valid only once every term
    // range has been folded into it -- those sums are then bitwise equal to
    // the uncancelled run's, because the fold order per chunk is fixed.
    const bool chunk_valid = cf.cursor == num_ranges;
    for (std::size_t o = 0; o < cf.count; ++o) {
      const std::size_t go = cf.begin + o;
      if (!chunk_valid) result.valid[go] = 0;
      for (std::size_t u = 0; u <= level; ++u)
        result.term_sums[go][u] = cf.sums[o * (level + 1) + u];
      for (std::size_t u = 0; u <= level; ++u) {
        result.raw[go] += result.term_sums[go][u];
        result.level_values[go].push_back(result.raw[go].real());
      }
      result.values[go] = result.raw[go].real();
    }
  }
  result.contractions = 2 * num_terms * K;
  return result;
}

// A sweep whose cancel raises instead of salvaging (approximate_fidelity's
// and approximate_fidelity_outputs' contract; salvage is xeb_sweep's only).
ApproxBatchResult sweep_or_throw(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::span<const std::uint64_t> v_bits,
                                 const ApproxOptions& opts, const char* what) {
  ApproxBatchResult r = sweep_outputs(nc, psi_bits, v_bits, opts, /*shard_outputs=*/0);
  if (r.cancelled) throw CancelledError(std::string(what) + " cancelled via RunControl");
  return r;
}

}  // namespace

double ApproxCostModel::error_bound(std::size_t level) const {
  return generalized_error_bound(dominant_norms, subdominant_norms,
                                 std::min(level, num_sites));
}

double ApproxCostModel::term_count(std::size_t level) const {
  // Elementary symmetric sums over the per-site subdominant choice counts
  // (split_terms[s] - 1): e_u sums the products over every u-subset of
  // sites, so the level-l sweep enumerates sum_{u<=l} e_u terms -- equal to
  // sum_{u<=l} C(N,u) 3^u (contraction_count / 2) when every site is
  // 1-qubit.
  const std::size_t l = std::min(level, num_sites);
  std::vector<double> e(l + 1, 0.0);
  e[0] = 1.0;
  for (std::size_t s = 0; s < num_sites; ++s) {
    const double choices = static_cast<double>(split_terms[s] - 1);
    for (std::size_t u = std::min(l, s + 1); u > 0; --u) e[u] += e[u - 1] * choices;
  }
  double total = 0.0;
  for (const double x : e) total += x;
  return total;
}

ApproxCostModel approx_cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  const ApproxOptions& opts) {
  const int n = nc.num_qubits();
  BaseLists base = build_base(nc);

  ApproxCostModel model;
  model.num_sites = base.sites.size();
  model.max_rate = nc.max_noise_rate();
  for (const Site& s : base.sites) {
    model.dominant_norms.push_back(la::spectral_norm(s.split.term(0)));
    model.subdominant_norms.push_back(s.split.dominant_term_error());
    model.split_terms.push_back(s.split.terms());
    if (s.arity != 1) model.all_1q = false;
  }

  // The sweep's own skeleton, so the template below is the one the run replays.
  const SweepSkeleton sk = sweep_skeleton(std::move(base.gates), model.num_sites, opts.eval);

  model.tensor_network = uses_tensor_network(sk.eval, n);
  if (model.tensor_network) {
    // Compile (or fetch) the top-layer template under the sweep's own
    // canonical v = 0 cache key: the plan's flops/arena ARE the per-layer
    // cost (the output caps only change tensor values, never the plan), and
    // a cache miss here is work the run would have paid anyway.
    tn::ContractStats setup_stats;
    const AcquiredTemplate top = acquire_template(opts.plan_cache, n, sk.gates, psi_bits, 0,
                                                  /*conjugate=*/false, sk.eval, setup_stats);
    const tn::ContractionPlan& plan = top.tmpl().plan();
    model.layer_flops = static_cast<double>(plan.total_flops());
    model.peak_elems = plan.workspace_elems();
  } else {
    // State-vector path: one forward evolution per layer, a 2x2 (4x4) row
    // update per amplitude per gate.
    const double dim = std::pow(2.0, std::min(n, 62));
    double flops = 0.0;
    for (const qc::Gate& g : sk.gates) flops += (g.num_qubits() == 1 ? 2.0 : 4.0) * dim;
    model.layer_flops = flops;
    model.peak_elems = static_cast<std::size_t>(dim);
  }
  return model;
}

ApproxResult approximate_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts) {
  ApproxBatchResult r = sweep_or_throw(nc, psi_bits, std::span(&v_bits, 1), opts,
                                       "approximate_fidelity");
  ApproxResult result;
  result.value = r.values[0];
  result.raw = r.raw[0];
  result.level_values = std::move(r.level_values[0]);
  result.term_sums = std::move(r.term_sums[0]);
  result.contractions = r.contractions;
  result.error_bound = r.error_bound;
  result.tight_error_bound = r.tight_error_bound;
  result.contract_stats = r.contract_stats;
  result.plan_seconds = r.plan_seconds;
  result.eval_seconds = r.eval_seconds;
  return result;
}

ApproxBatchResult approximate_fidelity_outputs(const ch::NoisyCircuit& nc,
                                               std::uint64_t psi_bits,
                                               std::span<const std::uint64_t> v_bits,
                                               const ApproxOptions& opts) {
  return sweep_or_throw(nc, psi_bits, v_bits, opts, "approximate_fidelity_outputs");
}

ApproxBatchResult xeb_sweep(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::span<const std::uint64_t> v_bits, const SweepOptions& opts) {
  return sweep_outputs(nc, psi_bits, v_bits, opts.approx, opts.shard_outputs);
}

ch::NoisyCircuit with_ideal_output_projector(const ch::NoisyCircuit& nc) {
  ch::NoisyCircuit out = nc;
  const qc::Circuit inverse = nc.gates_only().adjoint();
  for (const qc::Gate& g : inverse.gates()) out.add_gate(g);
  return out;
}

}  // namespace noisim::core
