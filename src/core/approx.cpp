#include "core/approx.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "circuit/simplify.hpp"
#include "core/bounds.hpp"
#include "core/plan_cache.hpp"
#include "linalg/svd.hpp"
#include "sim/parallel.hpp"

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

// Tensorized SVD factors per (site, term index). The split is symmetric
// (V_s = conj(U_s)), so a term's bottom layer <v|conj(G)...V...|psi> is the
// conjugate of its top layer and the term is |top|^2: one layer per term,
// on U.
std::vector<std::vector<tsr::Tensor>> site_factors(const std::vector<Site>& sites) {
  std::vector<std::vector<tsr::Tensor>> u(sites.size());
  for (std::size_t s = 0; s < sites.size(); ++s)
    for (std::size_t t = 0; t < sites[s].split.terms(); ++t)
      u[s].push_back(gate_matrix_tensor(sites[s].split.u[t], static_cast<int>(sites[s].arity)));
  return u;
}

// The plan-independent fields of the cost model: per-site norms and term
// counts.
ApproxCostModel bound_model(const ch::NoisyCircuit& nc, const std::vector<Site>& sites) {
  ApproxCostModel model;
  model.num_sites = sites.size();
  model.max_rate = nc.max_noise_rate();
  for (const Site& s : sites) {
    model.dominant_norms.push_back(la::spectral_norm(s.split.term(0)));
    model.subdominant_norms.push_back(s.split.dominant_term_error());
    model.split_terms.push_back(s.split.terms());
    if (s.arity != 1) model.all_1q = false;
  }
  return model;
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
                                  const EvalOptions& eval, tn::ContractStats& setup_stats) {
  AcquiredTemplate out;
  if (cache) {
    bool hit = false;
    out.entry = cache->entry(
        PlanCache::template_key(n, skeleton, psi_bits, v_bits, eval.tn),
        [&] { return AmplitudeTemplate(n, skeleton, psi_bits, v_bits, eval); }, &hit);
    if (hit) {
      ++setup_stats.plan_cache_hits;
    } else {
      ++setup_stats.plan_cache_misses;
      setup_stats.merge(out.entry->tmpl().compile_stats());
    }
  } else {
    out.owned = std::make_shared<const AmplitudeTemplate>(n, skeleton, psi_bits, v_bits, eval);
    setup_stats.merge(out.owned->compile_stats());
  }
  return out;
}

// A plan derived from the template: memoized in the template's cache entry
// when there is one (the lookup counts as a hit or a miss), compiled for
// this call otherwise. `memo(entry, compile, hit)` is the entry's lookup;
// `compile(stats)` builds the plan.
template <class Plan, class Memo, class Compile>
std::shared_ptr<const Plan> acquire_derived(const AcquiredTemplate& at, Memo&& memo,
                                            Compile&& compile, tn::ContractStats& setup_stats) {
  if (!at.entry) return std::make_shared<const Plan>(compile(&setup_stats));
  bool hit = false;
  tn::ContractStats compile_stats;
  auto plan = memo(*at.entry, [&] { return compile(&compile_stats); }, &hit);
  if (hit) {
    ++setup_stats.plan_cache_hits;
  } else {
    ++setup_stats.plan_cache_misses;
    setup_stats.merge(compile_stats);
  }
  return plan;
}

// The plans a tensor-network sweep replays: the one template, the
// environment schedule toward every site (terms [0, env_terms), u <= 1),
// and for the later terms the replay layout at `shard` outputs per
// traversal with its batched plan (null: per-term replay). The sweep and
// approx_run_model both acquire them here, so a bid's compiles are the
// run's plan-cache hits.
struct SweepPlans {
  AcquiredTemplate at;
  std::vector<std::size_t> nodes;  // network node per site
  std::shared_ptr<const tn::EnvSchedule> env;
  ReplayLayout layout;
  std::shared_ptr<const tn::BatchedPlan> bplan;
};

SweepPlans acquire_sweep_plans(const ApproxOptions& opts, int n, const SweepSkeleton& sk,
                               std::uint64_t psi_bits, const std::vector<Site>& sites,
                               std::size_t level, std::size_t env_terms, std::size_t num_terms,
                               std::size_t shard, tn::ContractStats& setup_stats) {
  SweepPlans p;
  // One canonical v = 0 template serves every term: the output caps are
  // placeholders (always substituted), so one cached entry serves EVERY
  // bitstring set over this skeleton -- that is what makes the plan cache
  // hit across XEB batches arriving over time.
  p.at = acquire_template(opts.plan_cache, n, sk.gates, psi_bits, 0, sk.eval, setup_stats);
  for (const std::size_t pos : sk.site_pos) p.nodes.push_back(p.at.tmpl().node_of_gate(pos));
  p.env = acquire_derived<tn::EnvSchedule>(
      p.at,
      [&](const PlanCache::Entry& e, const std::function<tn::EnvSchedule()>& compile,
          bool* hit) { return e.env_schedule(PlanCache::env_key(p.nodes), compile, hit); },
      [&](tn::ContractStats* stats) { return p.at.tmpl().compile_env(p.nodes, stats); },
      setup_stats);
  if (env_terms == num_terms) return p;
  std::vector<std::size_t> counts;
  for (const Site& site : sites) counts.push_back(site.split.terms());
  p.layout = ReplayLayout(p.at.tmpl(), p.nodes, counts,
                          std::min(opts.batch_terms, num_terms - env_terms), shard);
  const ReplayLayout& layout = p.layout;
  // Without a batched plan (one pair per traversal, or a batch that shares
  // nothing) each term replays the per-term plan, bit-identically. At most
  // `level` sites per term are off their dominant factor.
  p.bplan = batched_plan_or_null(layout.capacity(), [&] {
    return acquire_derived<tn::BatchedPlan>(
        p.at,
        [&](const PlanCache::Entry& e, const std::function<tn::BatchedPlan()>& compile,
            bool* hit) {
          return e.batched(PlanCache::batched_key(layout.slots, layout.capacity(), layout.counts,
                                                  level, layout.unconstrained),
                           compile, hit);
        },
        [&](tn::ContractStats* stats) { return layout.compile(p.at.tmpl(), level, stats); },
        setup_stats);
  });
  return p;
}

// --- the sharded 2-D sweep engine ---------------------------------------------

// Evaluates terms [t0, t0 + tcount) at outputs [obegin, obegin + ocount):
// out[t * ocount + o] = term value at output o. A term's bottom layer is the
// conjugate of its top layer's amplitude a, so its value is the real |a|^2.
// Every value is bit-identical to the single-output reference's value for
// that (term, output) pair -- batching only shares work, never changes bits.
using TermEval = std::function<void(std::size_t t0, std::size_t tcount, std::size_t obegin,
                                    std::size_t ocount, std::span<double> out)>;

// Per-worker tensor-network state: the environment evaluator for u <= 1
// items, the replay evaluator for the rest, and their scratch.
struct TnWorker {
  std::optional<EnvEvaluator> env;
  std::optional<ReplayEvaluator> replay;
  std::vector<AmplitudeTemplate::Substitution> subs;  // sites, then caps
  std::vector<char> want;                             // per site
  std::vector<const tsr::Tensor*> rows;               // replay terms x sites
};

// The one Algorithm-1 engine, behind approximate_fidelity (K = 1),
// approximate_fidelity_outputs and xeb_sweep: a (term-range x output-chunk)
// grid on the shared ordered-fold queue (sim::run_ordered_queue), drained
// by `threads` workers.
//
//  * Ranges are the queue's ranks and output chunks its streams, so items
//    are dispensed range-major with a buffer from a bounded pool (threads +
//    2 buffers): transient value storage stays O(threads x item), never
//    O(terms x K).
//  * Each chunk folds its term values strictly in global term-enumeration
//    order into per-output level sums, reproducing the reference reduction
//    arithmetic (term_sums[level] += value, term by term) exactly -- at any
//    thread count, shard size, or completion order.
ApproxBatchResult sweep_outputs(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                std::span<const std::uint64_t> v_bits,
                                const ApproxOptions& opts, std::size_t shard_outputs) {
  const int n = nc.num_qubits();
  const std::size_t K = v_bits.size();
  require_basis_label(psi_bits, n, "approximate_fidelity");
  for (const std::uint64_t v : v_bits) require_basis_label(v, n, "approximate_fidelity");
  BaseLists base = build_base(nc);
  const std::size_t num_sites = base.sites.size();
  const std::size_t level = std::min(opts.level, num_sites);

  // Error bounds: the generalized per-site product bound (numerically
  // tight) always, reported as the paper's Theorem 1 when every site is
  // 1-qubit.
  ApproxBatchResult result;
  const ApproxCostModel bounds = bound_model(nc, base.sites);
  result.tight_error_bound = bounds.error_bound(level);
  result.error_bound = bounds.all_1q ? theorem1_error_bound(num_sites, bounds.max_rate, level)
                                     : result.tight_error_bound;
  // K == 0 is a well-defined empty sweep: bounds only, no compiled plans
  // (a capacity-0 batched plan must never be requested).
  if (K == 0) return result;

  SweepSkeleton sk = sweep_skeleton(std::move(base.gates), num_sites, opts.eval);

  // Cooperative control for this sweep. Threading it through sk.eval.tn
  // covers plan compilation; cached templates null it out of their stored
  // options (circuit_network.cpp), so a PlanCache hit can never replay a
  // dangling pointer -- per-execution polling flows through each worker's
  // evaluator.
  const RunControl* control = opts.control;
  sk.eval.tn.control = control;

  const std::vector<Term> terms = enumerate_terms(base.sites, level);
  const std::size_t num_terms = terms.size();

  tn::ContractStats setup_stats;
  SweepTimer timer(result.plan_seconds, result.eval_seconds);

  const bool tn_path = uses_tensor_network(sk.eval, n);

  // Output shards (work-queue granularity along the bitstring axis). The
  // state-vector path defaults to one shard: its per-term evaluation already
  // covers every output in one evolution, so chunking would only repeat it.
  const std::size_t shard =
      std::min(K, shard_outputs > 0 ? shard_outputs : (tn_path ? kOutputChunk : K));
  const std::size_t num_chunks = (K + shard - 1) / shard;

  // --- plan-replay setup (templates, plans, factor tensors) ----------------
  // A cancel that lands during setup (template, schedule and batched-plan
  // compilation poll the control) salvages the well-defined "nothing
  // completed yet" result instead of leaking a throw: cancelled = true,
  // every output invalid. Deadlines and real errors still throw from here.
  auto salvage_empty = [&]() -> ApproxBatchResult {
    result.cancelled = true;
    result.valid.assign(K, 0);
    result.values.assign(K, 0.0);
    result.raw.assign(K, cplx{0.0, 0.0});
    result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
    result.level_values.assign(K, std::vector<double>(level + 1, 0.0));
    return result;
  };

  // Terms [0, env_terms) -- the u <= 1 block -- come from environment
  // passes; the rest replay the plan through `layout`, one traversal's rows
  // per term range.
  SweepPlans plans;
  std::size_t env_terms = 0;
  try {
    if (tn_path) {
      while (env_terms < num_terms && terms[env_terms].level <= 1) ++env_terms;
      plans = acquire_sweep_plans(opts, n, sk, psi_bits, base.sites, level, env_terms, num_terms,
                                  shard, setup_stats);
    }
  } catch (const CancelledError&) {
    return salvage_empty();
  }
  const auto& [at, nodes, env, layout, bplan] = plans;
  std::vector<std::vector<tsr::Tensor>> factors;
  if (tn_path) factors = site_factors(base.sites);
  const std::size_t term_batch =
      tn_path ? layout.rows
              : ReplayLayout::rows_per_traversal(std::min(opts.batch_terms, num_terms),
                                                 std::min(shard, kOutputChunk));

  // Term ranges: the u <= 1 block in ranges min(batch_terms, block) wide
  // (an environment pass has no batched arena to size), the rest term_batch
  // wide. When the queue would still hold fewer items than workers (a
  // single output is one chunk), a block's ranges narrow further so every
  // worker gets one -- the split never changes bits.
  const std::size_t requested = sim::resolve_threads(opts.threads);
  const std::size_t ranges_wanted = (requested + num_chunks - 1) / num_chunks;
  std::vector<std::size_t> range_start;
  auto cut = [&](std::size_t begin, std::size_t end, std::size_t width) {
    const std::size_t count = end - begin;
    if (count == 0) return;
    if ((count + width - 1) / width < ranges_wanted)
      width = (count + ranges_wanted - 1) / ranges_wanted;
    for (std::size_t t = begin; t < end; t += width) range_start.push_back(t);
  };
  cut(0, env_terms, std::min(std::max<std::size_t>(opts.batch_terms, 1), env_terms));
  cut(env_terms, num_terms, term_batch);
  range_start.push_back(num_terms);
  const std::size_t num_ranges = range_start.size() - 1;
  const std::size_t threads = sim::queue_workers(requested, num_ranges * num_chunks);
  std::vector<tn::ContractStats> worker_stats(threads);
  std::vector<std::unique_ptr<TnWorker>> tn_workers(threads);

  // Per-worker evaluator factory.
  std::function<TermEval(std::size_t)> make_eval;
  if (tn_path) {
    // Environment items: per output, one pass with the dominant factor at
    // every site. T0 is the pass's value; a level-1 term (s, i) is
    // <E_s, U_i(s)>, and the backward runs only toward the sites this
    // item's level-1 terms use.
    auto env_item = [&](TnWorker& w, std::size_t t0, std::size_t tcount, std::size_t obegin,
                        std::size_t ocount, std::span<double> out) {
      std::ranges::fill(w.want, 0);
      for (std::size_t t = t0; t < t0 + tcount; ++t)
        if (terms[t].level == 1) w.want[terms[t].sites[0]] = 1;
      for (std::size_t s = 0; s < num_sites; ++s) w.subs[s].second = &factors[s][0];
      for (std::size_t o = 0; o < ocount; ++o) {
        for (int q = 0; q < n; ++q)
          w.subs[num_sites + static_cast<std::size_t>(q)].second =
              &at.tmpl().output_cap(basis_bit(v_bits[obegin + o], n, q));
        const cplx value = w.env->evaluate(w.subs, w.want, tcount);
        for (std::size_t t = 0; t < tcount; ++t) {
          const Term& term = terms[t0 + t];
          out[t * ocount + o] = std::norm(
              term.level == 0
                  ? value
                  : w.env->overlap(term.sites[0], factors[term.sites[0]][term.term_idx[0]]));
        }
      }
    };

    // Replay items: one row of factors per term -- the dominant factor
    // everywhere, a subdominant one at the term's chosen sites -- scored at
    // the item's outputs.
    auto replay_item = [&](TnWorker& w, std::size_t t0, std::size_t tcount, std::size_t obegin,
                           std::size_t ocount, std::span<double> out) {
      for (std::size_t t = 0; t < tcount; ++t) {
        const Term& term = terms[t0 + t];
        const std::span<const tsr::Tensor*> row =
            std::span(w.rows).subspan(t * num_sites, num_sites);
        for (std::size_t s = 0; s < num_sites; ++s) row[s] = &factors[s][0];
        for (std::size_t c = 0; c < term.sites.size(); ++c)
          row[term.sites[c]] = &factors[term.sites[c]][term.term_idx[c]];
      }
      w.replay->norms(w.rows, tcount, v_bits.subspan(obegin, ocount), out);
    };

    // The item lambdas are copied in: they go out of scope before the
    // workers call make_eval.
    make_eval = [&, env_item, replay_item](std::size_t worker) -> TermEval {
      TnWorker* w = (tn_workers[worker] = std::make_unique<TnWorker>()).get();
      w->env.emplace(at.tmpl(), *env, control);
      for (const std::size_t node : nodes) w->subs.emplace_back(node, nullptr);
      for (const std::size_t node : at.tmpl().output_cap_nodes()) w->subs.emplace_back(node, nullptr);
      w->want.resize(num_sites);
      if (env_terms < num_terms) {
        w->replay.emplace(at.tmpl(), layout, bplan.get(), control);
        w->rows.resize(term_batch * num_sites);
      }
      return [&, w, env_item, replay_item](std::size_t t0, std::size_t tcount,
                                           std::size_t obegin, std::size_t ocount,
                                           std::span<double> out) {
        if (t0 < env_terms)
          env_item(*w, t0, tcount, obegin, ocount, out);
        else
          replay_item(*w, t0, tcount, obegin, ocount, out);
      };
    };
  } else {
    // State-vector path: each term materializes its gate list and
    // evaluates the chunk's outputs through batch_amplitudes (one evolution
    // per term per chunk).
    make_eval = [&](std::size_t worker) -> TermEval {
      auto gates = std::make_shared<std::vector<qc::Gate>>(sk.gates);
      return [&, gates, &stats = worker_stats[worker]](
                 std::size_t t0, std::size_t tcount, std::size_t obegin, std::size_t ocount,
                 std::span<double> out) {
        const std::span<const std::uint64_t> chunk_outputs = v_bits.subspan(obegin, ocount);
        for (std::size_t t = 0; t < tcount; ++t) {
          if (control) control->poll();  // state-vector terms have no inner poll points
          const Term& term = terms[t0 + t];
          for (std::size_t s = 0; s < num_sites; ++s) {
            std::size_t ti = 0;
            for (std::size_t c = 0; c < term.sites.size(); ++c)
              if (term.sites[c] == s) ti = term.term_idx[c];
            (*gates)[sk.site_pos[s]].custom = base.sites[s].split.u[ti];
          }
          const std::vector<cplx> amp =
              batch_amplitudes(n, *gates, psi_bits, chunk_outputs, sk.eval, &stats);
          for (std::size_t o = 0; o < ocount; ++o) out[t * ocount + o] = std::norm(amp[o]);
        }
      };
    };
  }

  // --- scheduler + streaming fold ------------------------------------------
  sim::OrderedWork work;
  work.ranks = num_ranges;
  work.streams = num_chunks;
  work.threads = threads;
  // Bounded buffer pool: claiming an item claims a buffer with it, so a
  // stalled chunk can never strand completed-but-unfoldable values beyond
  // the pool -- the O(outputs) table bound of the engine contract.
  work.pool = std::min(num_ranges * num_chunks, threads + 2);
  work.control = control;
  work.fault_site = "sweep-worker";
  std::vector<std::vector<double>> buffers(work.pool);
  // Chunk c's running level sums: ocount(c) x (level + 1), output-major.
  auto chunk_count = [&](std::size_t c) { return std::min(shard, K - c * shard); };
  std::vector<std::vector<cplx>> sums(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c)
    sums[c].assign(chunk_count(c) * (level + 1), cplx{0.0, 0.0});

  timer.eval_started();
  const sim::OrderedOutcome outcome = sim::run_ordered_queue(
      work,
      [&](std::size_t worker) -> sim::ItemEval {
        return [&, eval = make_eval(worker)](std::size_t r, std::size_t c, std::size_t buf) {
          const std::size_t t0 = range_start[r];
          const std::size_t tcount = range_start[r + 1] - t0;
          std::vector<double>& vbuf = buffers[buf];
          vbuf.resize(tcount * chunk_count(c));
          eval(t0, tcount, c * shard, chunk_count(c), std::span<double>(vbuf));
        };
      },
      [&](std::size_t r, std::size_t c, std::size_t buf) {
        const std::size_t ocount = chunk_count(c);
        const std::vector<double>& values = buffers[buf];
        for (std::size_t t = range_start[r]; t < range_start[r + 1]; ++t) {
          const std::size_t row = (t - range_start[r]) * ocount;
          for (std::size_t o = 0; o < ocount; ++o)
            sums[c][o * (level + 1) + terms[t].level] += values[row + o];
        }
      });
  timer.eval_done();

  // Deterministic stats reduction: setup first, then workers in order.
  for (std::size_t w = 0; w < threads; ++w) {
    if (!tn_workers[w]) continue;
    if (tn_workers[w]->env) worker_stats[w].merge(tn_workers[w]->env->stats());
    if (tn_workers[w]->replay) worker_stats[w].merge(tn_workers[w]->replay->stats());
  }
  result.contract_stats.merge(setup_stats);
  for (const tn::ContractStats& ws : worker_stats) result.contract_stats.merge(ws);

  // Per-output assembly from the streamed level sums -- the same arithmetic,
  // in the same order, as the output's single-output sweep.
  result.values.assign(K, 0.0);
  result.raw.assign(K, cplx{0.0, 0.0});
  result.term_sums.assign(K, std::vector<cplx>(level + 1, cplx{0.0, 0.0}));
  result.level_values.assign(K, {});
  result.cancelled = outcome.cancelled;
  result.valid.assign(K, 1);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    // Salvage contract: a chunk's outputs are valid only once every term
    // range has been folded into it -- those sums are then bitwise equal to
    // the uncancelled run's, because the fold order per chunk is fixed.
    const bool chunk_valid = outcome.folded[c] == num_ranges;
    for (std::size_t o = 0; o < chunk_count(c); ++o) {
      const std::size_t go = c * shard + o;
      if (!chunk_valid) result.valid[go] = 0;
      for (std::size_t u = 0; u <= level; ++u)
        result.term_sums[go][u] = sums[c][o * (level + 1) + u];
      for (std::size_t u = 0; u <= level; ++u) {
        result.raw[go] += result.term_sums[go][u];
        result.level_values[go].push_back(result.raw[go].real());
      }
      result.values[go] = result.raw[go].real();
    }
  }
  result.contractions = num_terms * K;
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

// approx_cost_model, and with `run_arenas` approx_run_model's
// run_peak_elems.
ApproxCostModel cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                           const ApproxOptions& opts, bool run_arenas) {
  const int n = nc.num_qubits();
  BaseLists base = build_base(nc);
  ApproxCostModel model = bound_model(nc, base.sites);

  // The sweep's own skeleton, so the template below is the one the run
  // replays; the compile polls the caller's control like the sweep's own.
  SweepSkeleton sk = sweep_skeleton(std::move(base.gates), model.num_sites, opts.eval);
  sk.eval.tn.control = opts.control;

  model.tensor_network = uses_tensor_network(sk.eval, n);
  if (model.tensor_network) {
    // Compile (or fetch) the sweep's one template under its own canonical
    // v = 0 cache key: the plan's flops/arena ARE the per-layer
    // cost (the output caps only change tensor values, never the plan), and
    // a cache miss here is work the run would have paid anyway. Pricing
    // the run's arenas acquires the one-output sweep's plans the same way.
    tn::ContractStats setup_stats;
    SweepPlans plans;
    if (run_arenas) {
      const std::size_t level = std::min(opts.level, model.num_sites);
      const auto terms_upto = [&](std::size_t l) {
        return static_cast<std::size_t>(model.term_count(std::min(l, level)));
      };
      const std::size_t env_terms = terms_upto(1), num_terms = terms_upto(level);
      plans = acquire_sweep_plans(opts, n, sk, psi_bits, base.sites, level, env_terms, num_terms,
                                  /*shard=*/1, setup_stats);
      // Every pass commits the environment arena; terms past u = 1 replay
      // the batched plan's arena, or the per-term plan's without one.
      model.run_peak_elems = plans.env->workspace_elems();
      if (env_terms < num_terms)
        model.run_peak_elems =
            std::max(model.run_peak_elems, plans.bplan ? plans.bplan->workspace_elems()
                                                       : plans.at.tmpl().plan().workspace_elems());
    } else {
      plans.at = acquire_template(opts.plan_cache, n, sk.gates, psi_bits, 0, sk.eval, setup_stats);
    }
    const tn::ContractionPlan& plan = plans.at.tmpl().plan();
    model.layer_flops = static_cast<double>(plan.total_flops());
    model.peak_elems = plan.workspace_elems();
  } else {
    // State-vector path: one forward evolution per term, a 2x2 (4x4) row
    // update per amplitude per gate plus the gate's fixed cost (its matrix
    // and dispatch), measured at ~128 MAC of density-engine throughput.
    constexpr double kSvGateFixedMacs = 128.0;
    const double dim = std::pow(2.0, std::min(n, 62));
    double flops = 0.0;
    for (const qc::Gate& g : sk.gates)
      flops += (g.num_qubits() == 1 ? 2.0 : 4.0) * dim + kSvGateFixedMacs;
    model.layer_flops = flops;
    model.peak_elems = static_cast<std::size_t>(dim);
    if (run_arenas) model.run_peak_elems = model.peak_elems;
  }
  return model;
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

ApproxCostModel approx_bound_model(const ch::NoisyCircuit& nc) {
  return bound_model(nc, build_base(nc).sites);
}

ApproxCostModel approx_cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  const ApproxOptions& opts) {
  return cost_model(nc, psi_bits, opts, /*run_arenas=*/false);
}

ApproxCostModel approx_run_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 const ApproxOptions& opts) {
  return cost_model(nc, psi_bits, opts, /*run_arenas=*/true);
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
