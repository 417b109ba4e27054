#include "core/trajectories_tn.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "sim/mixture_draw.hpp"

namespace noisim::core {

namespace {

// Skeleton gate list with one identity placeholder per noise site, plus the
// per-site unitary mixtures. Built once per estimate and shared read-only by
// all workers (each worker samples into its own copy of `gates`).
struct TnSkeleton {
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> site_gate_index;
  std::vector<ch::UnitaryMixture> mixtures;
};

TnSkeleton build_skeleton(const ch::NoisyCircuit& nc) {
  TnSkeleton sk;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      sk.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    // An unnormalized mixture (e.g. a non-CPTP Kraus set) is rejected: the
    // inverse-CDF draw would give its LAST unitary the whole missing mass.
    std::string why;
    auto mix = sim::normalized_mixture(noise.channel, &why);
    if (!mix) la::detail::fail("trajectories_tn: " + why);
    sk.site_gate_index.push_back(sk.gates.size());
    if (noise.num_qubits() == 1)
      sk.gates.push_back(qc::u1q(noise.qubit, la::Matrix::identity(2)));
    else
      sk.gates.push_back(qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
    sk.mixtures.push_back(std::move(*mix));
  }
  return sk;
}

// The entry points' input checks, run before any sample count or compile:
// every basis label is in range and every noise channel is a normalized
// mixture of unitaries (the skeleton builder's check). Returns the skeleton.
TnSkeleton checked_skeleton(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::span<const std::uint64_t> v_bits) {
  const int n = nc.num_qubits();
  require_basis_label(psi_bits, n, "trajectories_tn");
  for (const std::uint64_t v : v_bits) require_basis_label(v, n, "trajectories_tn");
  return build_skeleton(nc);
}

// One trajectory sweep's read-only state, shared by every worker: the
// skeleton and its mixtures, and the compiled template whose noise-site
// nodes AND output caps are the varying slots (the Algorithm-1 sweep's plan
// shape), so one traversal scores up to sample_batch sampled trajectories x
// out_chunk outputs. A traversal of one output (out_chunk 1, e.g.
// trajectories_tn) holds its caps fixed, so they enter as shared
// substitutions instead of varying slots.
class TrajectorySweep {
 public:
  // `samples_per_chunk` bounds the samples one sampler call scores (the
  // engine's chunk size, clamped to the sample count). `copts.control` is
  // the sweep's run control: the template compile and every replay poll it.
  TrajectorySweep(TnSkeleton sk, int n, std::uint64_t psi_bits,
                  std::span<const std::uint64_t> v_bits, const tn::ContractOptions& copts,
                  std::size_t shard_outputs, std::size_t samples_per_chunk)
      : sk_(std::move(sk)),
        n_(n),
        v_bits_(v_bits),
        control_(copts.control),
        shard_(std::min(v_bits.size(), shard_outputs > 0 ? shard_outputs : kOutputChunk)),
        tmpl_(n, sk_.gates, psi_bits, v_bits[0], {.tn = copts}) {
    const std::size_t num_sites = sk_.mixtures.size();

    // Tensorized mixture unitaries per (site, mixture index) -- sampling
    // then allocates nothing per trajectory. Each site draws from its fixed
    // mixture and each cap is <0| or <1|, which bounds every step's distinct
    // rows by the variant product of its cone.
    std::vector<std::size_t> counts;
    site_tensors_.resize(num_sites);
    for (std::size_t site = 0; site < num_sites; ++site) {
      const qc::Gate& g = sk_.gates[sk_.site_gate_index[site]];
      for (const la::Matrix& u : sk_.mixtures[site].unitaries)
        site_tensors_[site].push_back(gate_matrix_tensor(u, g.num_qubits()));
      slots_.push_back(tmpl_.node_of_gate(sk_.site_gate_index[site]));
      counts.push_back(sk_.mixtures[site].unitaries.size());
    }
    // One traversal covers up to the output-batched width times as many
    // samples as keep it within kMaxBatchPairs pairs; shards wider than it
    // walk sub-chunks, narrower ones just underfill the plan.
    out_chunk_ = std::min(shard_, kOutputChunk);
    if (out_chunk_ > 1) {
      for (const std::size_t cap : tmpl_.output_cap_nodes()) {
        slots_.push_back(cap);
        counts.push_back(2);
      }
    }
    sample_batch_ = std::min(std::max<std::size_t>(samples_per_chunk, 1),
                             std::max<std::size_t>(kMaxBatchPairs / out_chunk_, 1));
    const std::size_t capacity = sample_batch_ * out_chunk_;
    bplan_ = batched_plan_or_null(capacity, [&] {
      return std::make_shared<const tn::BatchedPlan>(
          tmpl_.compile_batched(slots_, capacity, nullptr, counts));
    });
  }
  // Samplers and their evaluators point into this object.
  TrajectorySweep(const TrajectorySweep&) = delete;
  TrajectorySweep& operator=(const TrajectorySweep&) = delete;

  // Output-shard width of the work queue.
  std::size_t shard() const { return shard_; }

  // A worker's sampler (sim::ShardChunkSampler contract): owns its scratch,
  // reads the sweep state shared. One draw set per trajectory, in sample
  // order, whatever the shard -- the RNG consumption of every entry point.
  sim::ShardChunkSampler worker_sampler() const {
    const std::size_t num_sites = sk_.mixtures.size();
    const std::size_t V = slots_.size();
    const std::size_t capacity = sample_batch_ * out_chunk_;
    auto evaluator =
        std::make_shared<ReplayEvaluator>(tmpl_, slots_, bplan_.get(), control_);
    auto draws = std::make_shared<std::vector<const tsr::Tensor*>>(sample_batch_ * num_sites);
    auto ptrs = std::make_shared<std::vector<const tsr::Tensor*>>(capacity * V);
    auto amps = std::make_shared<std::vector<cplx>>(capacity);
    auto shared = std::make_shared<std::vector<AmplitudeTemplate::Substitution>>();
    return [this, num_sites, V, evaluator, draws, ptrs, amps, shared](
               std::mt19937_64& rng, std::size_t shard_begin, std::size_t shard_count,
               std::size_t count, std::span<double> out) {
      for (std::size_t s0 = 0; s0 < count; s0 += sample_batch_) {
        const std::size_t sb = std::min(sample_batch_, count - s0);
        for (std::size_t s = 0; s < sb; ++s)
          for (std::size_t site = 0; site < num_sites; ++site)
            (*draws)[s * num_sites + site] =
                &site_tensors_[site][sim::sample_index(sk_.mixtures[site].probs, rng)];
        for (std::size_t o0 = 0; o0 < shard_count; o0 += out_chunk_) {
          const std::size_t oc = std::min(out_chunk_, shard_count - o0);
          // Output-major pairs (o * sb + s): neighbours share their caps,
          // so the batched plan's per-pair root pass can reuse steps.
          for (std::size_t o = 0; o < oc; ++o)
            for (std::size_t s = 0; s < sb; ++s) {
              const std::span<const tsr::Tensor*> p =
                  std::span(*ptrs).subspan((o * sb + s) * V, V);
              std::ranges::copy(std::span(*draws).subspan(s * num_sites, num_sites), p.begin());
              if (V > num_sites)
                tmpl_.fill_output_caps(v_bits_[shard_begin + o0 + o], p.subspan(num_sites));
            }
          shared->clear();
          if (V == num_sites)  // one output per traversal: its caps are shared
            for (int q = 0; q < n_; ++q)
              shared->push_back({tmpl_.node_of_output_cap(q),
                                 &tmpl_.output_cap(basis_bit(v_bits_[shard_begin + o0], n_, q))});
          const std::size_t k = sb * oc;
          evaluator->evaluate(*shared, std::span<const tsr::Tensor* const>(*ptrs).first(k * V),
                              k, *amps);
          for (std::size_t s = 0; s < sb; ++s)
            for (std::size_t o = 0; o < oc; ++o)
              out[(s0 + s) * shard_count + o0 + o] = std::norm((*amps)[o * sb + s]);
        }
      }
    };
  }

 private:
  TnSkeleton sk_;
  int n_;
  std::span<const std::uint64_t> v_bits_;
  const RunControl* control_;
  std::size_t shard_;
  AmplitudeTemplate tmpl_;
  std::vector<std::size_t> slots_;  // site nodes, then (out_chunk > 1) the caps
  std::vector<std::vector<tsr::Tensor>> site_tensors_;
  std::size_t out_chunk_ = 0, sample_batch_ = 0;
  std::shared_ptr<const tn::BatchedPlan> bplan_;  // null: per-term replay
};

}  // namespace

bool trajectories_tn_eligible(const ch::NoisyCircuit& nc) {
  // build_skeleton's channel validation, without throwing.
  for (const ch::Op& op : nc.ops()) {
    const ch::NoiseOp* noise = std::get_if<ch::NoiseOp>(&op);
    if (noise && !sim::normalized_mixture(noise->channel)) return false;
  }
  return true;
}

sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::mt19937_64& rng, const tn::ContractOptions& copts) {
  TnSkeleton sk = checked_skeleton(nc, psi_bits, std::span(&v_bits, 1));
  // Zero samples is a well-defined empty estimate (and no mean to divide).
  if (samples == 0) return {};
  // The threaded runner's sampler, driven in chunks of the engine's default
  // chunk size off the caller's stream.
  constexpr std::size_t kStreamBatch = 32;
  const TrajectorySweep sweep(std::move(sk), nc.num_qubits(), psi_bits, std::span(&v_bits, 1),
                              copts, 1, std::min(kStreamBatch, samples));
  const sim::ShardChunkSampler sample = sweep.worker_sampler();
  std::vector<double> values(kStreamBatch);
  sim::Welford stats;  // folded in sample order
  for (std::size_t s = 0; s < samples; s += kStreamBatch) {
    const std::size_t k = std::min(kStreamBatch, samples - s);
    sample(rng, 0, 1, k, std::span<double>(values.data(), k));
    for (std::size_t t = 0; t < k; ++t) stats.add(values[t]);
  }
  return stats.result();
}

sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::uint64_t seed, const sim::ParallelOptions& popts,
                                      const tn::ContractOptions& copts) {
  return trajectories_tn_sweep(nc, psi_bits, std::span(&v_bits, 1), samples, seed, popts,
                               copts)[0];
}

std::vector<sim::TrajectoryResult> trajectories_tn_sweep(
    const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
    std::span<const std::uint64_t> v_bits, std::size_t samples, std::uint64_t seed,
    const sim::ParallelOptions& popts, const tn::ContractOptions& copts,
    std::size_t shard_outputs) {
  TnSkeleton sk = checked_skeleton(nc, psi_bits, v_bits);
  const std::size_t K = v_bits.size();
  if (K == 0 || samples == 0) return std::vector<sim::TrajectoryResult>(K);
  // The engine's control governs the template compile and every replay.
  tn::ContractOptions run_opts = copts;
  run_opts.control = popts.control;
  const TrajectorySweep sweep(std::move(sk), nc.num_qubits(), psi_bits, v_bits, run_opts,
                              shard_outputs, std::min(popts.chunk_size, samples));
  return sim::run_trajectories_sharded(
      samples, K, sweep.shard(), seed, [&](std::size_t) { return sweep.worker_sampler(); },
      popts);
}

}  // namespace noisim::core
