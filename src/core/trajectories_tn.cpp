#include "core/trajectories_tn.hpp"

#include <algorithm>
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
// skeleton and its mixtures, the compiled template, and the replay layout
// whose rows are sampled trajectories (one unitary per noise site), so one
// traversal scores several samples at several outputs.
class TrajectorySweep {
 public:
  // `samples_per_chunk` bounds the samples one sampler call scores (the
  // engine's chunk size, clamped to the sample count). `copts.control` is
  // the sweep's run control: the template compile and every replay poll it.
  TrajectorySweep(TnSkeleton sk, int n, std::uint64_t psi_bits,
                  std::span<const std::uint64_t> v_bits, const tn::ContractOptions& copts,
                  std::size_t shard_outputs, std::size_t samples_per_chunk)
      : sk_(std::move(sk)),
        v_bits_(v_bits),
        control_(copts.control),
        shard_(std::min(v_bits.size(), shard_outputs > 0 ? shard_outputs : kOutputChunk)),
        tmpl_(n, sk_.gates, psi_bits, v_bits[0], {.tn = copts}) {
    // Tensorized mixture unitaries per (site, mixture index) -- sampling
    // then allocates nothing per trajectory. Each site draws from its fixed
    // mixture, which bounds every step's distinct rows by the variant
    // product of its cone.
    std::vector<std::size_t> nodes, counts;
    for (std::size_t site = 0; site < sk_.mixtures.size(); ++site) {
      const qc::Gate& g = sk_.gates[sk_.site_gate_index[site]];
      site_tensors_.emplace_back();
      for (const la::Matrix& u : sk_.mixtures[site].unitaries)
        site_tensors_.back().push_back(gate_matrix_tensor(u, g.num_qubits()));
      nodes.push_back(tmpl_.node_of_gate(sk_.site_gate_index[site]));
      counts.push_back(sk_.mixtures[site].unitaries.size());
    }
    layout_ = ReplayLayout(tmpl_, nodes, counts, samples_per_chunk, shard_);
    bplan_ = batched_plan_or_null(layout_.capacity(), [&] {
      return std::make_shared<const tn::BatchedPlan>(layout_.compile(tmpl_));
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
    auto evaluator = std::make_shared<ReplayEvaluator>(tmpl_, layout_, bplan_.get(), control_);
    auto rows = std::make_shared<std::vector<const tsr::Tensor*>>();
    return [this, evaluator, rows](std::mt19937_64& rng, std::size_t shard_begin,
                                   std::size_t shard_count, std::size_t count,
                                   std::span<double> out) {
      const std::size_t num_sites = sk_.mixtures.size();
      rows->resize(count * num_sites);
      for (std::size_t s = 0; s < count; ++s)
        for (std::size_t site = 0; site < num_sites; ++site)
          (*rows)[s * num_sites + site] =
              &site_tensors_[site][sim::sample_index(sk_.mixtures[site].probs, rng)];
      evaluator->norms(*rows, count, v_bits_.subspan(shard_begin, shard_count), out);
    };
  }

 private:
  TnSkeleton sk_;
  std::span<const std::uint64_t> v_bits_;
  const RunControl* control_;
  std::size_t shard_;
  AmplitudeTemplate tmpl_;
  std::vector<std::vector<tsr::Tensor>> site_tensors_;
  ReplayLayout layout_;
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
