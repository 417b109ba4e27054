#pragma once
// TN-based quantum trajectories: the paper's "Traj (TN)" baseline
// (Table III).
//
// For channels that are probabilistic mixtures of unitaries (depolarizing,
// Pauli channels, ...) the Kraus sampling probabilities are state
// independent, so each trajectory reduces to one noiseless amplitude
// evaluation of the circuit with sampled unitary insertions -- computed by
// tensor network contraction, which is what lets this baseline scale past
// the state-vector variant's memory wall. Every entry point contracts: the
// skeleton's plan is compiled once and replayed per sample through a
// core::ReplayEvaluator, whatever the qubit count (sim::trajectories_sv is
// the state-vector sampler). Inputs are validated before the sample count
// is looked at, so samples == 0 rejects what any other count rejects.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "core/circuit_network.hpp"
#include "sim/trajectories.hpp"

namespace noisim::core {

/// Estimate <v|E(|psi><psi|)|v> with `samples` TN trajectories drawn from
/// the caller's stream: the multithreaded variant's per-worker sampler,
/// driven serially in chunks of 32 samples (one draw set per trajectory, in
/// sample order). Throws LinalgError if any noise channel is not a mixture
/// of unitaries or if a mixture's probabilities do not sum to 1 beyond
/// roundoff (unnormalized channels would silently skew the inverse-CDF
/// sampling), or if a basis label is out of range. samples == 0 returns the
/// well-defined empty estimate. `copts.control` polls the template compile
/// and every replay.
sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::mt19937_64& rng,
                                      const tn::ContractOptions& copts = {});

/// Non-throwing precheck of trajectories_tn's channel requirements: true iff
/// sim::normalized_mixture accepts every noise channel (a mixture of
/// unitaries with probabilities summing to 1 within sim::kMixtureSumTol).
/// Backend selection uses this to rule the TN-trajectories backend in or
/// out without paying an exception.
bool trajectories_tn_eligible(const ch::NoisyCircuit& nc);

/// Multithreaded variant: trajectories_tn_sweep at the one output v_bits,
/// on the shared engine (sim/parallel.hpp); reproducible for a fixed `seed`
/// across thread counts.
sim::TrajectoryResult trajectories_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t samples,
                                      std::uint64_t seed, const sim::ParallelOptions& popts,
                                      const tn::ContractOptions& copts = {});

/// Estimate <v_t|E(|psi><psi|)|v_t> for EVERY output bitstring in `v_bits`
/// from ONE set of sampled trajectories: each trajectory draws one row of
/// site unitaries and scores the bitstrings on the same sampled circuit
/// through one core::ReplayEvaluator per worker, laid out by the
/// core::ReplayLayout the Algorithm-1 sweep uses: the noise sites are the
/// varying slots, joined by the basis caps when a traversal scores more
/// than one output, and a traversal covers up to (chunk samples x <= 32
/// outputs) pairs, capped at 256. The bitstrings are partitioned into shards of `shard_outputs`, and
/// the (sample-chunk x bitstring-shard) grid runs on the shared ordered-fold
/// work queue through sim::run_trajectories_sharded, which folds each
/// estimate's per-chunk statistics in chunk order as chunks complete (no
/// chunks x outputs table). Each item draws its chunk's noise
/// realizations -- the same streams every shard draws, since the site draws
/// are independent of the scored outputs. Element t is bit-identical to
/// trajectories_tn(nc, psi_bits, v_bits[t], samples, seed, popts, copts) at
/// EVERY thread count and shard size; per-worker transient storage is
/// O(chunk_size x shard). Estimates are correlated across bitstrings (they
/// share the noise realizations), which is exactly what sampling / XEB
/// workloads want. shard_outputs 0 picks the default, kOutputChunk = 32
/// (the output-batched traversal width). `popts.control` (not
/// copts.control) polls the template compile and every replay. samples == 0
/// returns K well-defined empty estimates.
std::vector<sim::TrajectoryResult> trajectories_tn_sweep(
    const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
    std::span<const std::uint64_t> v_bits, std::size_t samples, std::uint64_t seed,
    const sim::ParallelOptions& popts, const tn::ContractOptions& copts = {},
    std::size_t shard_outputs = 0);

}  // namespace noisim::core
