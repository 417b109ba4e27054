#pragma once
// Quantum trajectories (Monte-Carlo wave function) method [Isakov et al.],
// the paper's approximate baseline.
//
// Each trajectory runs the circuit on a state vector and picks one Kraus
// branch at every noise site, drawing one uniform per site from the stream:
//  * a site whose channel is a unitary mixture sum_k p_k U_k . U_k^dag
//    (weights summing to 1 within kMixtureSumTol: depolarizing, Pauli
//    channels, ...) draws k from its fixed weights p_k through the inverse
//    CDF shared with the TN sampler (sim/mixture_draw.hpp) and applies U_k
//    once -- or nothing, when U_k is a scalar multiple of the identity;
//  * any other site draws E_k with its exact Born probability
//    p_k = ||E_k |psi>||^2 and renormalizes the state.
// Both are the same Monte-Carlo unravelling of the channel (a unitary
// branch's Born probability is its fixed weight), so the estimator
// mean(|<v|psi_traj>|^2) is unbiased for <v| E(|psi><psi|) |v>, with
// standard error O(1/sqrt(samples)) -- the scaling the paper compares
// against in Fig. 5 and Tables III.
//
// Without Born sites no draw depends on the state, so a sample draws all its
// branches first. When every one is a scalar identity -- the common case at
// low noise, (1 - 1e-3)^12 = 98.8% of the Fig. 5 samples -- the sample is
// the noise-free trajectory, which the call evolves once, on the first
// worker that draws it, and every other clean sample on any worker returns
// from memory: a call pays one evolution plus one per sample that drew an
// error, with every estimate bit-identical to evolving each sample.
// Circuits with a Born site evolve every sample.
//
// An evolution replays a fused program: each run of gates between two
// noise sites is multiplied out into <= 2-qubit operators (a 1-qubit gate
// into the last operator on its qubit, a 2-qubit gate into the last one on
// its pair), each then classified by shape like any SvOp: a Fig. 5
// circuit's 120 gate passes become 52-63. Fused products round differently
// from the gate-by-gate passes of Statevector::apply_circuit, which stays
// unfused as the independent oracle; noise sites are never fused.
//
// This is the "MM-based" trajectories variant (statevector); the TN-based
// variant lives in core/trajectories_tn.hpp because it reuses the tensor
// network amplitude machinery.

#include <cstdint>
#include <random>

#include "sim/parallel.hpp"
#include "sim/statevector.hpp"

namespace noisim::sim {

/// Run `samples` trajectories of the noisy circuit starting from |psi_bits>
/// and estimate <v_bits| E(|psi><psi|) |v_bits>. Every entry point below
/// compiles the circuit once per call and reuses one state buffer per
/// worker; each throws LinalgError, before sampling, when psi_bits or
/// v_bits is not below 2^n.
TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples,
                                 std::mt19937_64& rng);

/// Multithreaded variant on the shared engine (sim/parallel.hpp): same
/// estimator, reproducible for a fixed `seed` across thread counts.
TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples, std::uint64_t seed,
                                 const ParallelOptions& opts);

/// Single-trajectory sample (exposed for tests of the sampling step). It
/// compiles the circuit per call, so it always evolves: the reference a
/// reused clean trajectory must match.
double sample_trajectory_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::uint64_t v_bits, std::mt19937_64& rng);

/// Number of samples needed so that a (1 - failure_prob) confidence interval
/// of half-width `accuracy` covers the estimate, by Hoeffding's inequality
/// on outcomes bounded in [0, 1]: r = ln(2/failure) / (2 accuracy^2).
/// Throws LinalgError for degenerate inputs (`accuracy <= 0`,
/// `failure_prob <= 0` or `>= 2`, where the bound is vacuous or negative).
std::size_t hoeffding_samples(double accuracy, double failure_prob);

/// Inverse of hoeffding_samples: the confidence half-width `samples` i.i.d.
/// [0, 1] draws achieve at (1 - failure_prob) confidence,
/// sqrt(ln(2/failure) / (2 samples)). Same input guards as
/// hoeffding_samples; additionally requires samples > 0.
double hoeffding_accuracy(std::size_t samples, double failure_prob);

/// Plan-time cost model of one trajectory engine, in the commensurate units
/// the backend-selection front door (core/backend.hpp) compares: flops are
/// modeled complex multiply-adds, peak_elems transient complex elements. A
/// call of `samples` samples is priced
/// samples * per_sample_flops + per_call_flops.
/// Filled by sv_trajectory_cost and by the tensor-network trajectory bid
/// (one layer replay per sample).
struct TrajectoryCost {
  double per_sample_flops = 0.0;
  double per_call_flops = 0.0;  // paid once per call, whatever the worker count
  std::size_t peak_elems = 0;
};

/// Cost model of the trajectories_sv entry points: an evolution updates all
/// 2^n amplitudes per source gate (the fused program's fewer passes are not
/// modeled). A unitary-mixture site costs its expected apply: the weight of
/// its branches that are not scalar multiples of the identity, times one 1-
/// or 2-qubit pass. Any other (Born) site evaluates each Kraus candidate's
/// Born probability and renormalizes the winner ((Kraus count + 2) passes).
/// With a Born site every sample pays the full evolution. Without one, a
/// sample is clean (every branch an identity) with probability P_clean, the
/// product over sites of their identity weight, and reuses the call's one
/// noise-free evolution: per_sample_flops is (1 - P_clean) times the full
/// evolution, and per_call_flops the gate passes of that clean evolution.
/// Peak memory is the state, plus the Born scratch copy when some 2-qubit
/// site is not a unitary mixture.
TrajectoryCost sv_trajectory_cost(const ch::NoisyCircuit& nc);

}  // namespace noisim::sim
