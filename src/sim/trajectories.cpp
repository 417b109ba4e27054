#include "sim/trajectories.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <optional>

#include "sim/mixture_draw.hpp"
#include "tensor/kernels.hpp"

namespace noisim::sim {

namespace {

/// True when the unitary `u` is a scalar multiple of the identity: applying
/// it changes only the global phase, which |<v|psi>|^2 cannot see. The
/// catalog's identity branches are c I with |c| = 1 up to an ulp or two.
bool is_scalar_identity(const la::Matrix& u) {
  constexpr double kTol = 1e-12;
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c)
      if (std::abs(u(r, c) - (r == c ? u(0, 0) : cplx{0.0, 0.0})) > kTol) return false;
  return true;
}

/// One step of the replayed program: a fused gate operator (see GateFuser)
/// as an SvOp; a noise site whose channel is a normalized unitary mixture
/// as its fixed branch weights and branch unitaries; or any other noise
/// site with its Kraus operators' coefficients and, for 1-qubit sites, the
/// Born operators K^dag K (the la::Matrix product k.adjoint() * k).
struct TrajOp {
  enum class Kind : std::uint8_t { Gate, Mixture, Born };
  Kind kind = Kind::Gate;
  SvOp gate;                                  // Gate
  std::vector<double> probs;                  // Mixture: normalized weights
  std::vector<std::optional<SvOp>> branches;  // Mixture: empty for c I
  bool two_qubit = false;                     // noise sites
  std::size_t bit_a = 0, bit_b = 0;           // noise qubit (and qubit2) bits
  std::vector<std::array<cplx, 16>> kraus;    // Born: row-major 2x2 or 4x4
  std::vector<SvOp> born;                     // Born, 1-qubit: K^dag K per candidate
};

/// Per-worker buffers: the state, reset to |psi> per sample; the 2-qubit
/// Born scratch, allocated only for circuits with a 2-qubit noise site that
/// is not a unitary mixture; and, for circuits without Born sites, the
/// sample's pre-drawn branches.
struct TrajBuffers {
  std::vector<cplx> state, scratch;
  std::vector<std::size_t> drawn;
};

/// Fuses one run of gates with no noise site between them into <= 2-qubit
/// operators, as la::Matrix products:
///  * a 1-qubit gate is multiplied into the last operator of the run that
///    touches its qubit (kron'd with the identity when that operator is
///    2-qubit), or starts a new 1-qubit operator when there is none;
///  * a 2-qubit gate whose two qubits were last touched by the same
///    operator -- necessarily a 2-qubit one on that pair -- is multiplied
///    into it, conjugated by SWAP when its qubit order is reversed; any
///    other 2-qubit gate starts a new operator.
/// Nothing later in the run touches a merged gate's qubits, so moving the
/// gate back to that operator keeps the product. The products keep exact
/// zeros, so SvOp::one/two still classify the result (CX RZ CX is Diag2).
class GateFuser {
 public:
  explicit GateFuser(int n) : n_(n), last_(static_cast<std::size_t>(n), kNone) {}

  void add(const qc::Gate& g) {
    const la::Matrix m = g.matrix();
    const int a = g.qubits[0];
    const std::size_t ia = last_[static_cast<std::size_t>(a)];
    if (g.num_qubits() == 1) {
      if (ia != kNone) {
        Fused& f = run_[ia];
        if (f.b < 0)
          f.m = m * f.m;
        else
          f.m = (f.a == a ? la::kron(m, id2_) : la::kron(id2_, m)) * f.m;
        return;
      }
      last_[static_cast<std::size_t>(a)] = run_.size();
      run_.push_back({a, -1, m});
      return;
    }
    const int b = g.qubits[1];
    if (ia != kNone && ia == last_[static_cast<std::size_t>(b)]) {
      Fused& f = run_[ia];
      f.m = (f.a == a ? m : swap_conjugate(m)) * f.m;
      return;
    }
    last_[static_cast<std::size_t>(a)] = last_[static_cast<std::size_t>(b)] = run_.size();
    run_.push_back({a, b, m});
  }

  /// Appends the run's operators to `ops` in order and starts a new run.
  void flush(std::vector<TrajOp>& ops) {
    for (const Fused& f : run_) {
      TrajOp t;
      t.gate = f.b < 0 ? SvOp::one(f.m, qubit_bit(n_, f.a))
                       : SvOp::two(f.m, qubit_bit(n_, f.a), qubit_bit(n_, f.b));
      ops.push_back(std::move(t));
    }
    run_.clear();
    std::fill(last_.begin(), last_.end(), kNone);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// A fused operator: 2x2 on qubit a (b < 0), or 4x4 on (a, b) with a the
  /// matrix's high-order qubit.
  struct Fused {
    int a, b;
    la::Matrix m;
  };

  /// SWAP m SWAP: the 4x4 `m` with its two qubits' roles exchanged.
  static la::Matrix swap_conjugate(const la::Matrix& m) {
    constexpr std::size_t kSwapped[4] = {0, 2, 1, 3};
    la::Matrix out(4, 4);
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c) out(r, c) = m(kSwapped[r], kSwapped[c]);
    return out;
  }

  int n_;
  std::vector<std::size_t> last_;  // per qubit: index in run_ of its last operator
  std::vector<Fused> run_;
  const la::Matrix id2_ = la::Matrix::identity(2);
};

/// A NoisyCircuit compiled once per call of a trajectory entry point and
/// replayed by every sample, shared by all workers: read-only except for
/// the noise-free trajectory's value, which the first clean sample of the
/// call evolves once (see sample()).
class CompiledTrajectory {
 public:
  CompiledTrajectory(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits)
      : kt_(tsr::active_kernels()), psi_(psi_bits), v_(v_bits) {
    const int n = nc.num_qubits();
    la::detail::require(n > 0 && n <= 26, "trajectories_sv: qubit count out of range [1, 26]");
    size_ = std::size_t{1} << n;
    la::detail::require(psi_bits < size_, "trajectories_sv: psi_bits out of range");
    la::detail::require(v_bits < size_, "trajectories_sv: v_bits out of range");
    ops_.reserve(nc.size());
    GateFuser run(n);
    for (const ch::Op& op : nc.ops()) {
      if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
        run.add(*g);
        continue;
      }
      run.flush(ops_);
      TrajOp t;
      const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
      t.two_qubit = noise.num_qubits() == 2;
      t.bit_a = qubit_bit(n, noise.qubit);
      if (t.two_qubit) t.bit_b = qubit_bit(n, noise.qubit2);
      if (auto mix = normalized_mixture(noise.channel)) {
        t.kind = TrajOp::Kind::Mixture;
        t.probs = std::move(mix->probs);
        for (const la::Matrix& u : mix->unitaries) {
          if (is_scalar_identity(u))
            t.branches.emplace_back();
          else
            t.branches.emplace_back(t.two_qubit ? SvOp::two(u, t.bit_a, t.bit_b)
                                                : SvOp::one(u, t.bit_a));
        }
        ops_.push_back(std::move(t));
        continue;
      }
      t.kind = TrajOp::Kind::Born;
      has_born_ = true;
      if (t.two_qubit) two_qubit_born_ = true;
      for (const la::Matrix& k : noise.channel.kraus()) {
        std::array<cplx, 16> c{};
        const std::size_t d = k.cols();
        for (std::size_t e = 0; e < d * d; ++e) c[e] = k(e / d, e % d);
        t.kraus.push_back(c);
        if (!t.two_qubit) t.born.push_back(SvOp::one(k.adjoint() * k, t.bit_a));
      }
      ops_.push_back(std::move(t));
    }
    run.flush(ops_);
  }

  /// One trajectory: |<v|psi_traj>|^2.
  ///
  /// Without Born sites no branch depends on the state, so every site's
  /// branch is drawn first, in site order -- the uniforms the inline loop
  /// would consume, in the same order. A sample whose every branch is a
  /// scalar identity is the noise-free trajectory: the first such sample of
  /// the call, on whichever worker, evolves it once; every other one, on
  /// any worker, returns that value (waiting for it if the evolution is
  /// still running), which is the value its own evolution would return,
  /// bit for bit.
  double sample(TrajBuffers& buf, std::mt19937_64& rng) const {
    if (has_born_) return evolve(buf, rng, nullptr);
    buf.drawn.clear();
    bool clean = true;
    for (const TrajOp& op : ops_) {
      if (op.kind != TrajOp::Kind::Mixture) continue;
      const std::size_t k = sample_index(op.probs, rng);
      clean = clean && !op.branches[k];
      buf.drawn.push_back(k);
    }
    if (!clean) return evolve(buf, rng, buf.drawn.data());
    std::call_once(clean_once_, [&] { clean_ = evolve(buf, rng, buf.drawn.data()); });
    return clean_;
  }

 private:
  /// Runs the circuit from |psi> and reads |<v|psi_traj>|^2. Mixture sites
  /// take their branches from `drawn` in site order when it is non-null
  /// (only for circuits without Born sites), else draw inline.
  double evolve(TrajBuffers& buf, std::mt19937_64& rng, const std::size_t* drawn) const {
    if (buf.state.size() != size_) buf.state.resize(size_);
    if (two_qubit_born_ && buf.scratch.size() != size_) buf.scratch.resize(size_);
    std::fill(buf.state.begin(), buf.state.end(), cplx{0.0, 0.0});
    buf.state[psi_] = cplx{1.0, 0.0};

    for (const TrajOp& op : ops_) {
      switch (op.kind) {
        case TrajOp::Kind::Gate:
          op.gate.apply(buf.state.data(), size_, kt_);
          break;
        case TrajOp::Kind::Mixture: {
          // State-independent weights: one uniform through the fixed CDF
          // picks the branch, and a unitary needs no renormalization.
          const std::size_t k = drawn ? *drawn++ : sample_index(op.probs, rng);
          if (const std::optional<SvOp>& u = op.branches[k]) u->apply(buf.state.data(), size_, kt_);
          break;
        }
        case TrajOp::Kind::Born:
          born_step(op, buf, rng);
          break;
      }
    }
    return std::norm(buf.state[v_]);
  }

  /// One uniform against the cumulative Born probabilities, then the
  /// winner applied and renormalized.
  void born_step(const TrajOp& op, TrajBuffers& buf, std::mt19937_64& rng) const {
    // Born probabilities p_k = <psi| E_k^dag E_k |psi>: a local 2x2
    // expectation for 1-qubit sites; for 2-qubit sites E_k |psi> is
    // written into the scratch buffer and its norm read off.
    auto born = [&](std::size_t k) {
      if (!op.two_qubit) return expectation1(buf.state.data(), size_, op.born[k]).real();
      kt_.sv_dense2_into(buf.state.data(), buf.scratch.data(), size_, op.bit_a, op.bit_b,
                         op.kraus[k].data());
      return norm2(buf.scratch.data(), size_);
    };

    std::uniform_real_distribution<double> unif(0.0, 1.0);
    double cumulative = 0.0;
    const double u = unif(rng);
    std::size_t chosen = op.kraus.size() - 1;
    double p_chosen = 0.0;
    for (std::size_t k = 0; k < op.kraus.size(); ++k) {
      const double pk = born(k);
      cumulative += pk;
      if (u < cumulative) {
        chosen = k;
        p_chosen = pk;
        break;
      }
      p_chosen = pk;  // fall through to the last operator on rounding
    }
    const double scale = p_chosen > 0.0 ? 1.0 / std::sqrt(p_chosen) : 0.0;
    if (op.two_qubit) {
      // The scratch holds E_chosen |psi> (the last candidate evaluated);
      // renormalize with the 2x2 pass s*x + 0*y on the first qubit.
      std::swap(buf.state, buf.scratch);
      if (p_chosen > 0.0) {
        const cplx renorm[4] = {{scale, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {scale, 0.0}};
        kt_.sv_dense1(buf.state.data(), size_, op.bit_a, renorm);
      }
    } else if (p_chosen > 0.0) {
      kt_.sv_kraus1(buf.state.data(), size_, op.bit_a, op.kraus[chosen].data(), scale);
    } else {
      kt_.sv_dense1(buf.state.data(), size_, op.bit_a, op.kraus[chosen].data());
    }
  }

  const tsr::KernelTable& kt_;
  std::uint64_t psi_, v_;
  std::size_t size_ = 0;
  bool has_born_ = false, two_qubit_born_ = false;
  std::vector<TrajOp> ops_;
  mutable std::once_flag clean_once_;
  mutable double clean_ = 0.0;  // the noise-free trajectory, once evolved
};

}  // namespace

double sample_trajectory_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::uint64_t v_bits, std::mt19937_64& rng) {
  const CompiledTrajectory traj(nc, psi_bits, v_bits);
  TrajBuffers buf;
  return traj.sample(buf, rng);
}

TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples,
                                 std::mt19937_64& rng) {
  const CompiledTrajectory traj(nc, psi_bits, v_bits);
  TrajBuffers buf;
  Welford stats;  // folded in sample order, as one chunk of the runner
  for (std::size_t s = 0; s < samples; ++s) stats.add(traj.sample(buf, rng));
  return stats.result();  // zero samples: the well-defined empty estimate
}

TrajectoryResult trajectories_sv(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 std::uint64_t v_bits, std::size_t samples, std::uint64_t seed,
                                 const ParallelOptions& opts) {
  const CompiledTrajectory traj(nc, psi_bits, v_bits);
  return run_trajectories(
      samples, seed,
      [&traj](std::size_t) -> Sampler {
        return [&traj, buf = TrajBuffers{}](std::mt19937_64& rng) mutable {
          return traj.sample(buf, rng);
        };
      },
      opts);
}

std::size_t hoeffding_samples(double accuracy, double failure_prob) {
  la::detail::require(accuracy > 0.0, "hoeffding_samples: accuracy must be positive");
  // ln(2/failure) must be positive: failure_prob >= 2 would yield a
  // non-positive sample count (and a huge bogus value once cast to size_t).
  la::detail::require(failure_prob > 0.0 && failure_prob < 2.0,
                      "hoeffding_samples: failure_prob must be in (0, 2)");
  const double r = std::log(2.0 / failure_prob) / (2.0 * accuracy * accuracy);
  return static_cast<std::size_t>(std::ceil(r));
}

double hoeffding_accuracy(std::size_t samples, double failure_prob) {
  la::detail::require(samples > 0, "hoeffding_accuracy: samples must be positive");
  la::detail::require(failure_prob > 0.0 && failure_prob < 2.0,
                      "hoeffding_accuracy: failure_prob must be in (0, 2)");
  return std::sqrt(std::log(2.0 / failure_prob) / (2.0 * static_cast<double>(samples)));
}

TrajectoryCost sv_trajectory_cost(const ch::NoisyCircuit& nc) {
  // 2^n clamped so the double model stays finite and the size_t cast below
  // cannot overflow; at such widths every memory budget fails anyway.
  const double dim = std::pow(2.0, std::min(nc.num_qubits(), 62));
  TrajectoryCost out;
  double gate_flops = 0.0, p_clean = 1.0;
  bool born = false, scratch_copy = false;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      const double apply = (g->num_qubits() == 1 ? 2.0 : 4.0) * dim;
      out.per_sample_flops += apply;
      gate_flops += apply;
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const double apply = (noise.num_qubits() == 1 ? 2.0 : 4.0) * dim;
    if (const auto mix = normalized_mixture(noise.channel)) {
      // A fixed-weight draw applies one branch; identity branches are free.
      double identity = 0.0;
      for (std::size_t k = 0; k < mix->probs.size(); ++k) {
        if (is_scalar_identity(mix->unitaries[k]))
          identity += mix->probs[k];
        else
          out.per_sample_flops += mix->probs[k] * apply;
      }
      p_clean *= identity;
      continue;
    }
    born = true;
    if (noise.num_qubits() == 2) scratch_copy = true;
    // Born sampling evaluates each candidate (a local expectation or a
    // scratch apply + norm), then applies and renormalizes the winner.
    out.per_sample_flops +=
        (static_cast<double>(noise.channel.kraus().size()) + 2.0) * apply;
  }
  if (!born) {
    // Clean samples reuse the call's one noise-free evolution.
    out.per_sample_flops *= 1.0 - p_clean;
    out.per_call_flops = gate_flops;
  }
  out.peak_elems = static_cast<std::size_t>(dim * (scratch_copy ? 2.0 : 1.0));
  return out;
}

}  // namespace noisim::sim
