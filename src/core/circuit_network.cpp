#include "core/circuit_network.hpp"

#include <algorithm>

#include "circuit/simplify.hpp"
#include "sim/statevector.hpp"
#include "tensor/contract.hpp"

namespace noisim::core {

tsr::Tensor basis_state_tensor(bool one) {
  tsr::Tensor t{{2}};
  t[one ? 1 : 0] = cplx{1.0, 0.0};
  return t;
}

tsr::Tensor gate_matrix_tensor(const la::Matrix& m, int num_qubits) {
  tsr::Tensor t = tsr::Tensor::from_matrix(m);
  if (num_qubits == 2) t = std::move(t).reshape({2, 2, 2, 2});
  return t;
}

tn::Network amplitude_network(int n, const std::vector<qc::Gate>& gates,
                              std::uint64_t psi_bits, std::uint64_t v_bits, bool conjugate) {
  la::detail::require(n > 0, "amplitude_network: qubit count out of range");
  tn::Network net;

  // Input caps |psi_q> establish the initial wire edges.
  std::vector<tn::EdgeId> wire(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    wire[static_cast<std::size_t>(q)] = net.new_edge();
    const bool one = basis_bit(psi_bits, n, q);
    net.add_node(basis_state_tensor(one), {wire[static_cast<std::size_t>(q)]},
                 "psi[q" + std::to_string(q) + "]");
  }

  for (const qc::Gate& g : gates) {
    la::Matrix m = g.matrix();
    if (conjugate) m = m.conj();
    if (g.num_qubits() == 1) {
      const auto q = static_cast<std::size_t>(g.qubits[0]);
      const tn::EdgeId out = net.new_edge();
      net.add_node(gate_matrix_tensor(m, 1), {out, wire[q]}, g.description());
      wire[q] = out;
    } else {
      const auto a = static_cast<std::size_t>(g.qubits[0]);
      const auto b = static_cast<std::size_t>(g.qubits[1]);
      const tn::EdgeId out_a = net.new_edge();
      const tn::EdgeId out_b = net.new_edge();
      net.add_node(gate_matrix_tensor(m, 2), {out_a, out_b, wire[a], wire[b]}, g.description());
      wire[a] = out_a;
      wire[b] = out_b;
    }
  }

  // Output caps <v_q|. For computational basis states the bra is real, so
  // conjugation is a no-op on them.
  for (int q = 0; q < n; ++q) {
    const bool one = basis_bit(v_bits, n, q);
    net.add_node(basis_state_tensor(one), {wire[static_cast<std::size_t>(q)]},
                 "v[q" + std::to_string(q) + "]");
  }
  return net;
}

AmplitudeTemplate::AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton,
                                     std::uint64_t psi_bits, std::uint64_t v_bits,
                                     const EvalOptions& opts)
    : net_(amplitude_network(n, skeleton, psi_bits, v_bits)),
      copts_(opts.tn),
      plan_(tn::ContractionPlan::compile(net_, copts_, &compile_stats_)),
      n_(n),
      num_gates_(skeleton.size()),
      cap_zero_(basis_state_tensor(false)),
      cap_one_(basis_state_tensor(true)) {
  // Templates are cached (core::PlanCache) and outlive the call that built
  // them, so the caller's RunControl -- which the compile above honored --
  // must not survive on the stored options: a later compile_batched through
  // a cache hit would poll a dangling pointer. Run-time control reaches
  // replays through each evaluator's workspace instead.
  copts_.control = nullptr;
}

std::vector<std::size_t> AmplitudeTemplate::output_cap_nodes() const {
  std::vector<std::size_t> nodes(static_cast<std::size_t>(n_));
  for (int q = 0; q < n_; ++q) nodes[static_cast<std::size_t>(q)] = node_of_output_cap(q);
  return nodes;
}

InputTable::InputTable(const AmplitudeTemplate& tmpl) : net_(&tmpl.net_) {
  inputs_.reserve(net_->num_nodes());
  for (std::size_t i = 0; i < net_->num_nodes(); ++i) inputs_.push_back(&net_->node(i).tensor);
}

void InputTable::apply(std::span<const AmplitudeTemplate::Substitution> subs) {
  // Validate every index BEFORE applying anything: a mid-application throw
  // would leave earlier substitutions silently active in later calls.
  for (const AmplitudeTemplate::Substitution& s : subs)
    la::detail::require(s.first < inputs_.size(), "InputTable: substitution out of range");
  for (const AmplitudeTemplate::Substitution& s : subs) inputs_[s.first] = s.second;
}

void InputTable::restore(std::span<const AmplitudeTemplate::Substitution> subs) {
  for (const AmplitudeTemplate::Substitution& s : subs) inputs_[s.first] = &net_->node(s.first).tensor;
}

namespace {

sim::Statevector evolve_sv(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits) {
  sim::Statevector sv = sim::Statevector::basis(n, psi_bits);
  for (const qc::Gate& g : gates) {
    if (g.num_qubits() == 1)
      sv.apply_matrix1(g.matrix(), g.qubits[0]);
    else
      sv.apply_matrix2(g.matrix(), g.qubits[0], g.qubits[1]);
  }
  return sv;
}

cplx amplitude_sv(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
                  std::uint64_t v_bits) {
  return evolve_sv(n, gates, psi_bits).amplitude(v_bits);
}

}  // namespace

cplx amplitude(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
               std::uint64_t v_bits, const EvalOptions& opts, tn::ContractStats* stats) {
  require_basis_label(psi_bits, n, "amplitude");
  require_basis_label(v_bits, n, "amplitude");
  const std::vector<qc::Gate>* use = &gates;
  std::vector<qc::Gate> reduced;
  if (opts.simplify) {
    reduced = qc::cancel_inverse_pairs(gates);
    use = &reduced;
  }

  auto contract_tn = [&] {
    return tn::contract_to_scalar(amplitude_network(n, *use, psi_bits, v_bits), opts.tn, stats);
  };

  switch (opts.backend) {
    case EvalOptions::Backend::StateVector:
      return amplitude_sv(n, *use, psi_bits, v_bits);
    case EvalOptions::Backend::TensorNetwork:
      return contract_tn();
    case EvalOptions::Backend::Auto:
      if (n <= kSvMaxQubits) return amplitude_sv(n, *use, psi_bits, v_bits);
      return contract_tn();
  }
  la::detail::fail("amplitude: unknown backend");
}

std::vector<cplx> batch_amplitudes(int n, const std::vector<qc::Gate>& gates,
                                   std::uint64_t psi_bits,
                                   std::span<const std::uint64_t> v_bits,
                                   const EvalOptions& opts, tn::ContractStats* stats) {
  require_basis_label(psi_bits, n, "batch_amplitudes");
  for (const std::uint64_t v : v_bits) require_basis_label(v, n, "batch_amplitudes");
  std::vector<cplx> out(v_bits.size());
  if (v_bits.empty()) return out;

  const std::vector<qc::Gate>* use = &gates;
  std::vector<qc::Gate> reduced;
  if (opts.simplify) {
    reduced = qc::cancel_inverse_pairs(gates);
    use = &reduced;
  }
  EvalOptions eval = opts;
  eval.simplify = false;  // already applied to the shared gate list

  if (!uses_tensor_network(eval, n)) {
    // One forward evolution; every amplitude read off the same final state
    // is bit-identical to its standalone amplitude() evaluation.
    const sim::Statevector sv = evolve_sv(n, *use, psi_bits);
    for (std::size_t t = 0; t < v_bits.size(); ++t) out[t] = sv.amplitude(v_bits[t]);
    return out;
  }

  // One compiled skeleton for every bitstring, replayed as one row at up
  // to 64 outputs per traversal; the template's own caps are placeholders
  // (every replay substitutes them).
  const AmplitudeTemplate tmpl(n, *use, psi_bits, v_bits[0], eval);
  if (stats) stats->merge(tmpl.compile_stats());
  constexpr std::size_t kOutputBatch = 64;
  const ReplayLayout layout(tmpl, {}, {}, 1, v_bits.size(), kOutputBatch);
  const auto bplan = batched_plan_or_null(layout.capacity(), [&] {
    return std::make_shared<const tn::BatchedPlan>(
        layout.compile(tmpl, static_cast<std::size_t>(-1), stats));
  });
  ReplayEvaluator evaluator(tmpl, layout, bplan.get(), eval.tn.control);
  evaluator.amplitudes({}, 1, v_bits, out);
  if (stats) stats->merge(evaluator.stats());
  return out;
}

ReplayLayout::ReplayLayout(const AmplitudeTemplate& tmpl,
                           std::span<const std::size_t> site_nodes,
                           std::span<const std::size_t> site_counts, std::size_t rows_wanted,
                           std::size_t outputs_wanted, std::size_t max_outputs)
    : sites(site_nodes.size()),
      outputs(std::clamp<std::size_t>(outputs_wanted, 1, std::max<std::size_t>(max_outputs, 1))),
      slots(site_nodes.begin(), site_nodes.end()),
      counts(site_counts.begin(), site_counts.end()),
      unconstrained(sites, 0) {
  la::detail::require(site_counts.size() == sites, "ReplayLayout: one count per site");
  rows = rows_per_traversal(rows_wanted, outputs);
  if (outputs > 1) {
    for (const std::size_t cap : tmpl.output_cap_nodes()) {
      slots.push_back(cap);
      counts.push_back(2);
      unconstrained.push_back(1);
    }
  }
}

std::size_t ReplayLayout::rows_per_traversal(std::size_t rows, std::size_t outputs) {
  return std::min(std::max<std::size_t>(rows, 1),
                  std::max<std::size_t>(kMaxBatchPairs / std::max<std::size_t>(outputs, 1), 1));
}

tn::BatchedPlan ReplayLayout::compile(const AmplitudeTemplate& tmpl,
                                      std::size_t max_varied_per_term,
                                      tn::ContractStats* stats) const {
  return tmpl.compile_batched(slots, capacity(), stats, counts, max_varied_per_term,
                              unconstrained);
}

ReplayEvaluator::ReplayEvaluator(const AmplitudeTemplate& tmpl, ReplayLayout layout,
                                 const tn::BatchedPlan* bplan, const RunControl* control)
    : tmpl_(&tmpl),
      layout_(std::move(layout)),
      bplan_(bplan),
      inputs_(tmpl),
      ptrs_(layout_.capacity() * layout_.slots.size()),
      pair_(layout_.slots.size()),
      amps_(layout_.capacity()) {
  la::detail::require(!bplan || (bplan->varying_slots() == layout_.slots &&
                                 bplan->capacity() >= layout_.capacity()),
                      "ReplayEvaluator: batched plan not compiled from this layout");
  ws_.control = control;
  if (layout_.slots.size() == layout_.sites)  // one output per traversal
    for (int q = 0; q < tmpl.num_qubits(); ++q)
      shared_.emplace_back(tmpl.node_of_output_cap(q), nullptr);
}

void ReplayEvaluator::amplitudes(std::span<const tsr::Tensor* const> rows, std::size_t k,
                                 std::span<const std::uint64_t> outputs, std::span<cplx> out) {
  la::detail::require(out.size() >= k * outputs.size(), "ReplayEvaluator: output span too small");
  run(rows, k, outputs, [&](std::size_t i, cplx a) { out[i] = a; });
}

void ReplayEvaluator::norms(std::span<const tsr::Tensor* const> rows, std::size_t k,
                            std::span<const std::uint64_t> outputs, std::span<double> out) {
  la::detail::require(out.size() >= k * outputs.size(), "ReplayEvaluator: output span too small");
  run(rows, k, outputs, [&](std::size_t i, cplx a) { out[i] = std::norm(a); });
}

template <class Store>
void ReplayEvaluator::run(std::span<const tsr::Tensor* const> rows, std::size_t k,
                          std::span<const std::uint64_t> outputs, Store&& store) {
  const std::size_t S = layout_.sites, V = layout_.slots.size(), K = outputs.size();
  const int n = tmpl_->num_qubits();
  la::detail::require(rows.size() >= k * S, "ReplayEvaluator: row span too small");
  auto cap = [&](std::uint64_t v, int q) { return &tmpl_->output_cap(basis_bit(v, n, q)); };
  for (std::size_t r0 = 0; r0 < k; r0 += layout_.rows) {
    const std::size_t rc = std::min(layout_.rows, k - r0);
    for (std::size_t o0 = 0; o0 < K; o0 += layout_.outputs) {
      const std::size_t oc = std::min(layout_.outputs, K - o0);
      // Pair o * rc + r: row r0 + r's sites, then output o0 + o's caps
      // when they vary; a one-output layout substitutes them as shared
      // inputs instead.
      for (std::size_t o = 0; o < oc; ++o)
        for (std::size_t r = 0; r < rc; ++r) {
          const std::span<const tsr::Tensor*> p =
              std::span(ptrs_).subspan((o * rc + r) * V, V);
          std::ranges::copy(rows.subspan((r0 + r) * S, S), p.begin());
          for (std::size_t q = S; q < V; ++q) p[q] = cap(outputs[o0 + o], static_cast<int>(q - S));
        }
      for (std::size_t q = 0; q < shared_.size(); ++q)
        shared_[q].second = cap(outputs[o0], static_cast<int>(q));
      traverse(rc * oc);
      for (std::size_t r = 0; r < rc; ++r)
        for (std::size_t o = 0; o < oc; ++o) store((r0 + r) * K + o0 + o, amps_[o * rc + r]);
    }
  }
}

void ReplayEvaluator::traverse(std::size_t pairs) {
  const std::size_t V = layout_.slots.size();
  const auto ptrs = std::span<const tsr::Tensor* const>(ptrs_).first(pairs * V);
  inputs_.with(shared_, [&](std::span<const tsr::Tensor* const> inputs) {
    if (bplan_) {
      const tsr::Tensor amps = bplan_->execute(inputs, ptrs, pairs, ws_, &stats_);
      la::detail::require(amps.size() == pairs, "ReplayEvaluator: template output is not scalar");
      std::copy(amps.data(), amps.data() + pairs, amps_.begin());
      return;
    }
    for (std::size_t t = 0; t < pairs; ++t) {
      for (std::size_t v = 0; v < V; ++v) pair_[v] = {layout_.slots[v], ptrs[t * V + v]};
      inputs_.with(pair_, [&](std::span<const tsr::Tensor* const> in) {
        amps_[t] = tmpl_->plan().execute(in, ws_, &stats_).to_scalar();
      });
    }
  });
}

EnvEvaluator::EnvEvaluator(const AmplitudeTemplate& tmpl, const tn::EnvSchedule& sched,
                           const RunControl* control)
    : sched_(&sched), inputs_(tmpl) {
  ws_.control = control;
}

cplx EnvEvaluator::evaluate(std::span<const AmplitudeTemplate::Substitution> subs,
                            std::span<const char> want, std::size_t terms) {
  cplx value;
  inputs_.with(subs, [&](std::span<const tsr::Tensor* const> inputs) {
    value = sched_->execute(inputs, want, ws_, &stats_, terms);
  });
  return value;
}

cplx EnvEvaluator::overlap(std::size_t t, const tsr::Tensor& k) const {
  const std::span<const cplx> env = sched_->env(t, ws_);
  la::detail::require(k.size() == env.size(), "EnvEvaluator: factor size mismatch");
  cplx sum{0.0, 0.0};
  for (std::size_t j = 0; j < env.size(); ++j) sum += env[j] * k[j];
  return sum;
}

}  // namespace noisim::core
