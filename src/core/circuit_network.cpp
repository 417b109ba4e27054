#include "core/circuit_network.hpp"

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
  // conjugation is a no-op and the same tensor serves both layers.
  for (int q = 0; q < n; ++q) {
    const bool one = basis_bit(v_bits, n, q);
    net.add_node(basis_state_tensor(one), {wire[static_cast<std::size_t>(q)]},
                 "v[q" + std::to_string(q) + "]");
  }
  return net;
}

AmplitudeTemplate::AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton,
                                     std::uint64_t psi_bits, std::uint64_t v_bits,
                                     bool conjugate, const EvalOptions& opts)
    : net_(amplitude_network(n, skeleton, psi_bits, v_bits, conjugate)),
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
  // replays through each Session's workspace instead (set_control).
  copts_.control = nullptr;
}

std::vector<std::size_t> AmplitudeTemplate::output_cap_nodes() const {
  std::vector<std::size_t> nodes(static_cast<std::size_t>(n_));
  for (int q = 0; q < n_; ++q) nodes[static_cast<std::size_t>(q)] = node_of_output_cap(q);
  return nodes;
}

void AmplitudeTemplate::fill_output_caps(std::uint64_t v_bits,
                                         std::span<const tsr::Tensor*> ptrs) const {
  la::detail::require(ptrs.size() >= static_cast<std::size_t>(n_),
                      "fill_output_caps: pointer span too small");
  for (int q = 0; q < n_; ++q)
    ptrs[static_cast<std::size_t>(q)] = basis_bit(v_bits, n_, q) ? &cap_one_ : &cap_zero_;
}

tn::BatchedPlan AmplitudeTemplate::compile_batched_outputs(std::size_t capacity,
                                                           tn::ContractStats* stats) const {
  const std::vector<std::size_t> nodes = output_cap_nodes();
  // Every cap is <0| or <1| and flips freely across a batch of bitstrings,
  // so each slot carries 2 variants with no per-term deviation promise.
  const std::vector<std::size_t> counts(nodes.size(), 2);
  const std::vector<char> unconstrained(nodes.size(), 1);
  return compile_batched(nodes, capacity, stats, counts, static_cast<std::size_t>(-1),
                         unconstrained);
}

AmplitudeTemplate::Session::Session(const AmplitudeTemplate& tmpl) : tmpl_(&tmpl) {
  inputs_.reserve(tmpl.net_.num_nodes());
  for (std::size_t i = 0; i < tmpl.net_.num_nodes(); ++i)
    inputs_.push_back(&tmpl.net_.node(i).tensor);
}

AmplitudeTemplate::BatchedSession::BatchedSession(const AmplitudeTemplate& tmpl,
                                                  const tn::BatchedPlan& bplan)
    : tmpl_(&tmpl), bplan_(&bplan) {
  shared_.reserve(tmpl.net_.num_nodes());
  for (std::size_t i = 0; i < tmpl.net_.num_nodes(); ++i)
    shared_.push_back(&tmpl.net_.node(i).tensor);
}

void AmplitudeTemplate::BatchedSession::evaluate(std::span<const Substitution> subs,
                                                 std::span<const tsr::Tensor* const> ptrs,
                                                 std::size_t k, std::span<cplx> out) {
  // Validate every index BEFORE applying anything: a mid-application throw
  // would leave earlier substitutions silently active in later calls.
  for (const Substitution& s : subs)
    la::detail::require(s.first < shared_.size(),
                        "BatchedSession: substitution out of range");
  for (const Substitution& s : subs) shared_[s.first] = s.second;
  try {
    evaluate(ptrs, k, out);
  } catch (...) {
    for (const Substitution& s : subs) shared_[s.first] = &tmpl_->net_.node(s.first).tensor;
    throw;
  }
  for (const Substitution& s : subs) shared_[s.first] = &tmpl_->net_.node(s.first).tensor;
}

void AmplitudeTemplate::BatchedSession::evaluate(std::span<const tsr::Tensor* const> ptrs,
                                                 std::size_t k, std::span<cplx> out) {
  la::detail::require(out.size() >= k, "BatchedSession: output span too small");
  const tsr::Tensor amps = bplan_->execute(shared_, ptrs, k, ws_, &stats_);
  la::detail::require(amps.size() == k, "BatchedSession: template output is not scalar");
  std::copy(amps.data(), amps.data() + k, out.data());
}

cplx AmplitudeTemplate::Session::evaluate(std::span<const Substitution> subs) {
  // Validate every index BEFORE applying anything: a mid-application throw
  // would leave earlier substitutions silently active in later calls.
  for (const Substitution& s : subs)
    la::detail::require(s.first < inputs_.size(), "AmplitudeTemplate: substitution out of range");
  for (const Substitution& s : subs) inputs_[s.first] = s.second;
  cplx value;
  try {
    value = tmpl_->plan_
                .execute(std::span<const tsr::Tensor* const>(inputs_), ws_, &stats_)
                .to_scalar();
  } catch (...) {
    for (const Substitution& s : subs) inputs_[s.first] = &tmpl_->net_.node(s.first).tensor;
    throw;
  }
  for (const Substitution& s : subs) inputs_[s.first] = &tmpl_->net_.node(s.first).tensor;
  return value;
}

namespace {

sim::Statevector evolve_sv(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
                           bool conjugate) {
  sim::Statevector sv = sim::Statevector::basis(n, psi_bits);
  for (const qc::Gate& g : gates) {
    la::Matrix m = g.matrix();
    if (conjugate) m = m.conj();
    if (g.num_qubits() == 1)
      sv.apply_matrix1(m, g.qubits[0]);
    else
      sv.apply_matrix2(m, g.qubits[0], g.qubits[1]);
  }
  return sv;
}

cplx amplitude_sv(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
                  std::uint64_t v_bits, bool conjugate) {
  return evolve_sv(n, gates, psi_bits, conjugate).amplitude(v_bits);
}

}  // namespace

cplx amplitude(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
               std::uint64_t v_bits, bool conjugate, const EvalOptions& opts,
               tn::ContractStats* stats) {
  const std::vector<qc::Gate>* use = &gates;
  std::vector<qc::Gate> reduced;
  if (opts.simplify) {
    reduced = qc::cancel_inverse_pairs(gates);
    use = &reduced;
  }

  auto contract_tn = [&] {
    return tn::contract_to_scalar(amplitude_network(n, *use, psi_bits, v_bits, conjugate),
                                  opts.tn, stats);
  };

  switch (opts.backend) {
    case EvalOptions::Backend::StateVector:
      return amplitude_sv(n, *use, psi_bits, v_bits, conjugate);
    case EvalOptions::Backend::TensorNetwork:
      return contract_tn();
    case EvalOptions::Backend::Auto:
      if (n <= kSvMaxQubits) return amplitude_sv(n, *use, psi_bits, v_bits, conjugate);
      return contract_tn();
  }
  la::detail::fail("amplitude: unknown backend");
}

std::vector<cplx> batch_amplitudes(int n, const std::vector<qc::Gate>& gates,
                                   std::uint64_t psi_bits,
                                   std::span<const std::uint64_t> v_bits, bool conjugate,
                                   const EvalOptions& opts, tn::ContractStats* stats) {
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
    const sim::Statevector sv = evolve_sv(n, *use, psi_bits, conjugate);
    for (std::size_t t = 0; t < v_bits.size(); ++t) out[t] = sv.amplitude(v_bits[t]);
    return out;
  }

  // One compiled skeleton for every bitstring; the template's own caps are
  // placeholders (the varying slots always substitute them).
  const AmplitudeTemplate tmpl(n, *use, psi_bits, v_bits[0], conjugate, eval);
  if (stats) stats->merge(tmpl.compile_stats());
  const std::size_t nn = static_cast<std::size_t>(n);

  constexpr std::size_t kOutputBatch = 64;
  const std::size_t cap = std::min(v_bits.size(), kOutputBatch);
  const auto bplan = batched_plan_or_null(cap, [&] {
    return std::make_shared<const tn::BatchedPlan>(tmpl.compile_batched_outputs(cap, stats));
  });
  const std::vector<std::size_t> slots = tmpl.output_cap_nodes();
  ReplayEvaluator evaluator(tmpl, slots, bplan.get());
  std::vector<const tsr::Tensor*> ptrs(cap * nn);
  for (std::size_t b = 0; b < v_bits.size(); b += cap) {
    const std::size_t k = std::min(cap, v_bits.size() - b);
    for (std::size_t t = 0; t < k; ++t)
      tmpl.fill_output_caps(v_bits[b + t], std::span(ptrs).subspan(t * nn, nn));
    evaluator.evaluate({}, std::span<const tsr::Tensor* const>(ptrs).first(k * nn), k,
                       std::span<cplx>(out).subspan(b, k));
  }
  if (stats) stats->merge(evaluator.stats());
  return out;
}

ReplayEvaluator::ReplayEvaluator(const AmplitudeTemplate& tmpl,
                                 std::span<const std::size_t> slots,
                                 const tn::BatchedPlan* bplan, const RunControl* control)
    : slots_(slots) {
  if (bplan) {
    batched_.emplace(tmpl, *bplan);
    batched_->set_control(control);
  } else {
    per_term_.emplace(tmpl.session());
    per_term_->set_control(control);
  }
}

void ReplayEvaluator::evaluate(std::span<const AmplitudeTemplate::Substitution> shared,
                               std::span<const tsr::Tensor* const> ptrs, std::size_t k,
                               std::span<cplx> out) {
  const std::size_t V = slots_.size();
  la::detail::require(ptrs.size() >= k * V && out.size() >= k,
                      "ReplayEvaluator: pointer or output span too small");
  if (batched_) {
    const std::size_t cap = batched_->capacity();
    for (std::size_t b = 0; b < k; b += cap) {
      const std::size_t kb = std::min(cap, k - b);
      batched_->evaluate(shared, ptrs.subspan(b * V, kb * V), kb, out.subspan(b, kb));
    }
    return;
  }
  subs_.assign(shared.begin(), shared.end());
  subs_.resize(shared.size() + V);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t v = 0; v < V; ++v) subs_[shared.size() + v] = {slots_[v], ptrs[t * V + v]};
    out[t] = per_term_->evaluate(subs_);
  }
}

const tn::ContractStats& ReplayEvaluator::stats() const {
  return batched_ ? batched_->stats() : per_term_->stats();
}

}  // namespace noisim::core
