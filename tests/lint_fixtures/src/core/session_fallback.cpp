// lint-fixture: expect(replay-evaluator)
// An engine that picks between batched and per-term replay by hand: it
// builds its own BatchedSession, and falls back to a per-term Session when
// no batched plan compiled, instead of handing both cases to
// core::ReplayEvaluator.
#include <memory>
#include <optional>

#include "core/circuit_network.hpp"

namespace noisim::core {

cplx fixture_first_amplitude(const AmplitudeTemplate& tmpl, const tn::BatchedPlan* bplan,
                             std::span<const tsr::Tensor* const> ptrs,
                             std::span<const AmplitudeTemplate::Substitution> subs) {
  cplx out[1];
  if (bplan) {
    auto batched = std::make_shared<AmplitudeTemplate::BatchedSession>(tmpl, *bplan);
    batched->evaluate(ptrs, 1, out);
    return out[0];
  }
  AmplitudeTemplate::Session session = tmpl.session();
  return session.evaluate(subs);
}

}  // namespace noisim::core
