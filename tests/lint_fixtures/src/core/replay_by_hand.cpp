// lint-fixture: expect(replay-evaluator)
// An engine that picks between batched and per-term replay by hand: it
// keeps its own plan workspace and runs the batched plan when one compiled,
// the template's per-term plan otherwise, instead of handing both cases to
// core::ReplayEvaluator.
#include "core/circuit_network.hpp"

namespace noisim::core {

cplx fixture_first_amplitude(const AmplitudeTemplate& tmpl, const tn::BatchedPlan* bplan,
                             std::span<const tsr::Tensor* const> inputs,
                             std::span<const tsr::Tensor* const> varying) {
  tn::PlanWorkspace ws;
  if (bplan) return bplan->execute(inputs, varying, 1, ws)[0];
  return tmpl.plan().execute(inputs, ws).to_scalar();
}

}  // namespace noisim::core
