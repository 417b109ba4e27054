#include "tdd/tdd_sim.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "core/doubled_network.hpp"

namespace noisim::tdd {

cplx tdd_contract_network(const tn::Network& net, const TddSimOptions& opts, TddStats* stats) {
  la::detail::require(net.open_edges().empty(), "tdd_contract_network: network must be closed");
  la::detail::require(net.num_nodes() > 0, "tdd_contract_network: empty network");

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  Manager mgr(opts.max_nodes);

  // Support (open edge set) of the accumulated diagram.
  std::unordered_set<tn::EdgeId> open;
  Edge acc = mgr.terminal(cplx{1.0, 0.0});

  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    if (opts.control) opts.control->poll();

    const tn::Node& node = net.node(i);
    std::vector<Var> vars(node.edges.begin(), node.edges.end());
    const Edge piece = mgr.from_tensor(node.tensor, vars);

    // Edges whose second endpoint just arrived get summed out now.
    std::vector<Var> sum_vars;
    for (tn::EdgeId e : node.edges) {
      if (open.count(e)) {
        sum_vars.push_back(static_cast<Var>(e));
        open.erase(e);
      } else {
        open.insert(e);
      }
    }
    std::sort(sum_vars.begin(), sum_vars.end());
    acc = mgr.contract(acc, piece, sum_vars);

    if (stats) stats->peak_nodes = std::max(stats->peak_nodes, mgr.reachable_nodes(acc));
  }

  la::detail::require(open.empty(), "tdd_contract_network: dangling edges after contraction");
  la::detail::require(acc.is_terminal(), "tdd_contract_network: non-scalar result");
  if (stats) {
    stats->total_nodes = mgr.node_count();
    stats->elapsed_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return acc.weight;
}

double exact_fidelity_tdd(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                          std::uint64_t v_bits, const TddSimOptions& opts, TddStats* stats) {
  return tdd_contract_network(core::doubled_network(nc, psi_bits, v_bits), opts, stats).real();
}

}  // namespace noisim::tdd
