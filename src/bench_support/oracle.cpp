#include "bench_support/oracle.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/superop.hpp"

namespace noisim::bench {

core::ApproxResult replanned_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t level,
                                      const core::EvalOptions& eval) {
  la::detail::require(!eval.simplify, "replanned_fidelity: eval.simplify is not supported");
  const auto started = std::chrono::steady_clock::now();
  const int n = nc.num_qubits();

  // Gate list with an identity at every noise site, plus each site's split.
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> pos;
  std::vector<core::SplitNoise> splits;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    pos.push_back(gates.size());
    splits.push_back(core::split_noise(noise.channel));
    gates.push_back(noise.num_qubits() == 1
                        ? qc::u1q(noise.qubit, la::Matrix::identity(2))
                        : qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
  }
  const std::size_t sites = splits.size();
  level = std::min(level, sites);

  core::ApproxResult result;
  result.term_sums.assign(level + 1, cplx{0.0, 0.0});
  std::vector<qc::Gate> top = gates, bottom = gates;
  std::vector<std::size_t> choice(sites, 0);  // split term per site
  auto add_term = [&](std::size_t u) {
    for (std::size_t s = 0; s < sites; ++s) {
      top[pos[s]].custom = splits[s].u[choice[s]];
      // The bottom layer conjugates every matrix, so conj(V) applies V.
      bottom[pos[s]].custom = splits[s].v[choice[s]].conj();
    }
    result.term_sums[u] +=
        core::amplitude(n, top, psi_bits, v_bits, false, eval, &result.contract_stats) *
        core::amplitude(n, bottom, psi_bits, v_bits, true, eval, &result.contract_stats);
    result.contractions += 2;
  };

  for (std::size_t u = 0; u <= level; ++u) {
    // u-subsets in lexicographic order (prev_permutation of a mask whose
    // first u entries are set), then every subdominant index tuple.
    std::vector<char> mask(sites, 0);
    std::fill_n(mask.begin(), u, 1);
    do {
      std::vector<std::size_t> chosen;
      for (std::size_t s = 0; s < sites; ++s)
        if (mask[s]) chosen.push_back(s);
      for (const std::size_t s : chosen) choice[s] = 1;
      std::size_t i = 0;
      do {
        add_term(u);
        for (i = 0; i < chosen.size() && ++choice[chosen[i]] == splits[chosen[i]].terms(); ++i)
          choice[chosen[i]] = 1;
      } while (i < chosen.size());
      for (const std::size_t s : chosen) choice[s] = 0;
    } while (std::prev_permutation(mask.begin(), mask.end()));
  }

  for (const cplx& t : result.term_sums) {
    result.raw += t;
    result.level_values.push_back(result.raw.real());
  }
  result.value = result.raw.real();
  result.eval_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

}  // namespace noisim::bench
