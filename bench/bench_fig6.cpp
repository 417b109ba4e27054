// Fig. 6: approximation error of the level-1 approximation vs. noise rate,
// under the realistic (thermal relaxation) fault model and the depolarizing
// model.
//
// The paper's claim: error grows with the noise rate (quadratically for the
// level-1 approximation, by Theorem 1), so higher-quality hardware means
// higher simulation precision.

#include "bench_common.hpp"
#include "core/approx.hpp"
#include "core/bounds.hpp"
#include "core/doubled_network.hpp"

namespace {
using namespace noisim;

void sweep(const std::string& label, const qc::Circuit& circuit, std::size_t noises,
           const std::vector<double>& rates, bool realistic) {
  std::cout << "--- " << label << " ---\n";
  bench::Table table({"noise-rate", "exact", "level-1", "error", "thm1-bound"});
  std::vector<std::vector<std::string>> csv{{"rate", "error"}};

  for (double rate : rates) {
    const bench::NoiseModel model =
        realistic ? bench::realistic_noise(rate) : bench::depolarizing_noise(rate);
    // v = ideal output keeps the fidelity near 1 so errors land on the
    // paper's 1e-4-ish scale rather than being suppressed by a vanishing
    // |<0|C|0>|^2.
    const ch::NoisyCircuit nc = core::with_ideal_output_projector(
        bench::insert_noises(circuit, noises, model, 600));

    const auto exact = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      tn::ContractOptions exact_opts;
      exact_opts.control = &budget;
      exact_opts.max_tensor_elems = bench::memory_budget();
      return core::exact_fidelity_tn(nc, 0, 0, exact_opts);
    });

    double bound = 0.0;
    const auto ours = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      core::ApproxOptions opts;
      opts.level = 1;
      opts.eval.simplify = true;
      opts.eval.tn.max_tensor_elems = bench::memory_budget();
      opts.control = &budget;
      const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
      bound = r.error_bound;
      return r.value;
    });

    std::string err = "-";
    if (exact.ok() && ours.ok()) err = bench::sci(std::abs(ours.value - exact.value));
    table.add_row({bench::sci(realistic ? rate : 4.0 * rate / 3.0),
                   exact.ok() ? bench::sci(exact.value) : bench::format_time(exact),
                   ours.ok() ? bench::sci(ours.value) : bench::format_time(ours), err,
                   bench::sci(bound)});
    csv.push_back({bench::sci(realistic ? rate : 4.0 * rate / 3.0), err});
  }
  table.print(std::cout);
  std::cout << "CSV:\n";
  bench::write_csv(std::cout, csv);
  std::cout << "\n";
}

}  // namespace

int main() {
  bench::print_header("Fig. 6: approximation error vs noise rate", "paper Fig. 6");

  const int n = bench::large_mode() ? 36 : 16;
  const qc::Circuit circuit = bench::qaoa(n, 1, 601);
  const std::size_t noises = 10;
  std::cout << "circuit qaoa_" << n << ", " << noises << " noises, level-1 approximation\n\n";

  // Realistic fault model: rates around the paper's 6e-3 .. 8e-3 window.
  sweep("realistic fault model (thermal relaxation)", circuit, noises,
        {0.006, 0.0065, 0.007, 0.0075, 0.008}, /*realistic=*/true);

  // Depolarizing model: p in 0 .. 1e-2 like the paper's right panel
  // (the x-axis below is the *noise rate* 4p/3).
  sweep("depolarizing noise model", circuit, noises,
        {0.001, 0.0025, 0.005, 0.0075, 0.01}, /*realistic=*/false);

  std::cout << "Expected shape (paper Fig. 6): error rises with the noise rate in both\n"
            << "models and stays below the Theorem-1 bound.\n";
  return 0;
}
