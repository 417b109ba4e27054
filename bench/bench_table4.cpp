// Table IV: accuracy/cost trade-off across approximation levels 0..3.
//
// Protocol (following the paper): a QAOA circuit with 10 realistic noises,
// |psi> = |0..0> and |v> = U|0..0> with U the ideal circuit. The projector
// rewrite <v|E(rho)|v> = <0|(U^dag . E)(rho)|0> plus inverse-pair
// cancellation shrinks every split network to the insertions' light cones,
// which is what makes the higher levels affordable.

#include "bench_common.hpp"
#include "core/approx.hpp"
#include "core/doubled_network.hpp"

namespace {
using namespace noisim;
}

int main() {
  bench::print_header("Table IV: accuracy per approximation level", "paper Table IV");

  const int n = bench::large_mode() ? 64 : 16;
  const qc::Circuit circuit = bench::qaoa(n, 1, 401);
  const std::size_t noises = 10;
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, noises, bench::realistic_noise(), 402);
  const ch::NoisyCircuit projected = core::with_ideal_output_projector(nc);

  // Reference: exact contraction of the doubled diagram. v = U|0> keeps the
  // fidelity near 1 (this is why the paper's Table IV results sit at ~0.958).
  const auto exact = bench::run_guarded([&] {
    const bench::Deadline budget(bench::timeout_large());
    tn::ContractOptions exact_opts;
    exact_opts.control = &budget;
    exact_opts.max_tensor_elems = bench::memory_budget();
    return core::exact_fidelity_tn(projected, 0, 0, exact_opts);
  });
  std::cout << "circuit qaoa_" << n << ", " << noises << " noises, exact fidelity = "
            << (exact.ok() ? bench::sci(exact.value) : "unavailable") << " ("
            << bench::fixed(exact.seconds) << " s)\n\n";

  const std::size_t max_level = 3;
  core::ApproxOptions opts;
  opts.level = max_level;
  opts.eval.simplify = true;  // light-cone reduction
  opts.eval.tn.max_tensor_elems = bench::memory_budget();

  // One engine run evaluates all partial sums A(0..3); per-level timing is
  // reconstructed from cumulative contraction counts on separate runs.
  bench::Table table({"level", "time(s)", "result", "error"});
  for (std::size_t level = 0; level <= max_level; ++level) {
    const auto run = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      core::ApproxOptions lopts = opts;
      lopts.level = level;
      lopts.control = &budget;
      return core::approximate_fidelity(projected, 0, 0, lopts).value;
    });
    std::string error = "-";
    if (run.ok() && exact.ok()) error = bench::sci(std::abs(run.value - exact.value));
    table.add_row({std::to_string(level), bench::format_time(run),
                   run.ok() ? bench::fixed(run.value, 7) : "-", error});
  }

  table.print(std::cout);
  std::cout << "\nExpected shape (paper Table IV): each level costs roughly an order of\n"
            << "magnitude more time and removes roughly an order of magnitude of error,\n"
            << "with level 1 the recommended operating point.\n";
  return 0;
}
