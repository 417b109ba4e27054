// Cross-method integration tests on the paper's benchmark families: every
// simulator in the repo must agree on the same noisy circuit, and the
// approximation ladder must behave as Theorem 1 promises on realistic
// workloads (not just random toy circuits).
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "circuit/simplify.hpp"
#include "core/approx.hpp"
#include "core/bounds.hpp"
#include "core/doubled_network.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"
#include "tdd/tdd_sim.hpp"

namespace noisim {
namespace {

struct Workload {
  std::string name;
  ch::NoisyCircuit nc;
};

Workload make_workload(int which, std::uint64_t seed) {
  switch (which) {
    case 0: {
      const qc::Circuit c = bench::qaoa_grid(2, 3, 1, seed);
      return {"qaoa_2x3", bench::insert_noises(c, 4, bench::realistic_noise(1e-2), seed + 1)};
    }
    case 1: {
      const qc::Circuit c = bench::hf_vqe(6, seed);
      return {"hf_6", bench::insert_noises(c, 3, bench::depolarizing_noise(0.01), seed + 1)};
    }
    default: {
      const qc::Circuit c = bench::supremacy_inst(2, 3, 8, seed);
      return {"inst_2x3_8", bench::insert_noises(c, 4, bench::realistic_noise(8e-3), seed + 1)};
    }
  }
}

class CrossMethod : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossMethod, AllExactMethodsAgree) {
  const auto [family, seed] = GetParam();
  const Workload w = make_workload(family, static_cast<std::uint64_t>(seed));

  const double mm = sim::exact_fidelity_mm(w.nc, 0, 0);
  const double tn = core::exact_fidelity_tn(w.nc, 0, 0);
  const double tdd = tdd::exact_fidelity_tdd(w.nc, 0, 0);
  EXPECT_NEAR(tn, mm, 1e-9) << w.name;
  EXPECT_NEAR(tdd, mm, 1e-9) << w.name;

  // Full-level approximation is exact as well.
  core::ApproxOptions opts;
  opts.level = w.nc.noise_count();
  EXPECT_NEAR(core::approximate_fidelity(w.nc, 0, 0, opts).value, mm, 1e-9) << w.name;
}

TEST_P(CrossMethod, Level1WithinBoundOnBenchmarkFamilies) {
  const auto [family, seed] = GetParam();
  const Workload w = make_workload(family, static_cast<std::uint64_t>(seed) + 50);
  const double exact = sim::exact_fidelity_mm(w.nc, 0, 0);

  core::ApproxOptions opts;
  opts.level = 1;
  const core::ApproxResult r = core::approximate_fidelity(w.nc, 0, 0, opts);
  EXPECT_LE(std::abs(r.value - exact), r.error_bound + 1e-12) << w.name;
}

INSTANTIATE_TEST_SUITE_P(Families, CrossMethod,
                         ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 4)));

TEST(Integration, IdealOutputFidelityNearOneUnderWeakNoise) {
  // The qaoa_fidelity_study scenario: fidelity vs the ideal output starts
  // near 1 and decreases monotonically with the noise count.
  const qc::Circuit circuit = bench::qaoa_grid(3, 3, 1, 5);
  double prev = 1.0;
  for (std::size_t noises : {1u, 4u, 8u}) {
    const ch::NoisyCircuit nc = core::with_ideal_output_projector(
        bench::insert_noises(circuit, noises, bench::realistic_noise(8e-3), 6));
    const double f = sim::exact_fidelity_mm(nc, 0, 0);
    EXPECT_GT(f, 0.8);
    EXPECT_LT(f, prev + 1e-9);
    prev = f;
  }
}

TEST(Integration, SimplifiedEngineMatchesPlainOnProjectedWorkload) {
  const qc::Circuit circuit = bench::qaoa_grid(2, 3, 1, 9);
  const ch::NoisyCircuit nc = core::with_ideal_output_projector(
      bench::insert_noises(circuit, 5, bench::realistic_noise(1e-2), 10));
  core::ApproxOptions plain, reduced;
  plain.level = reduced.level = 1;
  reduced.eval.simplify = true;
  const double a = core::approximate_fidelity(nc, 0, 0, plain).value;
  const double b = core::approximate_fidelity(nc, 0, 0, reduced).value;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Integration, LightconeReductionShrinksProjectedCircuits) {
  const qc::Circuit circuit = bench::qaoa_grid(3, 3, 1, 12);
  const ch::NoisyCircuit nc = core::with_ideal_output_projector(
      bench::insert_noises(circuit, 2, bench::realistic_noise(1e-2), 13));
  std::vector<qc::Gate> gates;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op))
      gates.push_back(*g);
    else
      gates.push_back(qc::u1q(std::get<ch::NoiseOp>(op).qubit, la::Matrix{{2, 0}, {0, 3}}));
  }
  const auto reduced = qc::cancel_inverse_pairs(gates);
  EXPECT_LT(reduced.size(), gates.size() / 2) << "reduction should collapse the mirrored bulk";
}

TEST(Integration, TrajectoriesBothVariantsAgreeWithExact) {
  const qc::Circuit circuit = bench::qaoa_grid(2, 2, 1, 14);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, 6, bench::depolarizing_noise(0.05), 15);
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);

  std::mt19937_64 rng1(1), rng2(2);
  const auto mm = sim::trajectories_sv(nc, 0, 0, 3000, rng1);
  const auto tn = core::trajectories_tn(nc, 0, 0, 3000, rng2);
  EXPECT_NEAR(mm.mean, exact, 5.0 * mm.std_error + 1e-6);
  EXPECT_NEAR(tn.mean, exact, 5.0 * tn.std_error + 1e-6);
}

TEST(Integration, TheoremBoundMatchesReportedContractionBudget) {
  const qc::Circuit circuit = bench::qaoa_grid(2, 3, 1, 20);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, 7, bench::depolarizing_noise(0.002), 21);
  for (std::size_t level : {0u, 1u, 2u}) {
    core::ApproxOptions opts;
    opts.level = level;
    const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
    // The paper counts both layers; the sweep contracts one per term.
    EXPECT_DOUBLE_EQ(2.0 * static_cast<double>(r.contractions),
                     core::contraction_count(7, level));
    EXPECT_NEAR(r.error_bound, core::theorem1_error_bound(7, nc.max_noise_rate(), level), 1e-15);
  }
}

TEST(Integration, NoiseRateOrderingMatchesErrorOrdering) {
  // Property claimed by Fig. 6: larger per-site noise rate => larger
  // level-1 error on the same circuit and noise layout.
  const qc::Circuit circuit = bench::qaoa_grid(2, 3, 1, 30);
  double prev_err = -1.0;
  for (double p : {0.002, 0.01, 0.05}) {
    const ch::NoisyCircuit nc =
        bench::insert_noises(circuit, 5, bench::depolarizing_noise(p), 31);
    const double exact = sim::exact_fidelity_mm(nc, 0, 0);
    core::ApproxOptions opts;
    opts.level = 1;
    const double err = std::abs(core::approximate_fidelity(nc, 0, 0, opts).value - exact);
    EXPECT_GT(err, prev_err);
    prev_err = err;
  }
}

}  // namespace
}  // namespace noisim
