// Tests for the tensor network graph and contraction strategies.
#include <gtest/gtest.h>

#include <random>

#include "linalg/qr.hpp"
#include "tn/contractor.hpp"
#include "tn/network.hpp"

namespace noisim::tn {
namespace {

using tsr::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<double> gauss;
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
  return t;
}

TEST(Network, TracksOpenEdges) {
  Network net;
  const EdgeId a = net.new_edge(), b = net.new_edge(), c = net.new_edge();
  net.add_node(Tensor({2, 3}), {a, b});
  net.add_node(Tensor({3, 4}), {b, c});
  EXPECT_EQ(net.open_edges(), (std::vector<EdgeId>{a, c}));
}

TEST(Network, RejectsSelfLoop) {
  Network net;
  const EdgeId a = net.new_edge();
  EXPECT_THROW(net.add_node(Tensor({2, 2}), {a, a}), LinalgError);
}

TEST(Network, RejectsThirdEndpoint) {
  Network net;
  const EdgeId a = net.new_edge();
  net.add_node(Tensor({2}), {a});
  net.add_node(Tensor({2}), {a});
  EXPECT_THROW(net.add_node(Tensor({2}), {a}), LinalgError);
}

TEST(Network, RejectsDimensionMismatch) {
  Network net;
  const EdgeId a = net.new_edge();
  net.add_node(Tensor({2}), {a});
  EXPECT_THROW(net.add_node(Tensor({3}), {a}), LinalgError);
}

TEST(Network, RejectsUnknownEdge) {
  Network net;
  EXPECT_THROW(net.add_node(Tensor({2}), {99}), LinalgError);
}

TEST(Contractor, MatrixChainEqualsProduct) {
  std::mt19937_64 rng(1);
  const la::Matrix a = la::random_ginibre(2, 3, rng);
  const la::Matrix b = la::random_ginibre(3, 4, rng);
  const la::Matrix c = la::random_ginibre(4, 2, rng);

  for (OrderStrategy strat : {OrderStrategy::Greedy, OrderStrategy::Sequential}) {
    Network net;
    const EdgeId e0 = net.new_edge(), e1 = net.new_edge(), e2 = net.new_edge(),
                 e3 = net.new_edge();
    net.add_node(Tensor::from_matrix(a), {e0, e1});
    net.add_node(Tensor::from_matrix(b), {e1, e2});
    net.add_node(Tensor::from_matrix(c), {e2, e3});
    ContractOptions opts;
    opts.strategy = strat;
    const Tensor result = contract_network(net, opts);
    EXPECT_TRUE(result.to_matrix().approx_equal(a * b * c, 1e-9));
  }
}

TEST(Contractor, ClosedLoopEqualsTraceOfProduct) {
  std::mt19937_64 rng(2);
  const la::Matrix a = la::random_ginibre(3, 3, rng);
  const la::Matrix b = la::random_ginibre(3, 3, rng);
  Network net;
  const EdgeId e0 = net.new_edge(), e1 = net.new_edge();
  net.add_node(Tensor::from_matrix(a), {e0, e1});
  net.add_node(Tensor::from_matrix(b), {e1, e0});
  EXPECT_TRUE(approx_equal(contract_to_scalar(net), (a * b).trace(), 1e-9));
}

TEST(Contractor, SingleNodePassesThrough) {
  std::mt19937_64 rng(3);
  Network net;
  const EdgeId a = net.new_edge(), b = net.new_edge();
  const Tensor t = random_tensor({2, 3}, rng);
  net.add_node(t, {a, b});
  EXPECT_TRUE(contract_network(net).approx_equal(t));
}

TEST(Contractor, EmptyNetworkIsScalarOne) {
  Network net;
  EXPECT_TRUE(approx_equal(contract_to_scalar(net), cplx{1.0, 0.0}));
}

TEST(Contractor, DisconnectedComponentsMultiply) {
  Network net;
  const EdgeId a = net.new_edge(), b = net.new_edge();
  Tensor u({2}), v({2}), w({2}), x({2});
  u[0] = cplx{2, 0};
  v[0] = cplx{3, 0};
  w[1] = cplx{5, 0};
  x[1] = cplx{7, 0};
  net.add_node(u, {a});
  net.add_node(v, {a});
  net.add_node(w, {b});
  net.add_node(x, {b});
  EXPECT_TRUE(approx_equal(contract_to_scalar(net), cplx{6.0 * 35.0, 0.0}, 1e-9));
}

TEST(Contractor, OpenEdgesOrderedByEdgeId) {
  std::mt19937_64 rng(4);
  // Two tensors sharing one edge, open edges created out of order.
  Network net;
  const EdgeId open_hi = net.new_edge();   // id 0
  const EdgeId shared = net.new_edge();    // id 1
  const EdgeId open_lo = net.new_edge();   // id 2
  const Tensor a = random_tensor({3, 4}, rng);  // axes: open_hi, shared
  const Tensor b = random_tensor({4, 5}, rng);  // axes: shared, open_lo
  net.add_node(a, {open_hi, shared});
  net.add_node(b, {shared, open_lo});
  const Tensor r = contract_network(net);
  // Result axes must be [open_hi(id 0), open_lo(id 2)] = [3, 5].
  EXPECT_EQ(r.shape(), (std::vector<std::size_t>{3, 5}));
  EXPECT_TRUE(r.to_matrix().approx_equal(a.to_matrix() * b.to_matrix(), 1e-9));
}

TEST(Contractor, StrategiesAgreeOnRandomNetworks) {
  for (int seed = 0; seed < 6; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    // A ladder network: two rails of length 4 with rungs.
    Network net;
    std::vector<EdgeId> rail_a, rail_b, rungs;
    for (int i = 0; i < 5; ++i) {
      rail_a.push_back(net.new_edge());
      rail_b.push_back(net.new_edge());
    }
    for (int i = 0; i < 5; ++i) rungs.push_back(net.new_edge());
    // End caps close the rails so only rung ends stay open... close those too.
    net.add_node(random_tensor({2, 2}, rng), {rail_a[0], rail_b[0]});
    for (int i = 0; i < 4; ++i) {
      net.add_node(random_tensor({2, 2, 2}, rng), {rail_a[i], rail_a[i + 1], rungs[i]});
      net.add_node(random_tensor({2, 2, 2}, rng), {rail_b[i], rail_b[i + 1], rungs[i]});
    }
    net.add_node(random_tensor({2, 2, 2}, rng), {rail_a[4], rail_b[4], rungs[4]});
    net.add_node(random_tensor({2}, rng), {rungs[4]});

    ContractOptions greedy, seq;
    greedy.strategy = OrderStrategy::Greedy;
    seq.strategy = OrderStrategy::Sequential;
    const cplx x = contract_to_scalar(net, greedy);
    const cplx y = contract_to_scalar(net, seq);
    EXPECT_TRUE(approx_equal(x, y, 1e-8 * (1.0 + std::abs(x))));
  }
}

TEST(Contractor, MemoryBudgetThrowsMemoryOut) {
  std::mt19937_64 rng(5);
  // Outer-product-style growth: contracting these creates a 2^20 tensor.
  Network net;
  std::vector<EdgeId> open_edges;
  EdgeId spine_prev = net.new_edge();
  net.add_node(random_tensor({2}, rng), {spine_prev});
  for (int i = 0; i < 20; ++i) {
    const EdgeId spine_next = net.new_edge();
    const EdgeId leaf = net.new_edge();
    net.add_node(random_tensor({2, 2, 2}, rng), {spine_prev, spine_next, leaf});
    open_edges.push_back(leaf);
    spine_prev = spine_next;
  }
  net.add_node(random_tensor({2}, rng), {spine_prev});
  ContractOptions opts;
  opts.max_tensor_elems = 1 << 10;
  EXPECT_THROW(contract_network(net, opts), MemoryOutError);
}

TEST(Contractor, DeadlineThrowsTimeout) {
  std::mt19937_64 rng(6);
  Network net;
  // Big enough that contraction cannot finish in ~0 time.
  std::vector<EdgeId> wires;
  for (int i = 0; i < 14; ++i) wires.push_back(net.new_edge());
  for (int i = 0; i < 14; ++i) net.add_node(random_tensor({2}, rng), {wires[i]});
  // A chain of large tensors.
  EdgeId prev = wires[0];
  for (int i = 1; i < 14; ++i) {
    // connect sequentially through fresh edges
    const EdgeId mid = net.new_edge();
    net.add_node(random_tensor({2, 2, 2}, rng), {prev, wires[i], mid});
    prev = mid;
  }
  net.add_node(random_tensor({2}, rng), {prev});
  core::RunControl expired;
  expired.set_deadline_after(1e-9);
  ContractOptions opts;
  opts.control = &expired;
  EXPECT_THROW(contract_network(net, opts), TimeoutError);
}

TEST(Contractor, StatsArePopulated) {
  std::mt19937_64 rng(7);
  Network net;
  const EdgeId e0 = net.new_edge(), e1 = net.new_edge();
  net.add_node(random_tensor({2, 2}, rng), {e0, e1});
  net.add_node(random_tensor({2, 2}, rng), {e1, e0});
  ContractStats stats;
  contract_to_scalar(net, {}, &stats);
  EXPECT_EQ(stats.num_pairwise, 1u);
  EXPECT_GE(stats.peak_elems, 1u);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace noisim::tn
