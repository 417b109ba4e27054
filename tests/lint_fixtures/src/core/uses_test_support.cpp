// lint-fixture: expect(lib-no-test-support)
// A library engine that builds its circuits from the benchmark generators:
// the library would then depend on code that only benches, examples and
// tests need.
#include "bench_support/generators.hpp"

int fixture_qubits() { return noisim::bench::qaoa(4, 1, 5).num_qubits(); }
