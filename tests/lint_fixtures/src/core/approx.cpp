// lint-fixture: expect(worker-pool)
// A second scheduler in src/: the Algorithm-1 sweep launching its own
// workers with std::async instead of running on the one ordered-fold queue
// in sim/parallel.cpp, so it would have to re-earn that queue's cooperative
// drain, fault sites and deterministic fold.
#include <cstddef>
#include <future>
#include <vector>

void fixture_parallel_for(std::size_t threads, void (*body)(std::size_t)) {
  std::vector<std::future<void>> workers;
  for (std::size_t w = 0; w < threads; ++w)
    workers.push_back(std::async(std::launch::async, body, w));
  for (auto& f : workers) f.get();
}
