// lint-fixture: expect(worker-pool)
// A third scheduler in src/: launches its own workers with std::async
// instead of going through the sweep engine or the trajectory runner, so it
// has neither the cooperative drain nor the fault sites those two carry.
#include <cstddef>
#include <future>
#include <vector>

void fixture_parallel_for(std::size_t threads, void (*body)(std::size_t)) {
  std::vector<std::future<void>> workers;
  for (std::size_t w = 0; w < threads; ++w)
    workers.push_back(std::async(std::launch::async, body, w));
  for (auto& f : workers) f.get();
}
