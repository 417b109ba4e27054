// lint-fixture: expect(one-deadline)
// An executor with its own wall-clock budget: each call starts a fresh
// clock, so a caller's deadline no longer bounds the whole run.
#include <chrono>
#include <cstddef>
#include <stdexcept>

struct TimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void fixture_replay(std::size_t steps, double budget_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(budget_seconds));
  for (std::size_t s = 0; s < steps; ++s)
    if (std::chrono::steady_clock::now() > deadline)
      throw TimeoutError("replay exceeded its own deadline");
}
