// lint-fixture: expect(one-memory-guard)
// An engine that swallows MemoryOutError from a wider arena and falls back
// to a narrower path: a second, silent memory guard next to the RunControl
// ceiling, so a caller's budget no longer decides whether the run fails.
#include <cstddef>
#include <memory>
#include <stdexcept>

struct MemoryOutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Schedule {
  std::size_t arena_elems = 0;
};

std::shared_ptr<const Schedule> fixture_schedule_or_null(std::size_t arena_elems,
                                                         std::size_t budget) {
  try {
    if (arena_elems > budget) throw MemoryOutError("schedule arena over budget");
    return std::make_shared<const Schedule>(Schedule{arena_elems});
  } catch (const MemoryOutError&) {
    return nullptr;
  }
}
