// lint-fixture: expect(cache-key-covers-options)
// ContractOptions grows a planner field (search_depth) that
// PlanCache::template_key never serializes, so two option sets differing
// only in it would share a cache entry. `control` is exempt by design.
#include <cstddef>
#include <string>
#include <vector>

struct ContractOptions {
  int strategy = 0;
  std::vector<double> greedy_cost_weights{1.0, 4.0};
  std::size_t search_depth = 2;
  const void* control = nullptr;
};

struct PlanCache {
  static std::string template_key(const ContractOptions& copts);
};

std::string PlanCache::template_key(const ContractOptions& copts) {
  std::string key;
  key += std::to_string(copts.strategy);
  for (const double w : copts.greedy_cost_weights) key += std::to_string(w);
  return key;
}
