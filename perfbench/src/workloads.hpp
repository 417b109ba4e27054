#pragma once
// The benchmark's three workloads and the pieces main.cpp prints.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of the threaded workloads; 0 = all hardware threads.
  std::size_t threads = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Host and input record (JSON object).
  std::string record;
  /// Span-tree shape of the traced run (empty when untraced).
  std::string trace_shape;
};

/// Run one workload for opts.seconds and report its metrics. Throws on
/// an unknown workload name or when set-up itself fails.
Report run_workload(const Options& opts);

/// Hash of the inputs `workload` generates from `seed` (circuits, noise
/// placements, bitstrings, sampler seeds): equal seeds give equal digests.
std::string input_digest(const std::string& workload, std::uint64_t seed);

/// Feed every correctness check a genuine answer, a zero answer and a
/// constant answer; returns the number of checks that misjudged one.
int self_test();

}  // namespace perfbench
