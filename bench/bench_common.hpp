#pragma once
// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every binary prints the corresponding paper table/figure at a laptop
// scale by default and upgrades to paper-scale rows when the environment
// variable NOISIM_BENCH_LARGE=1 is set. Timeout/memory guards mirror the
// paper's TO/MO table entries (scaled down with the workload).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "core/run_control.hpp"
#include "support/env.hpp"

namespace noisim::bench {

inline bool large_mode() {
  const char* v = support::env_get("NOISIM_BENCH_LARGE");
  return v != nullptr && std::string(v) == "1";
}

/// Timeout for one guarded run, seconds (scaled from the paper's 3600 s).
inline double timeout_small() { return large_mode() ? 600.0 : 15.0; }
/// Timeout for the heavier #Noise = 20 runs (paper: 36000 s).
inline double timeout_large() { return large_mode() ? 3600.0 : 60.0; }

/// One wall-clock budget per guarded run, the paper's "TO": a run control
/// whose deadline expires `seconds` after construction. Build it inside the
/// run it guards, so every compile and replay of that run shares the clock.
struct Deadline : core::RunControl {
  explicit Deadline(double seconds) { set_deadline_after(seconds); }
};

/// Memory budget for a single tensor intermediate (elements).
inline std::size_t memory_budget() {
  return large_mode() ? (std::size_t{1} << 28) : (std::size_t{1} << 24);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "=== " << title << " ===\n"
            << "(reproduces " << paper_ref << "; mode: "
            << (large_mode() ? "LARGE (paper-scale)" : "default (laptop-scale)")
            << ", set NOISIM_BENCH_LARGE=1 for paper-scale rows)\n\n";
}

/// `v` printed with %.17g: every double round-trips exactly through JSON.
inline std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The whole file at `path`; empty when it cannot be read.
inline std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The number following the first `"<key>": ` at or after `from` in `text`
/// (false when absent). The baseline gates read committed JSON with it.
inline bool scan_field(const std::string& text, const std::string& key, double* out,
                       std::size_t from = 0) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag, from);
  if (at == std::string::npos) return false;
  *out = std::strtod(text.c_str() + at + tag.size(), nullptr);
  return true;
}

}  // namespace noisim::bench
