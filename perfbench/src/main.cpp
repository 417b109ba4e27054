// Whole-stack benchmark of the noisim library: one closed-loop client drives
// one workload through the library's public calls for a fixed time, checks
// the outputs against independent oracles, and prints its metrics.
//
//   perfbench --workload <fig4_cold|xeb_warm|fig5_traj> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <n>]
//   perfbench --digest --workload <name> --seed <n>   # hash of the inputs
//   perfbench --self-test                            # the checks have teeth
//
// The last line of a run is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics of a traced run (spans written to .bench_out/). The
// line before it is the host and input record. perfbench/README.md lists
// every metric and the layer it belongs to.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--threads <n>]\n"
               "       perfbench --digest --workload <name> --seed <n>\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool digest = false, self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        opts.trace = t == "1";
      } else if (arg == "--threads") {
        opts.threads = std::stoull(value());
      } else if (arg == "--digest") {
        digest = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return usage();
  }

  try {
    if (self_test) {
      const int misjudged = perfbench::self_test();
      std::cout << (misjudged == 0 ? "self-test passed" : "self-test FAILED") << "\n";
      return misjudged == 0 ? 0 : 1;
    }
    if (opts.workload.empty()) return usage();
    if (digest) {
      std::cout << perfbench::input_digest(opts.workload, opts.seed) << "\n";
      return 0;
    }
    if (!(opts.seconds > 0.0)) return usage();

    const perfbench::Report rep = perfbench::run_workload(opts);
    for (const perfbench::Metric& m : rep.metrics)
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
    if (!rep.trace_shape.empty()) std::cout << "span tree:\n" << rep.trace_shape;
    std::cout << "record: " << rep.record << "\n";
    std::string metrics;
    for (const perfbench::Metric& m : rep.metrics) {
      metrics += metrics.empty() ? "" : ", ";
      metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
              << ", \"metrics\": {" << metrics << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
