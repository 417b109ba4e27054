#include "bench_support/harness.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "linalg/complex.hpp"
#include "tensor/kernels.hpp"

namespace noisim::bench {

RunOutcome run_guarded_stats(const std::function<double(tn::ContractStats&)>& fn) {
  using Clock = std::chrono::steady_clock;
  RunOutcome out;
  const auto start = Clock::now();
  try {
    out.value = fn(out.contract_stats);
    out.status = RunOutcome::Status::Ok;
  } catch (const MemoryOutError& e) {
    out.status = RunOutcome::Status::MemoryOut;
    out.note = e.what();
  } catch (const TimeoutError& e) {
    out.status = RunOutcome::Status::Timeout;
    out.note = e.what();
  } catch (const CancelledError& e) {
    out.status = RunOutcome::Status::Cancelled;
    out.note = e.what();
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

RunOutcome run_guarded(const std::function<double()>& fn) {
  return run_guarded_stats([&](tn::ContractStats&) { return fn(); });
}

std::string stats_json(const tn::ContractStats& stats) {
  std::string out = "{";
  out += "\"num_pairwise\": " + std::to_string(stats.num_pairwise);
  out += ", \"peak_elems\": " + std::to_string(stats.peak_elems);
  out += ", \"plans_compiled\": " + std::to_string(stats.plans_compiled);
  out += ", \"plan_executions\": " + std::to_string(stats.plan_executions);
  out += ", \"plan_reuse_hits\": " + std::to_string(stats.plan_reuse_hits);
  out += ", \"flops\": " + std::to_string(stats.flops);
  out += ", \"bytes_moved\": " + std::to_string(stats.bytes_moved);
  out += ", \"plan_cache_hits\": " + std::to_string(stats.plan_cache_hits);
  out += ", \"plan_cache_misses\": " + std::to_string(stats.plan_cache_misses);
  out += ", \"kernels_scalar\": " + std::to_string(stats.kernels_scalar);
  out += ", \"kernels_avx2\": " + std::to_string(stats.kernels_avx2);
  out += ", \"kernels_avx512\": " + std::to_string(stats.kernels_avx512);
  // 8 real flops per complex multiply-add (4 mul + 4 add/sub).
  const double gflops = stats.elapsed_seconds > 0.0
                            ? 8.0 * static_cast<double>(stats.flops) /
                                  stats.elapsed_seconds / 1e9
                            : 0.0;
  out += ", \"effective_gflops\": " + sci(gflops);
  // Order-search accounting: per-strategy win counts and summed best-candidate
  // flop estimates, keyed by strategy name (zero-only strategies omitted).
  out += ", \"strategy_chosen\": {";
  bool first = true;
  for (std::size_t s = 0; s < tn::kNumOrderStrategies; ++s) {
    if (stats.strategy_chosen[s] == 0) continue;
    out += std::string(first ? "" : ", ") + "\"" +
           tn::order_strategy_name(static_cast<tn::OrderStrategy>(s)) +
           "\": " + std::to_string(stats.strategy_chosen[s]);
    first = false;
  }
  out += "}, \"strategy_flops\": {";
  first = true;
  for (std::size_t s = 0; s < tn::kNumOrderStrategies; ++s) {
    if (stats.strategy_flops[s] == 0) continue;
    out += std::string(first ? "" : ", ") + "\"" +
           tn::order_strategy_name(static_cast<tn::OrderStrategy>(s)) +
           "\": " + std::to_string(stats.strategy_flops[s]);
    first = false;
  }
  out += "}";
  out += "}";
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || line.compare(0, 10, "model name") != 0) continue;
    std::string model = line.substr(colon + 1);
    // Trim and drop characters that would break the JSON string.
    std::string clean;
    for (char c : model)
      if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) clean += c;
    const std::size_t first = clean.find_first_not_of(' ');
    if (first == std::string::npos) break;
    return clean.substr(first, clean.find_last_not_of(' ') - first + 1);
  }
  return "unknown";
}

std::string machine_json() {
  return "{\"cpu_model\": \"" + cpu_model() +
         "\", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": \"" + tsr::kernel_tier_name(tsr::detected_kernel_tier()) +
         "\", \"kernel_tier\": \"" + tsr::kernel_tier_name(tsr::active_kernel_tier()) + "\"}";
}

namespace {
std::string status_label(const RunOutcome& r) {
  switch (r.status) {
    case RunOutcome::Status::MemoryOut: return "MO";
    case RunOutcome::Status::Timeout: return "TO";
    case RunOutcome::Status::Cancelled: return "CX";
    case RunOutcome::Status::Skipped: return "-";
    case RunOutcome::Status::Ok: return "";
  }
  return "?";
}
}  // namespace

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

std::string fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_time(const RunOutcome& r) { return r.ok() ? fixed(r.seconds) : status_label(r); }

std::string format_value(const RunOutcome& r) { return r.ok() ? sci(r.value) : status_label(r); }

Table::Table(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

void Table::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width;
  for (const auto& row : rows_) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) width[i] = std::max(width[i], row[i].size());
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      std::string cell = rows_[r][i];
      cell.resize(width[i], ' ');
      os << cell << (i + 1 < rows_[r].size() ? "  " : "");
    }
    os << "\n";
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t w : width) total += w + 2;
      os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    }
  }
}

void write_csv(std::ostream& os, const std::vector<std::vector<std::string>>& rows) {
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) os << row[i] << (i + 1 < row.size() ? "," : "");
    os << "\n";
  }
}

}  // namespace noisim::bench
