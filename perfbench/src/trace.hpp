#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent, call): the benchmark opens one around
// every call it makes into a library layer's public function. Spans stay in
// memory until the run ends, then json() writes them out. Spans of one
// benchmark call share the call index. Self time of a span is its duration
// minus the time its direct children cover; children of one span are
// sequential (the benchmark is a single closed-loop client), so that is the
// duration minus the children's summed durations.
//
// shape() is the span tree with timings dropped, one line per distinct call
// tree: it must not change across seeds or thread counts (the smoke test
// checks it), so per-layer numbers from different runs line up.

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::size_t call = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Seconds since the tracer was created (the trace's time base).
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  /// Start a new benchmark call: later root spans carry this index.
  void begin_call(std::size_t call) { call_ = call; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), call_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// A closed child span under the open span, for a phase the library times
  /// itself (e.g. ApproxResult::plan_seconds): laid out from `start`.
  void derived(const std::string& name, double start, double seconds) {
    if (!enabled_) return;
    spans_.push_back({name, start, start + seconds, stack_.empty() ? -1 : stack_.back(), call_});
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double start() const { return id_ < 0 ? 0.0 : t_.spans_[static_cast<std::size_t>(id_)].start; }

   private:
    Tracer& t_;
    int id_;
  };

  double duration(std::size_t i) const { return spans_[i].end - spans_[i].start; }

  double self_seconds(std::size_t i) const {
    double self = duration(i);
    for (std::size_t j = i + 1; j < spans_.size(); ++j)
      if (spans_[j].parent == static_cast<int>(i)) self -= duration(j);
    return self;
  }

  /// Distinct per-call span trees, names and nesting only.
  std::string shape() const {
    std::map<std::size_t, std::string> per_call;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      int depth = 0;
      for (int p = spans_[i].parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) ++depth;
      per_call[spans_[i].call] += std::to_string(depth) + ":" + spans_[i].name + ";";
    }
    std::set<std::string> distinct;
    for (const auto& [call, tree] : per_call) distinct.insert(tree);
    std::string out;
    for (const std::string& tree : distinct) out += tree + "\n";
    return out;
  }

  /// Per-name self time, summed over the run.
  std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self_seconds(i);
    return out;
  }

  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += (i ? ",\n " : "\n ");
      out += "{\"id\": " + std::to_string(i) + ", \"name\": \"" + s.name +
             "\", \"parent\": " + std::to_string(s.parent) +
             ", \"call\": " + std::to_string(s.call) + ", \"start\": " + num(s.start) +
             ", \"end\": " + num(s.end) + ", \"self\": " + num(self_seconds(i)) + "}";
    }
    return out + "\n]";
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::size_t call_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
