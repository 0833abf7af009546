// Scoped host-time profiler: where does simulator CPU actually go?
//
// Unlike the metrics registry and tracer (which observe *simulated* events on
// the simulated clock), the profiler measures *host* wall-clock spent inside
// instrumented sections — scheduler dispatch, channel CSI synthesis, MAC
// exchanges, PHY rate selection, controller passes — so bench reports can
// track the simulator's own performance across commits.
//
// Attribution is exclusive (self-time): when sections nest, elapsed time is
// charged to the innermost open section only, so the per-section totals of a
// run always sum to no more than the run's wall time.  A Profiler is owned
// by one Testbed and reached through its obs::Context; components cache
// typed Section pointers at construction — a null pointer (profiling off)
// makes every timed site a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wgtt {
class JsonWriter;
}

namespace wgtt::prof {

class Profiler;

/// One named section's accumulated self-time.  References returned by
/// Profiler::section() stay valid for the profiler's lifetime.
struct Section {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  Profiler* profiler = nullptr;  // the owner that times it
};

/// Registry-independent copy of every section — what lands in RunReport's
/// "profile" block.  Ordered lexicographically by name (deterministic JSON).
struct ProfileSnapshot {
  struct Entry {
    std::string name;
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  std::vector<Entry> sections;

  bool empty() const { return sections.empty(); }
  /// Sum of all sections' self-time; <= the run's host wall time by
  /// construction (exclusive attribution, sections only open inside the run).
  std::int64_t total_ns() const;
  /// {"sections":{name:{"calls":..,"self_ns":..},..},"total_ns":..}
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
};

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Find-or-create by name; the reference is stable (node-based map).
  Section& section(std::string_view name);

  ProfileSnapshot snapshot() const;

  /// Monotonic host clock in nanoseconds.
  static std::int64_t now_ns();

 private:
  friend class ScopedSection;

  // Exclusive attribution: elapsed host time is always charged to the top of
  // the open-section stack; entering or leaving a section settles the time
  // accrued since the last transition.
  void enter(Section& s);
  void leave();

  std::map<std::string, Section, std::less<>> sections_;
  std::vector<Section*> stack_;
  std::int64_t last_mark_ns_ = 0;
};

/// RAII timed scope over a section of some profiler.  A null section
/// (profiling off) makes construction and destruction a single branch each;
/// scopes are strictly LIFO (C++ scoping guarantees it).
class ScopedSection {
 public:
  explicit ScopedSection(Section* section)
      : profiler_(section != nullptr ? section->profiler : nullptr) {
    if (profiler_ != nullptr) profiler_->enter(*section);
  }
  ~ScopedSection() {
    if (profiler_ != nullptr) profiler_->leave();
  }
  ScopedSection(const ScopedSection&) = delete;
  ScopedSection& operator=(const ScopedSection&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace wgtt::prof
