#include "util/profiler.h"

#include <chrono>

#include "util/json.h"

namespace wgtt::prof {

std::int64_t ProfileSnapshot::total_ns() const {
  std::int64_t total = 0;
  for (const Entry& e : sections) total += e.self_ns;
  return total;
}

void ProfileSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("sections");
  w.begin_object();
  for (const Entry& e : sections) {
    w.key(e.name);
    w.begin_object();
    w.field("calls", e.calls);
    w.field("self_ns", e.self_ns);
    w.end_object();
  }
  w.end_object();
  w.field("total_ns", total_ns());
  w.end_object();
}

std::string ProfileSnapshot::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

Section& Profiler::section(std::string_view name) {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    it = sections_.emplace(std::string(name), Section{0, 0, this}).first;
  }
  return it->second;
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  snap.sections.reserve(sections_.size());
  for (const auto& [name, s] : sections_) {
    // Components cache sections at construction; ones they never entered
    // carry no information and would only pad the reports.
    if (s.calls == 0) continue;
    snap.sections.push_back({name, s.calls, s.self_ns});
  }
  return snap;
}

std::int64_t Profiler::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::enter(Section& s) {
  const std::int64_t now = now_ns();
  if (!stack_.empty()) stack_.back()->self_ns += now - last_mark_ns_;
  s.calls += 1;
  stack_.push_back(&s);
  last_mark_ns_ = now;
}

void Profiler::leave() {
  const std::int64_t now = now_ns();
  if (!stack_.empty()) {
    stack_.back()->self_ns += now - last_mark_ns_;
    stack_.pop_back();
  }
  last_mark_ns_ = now;
}

}  // namespace wgtt::prof
