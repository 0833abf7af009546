// Reference (unoptimized) event scheduler — the correctness seam for the
// slot-arena `sim::Scheduler`.
//
// `ReferenceScheduler` retains the original scheduler line for line: a heap
// of {when, seq, std::function} events, lazy cancellation through a sorted
// cancelled-seq vector, and popped-seq tracking (a low-water mark plus the
// sparse set of popped seqs above it) so `cancel` rejects ids that already
// left the queue.  Only the observer wiring (metrics, profiler section,
// causal edges) is left out: it observes the schedule, it does not shape it.
//
// This class is deliberately NOT used by the simulation.
// tests/scheduler_diff_test.cpp (ctest label `diff`) runs random operation
// scripts on both schedulers and requires the same fired seq order, cancel
// results, clock and counters.  It is built only into that suite's binary
// (wgtt_diff_tests), not into the simulator library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.h"

namespace wgtt::sim {

class ReferenceScheduler {
 public:
  using Callback = std::function<void()>;

  /// Handle for cancelling a scheduled event: its seq.
  class EventId {
   public:
    EventId() = default;
    bool valid() const { return seq_ != 0; }

   private:
    friend class ReferenceScheduler;
    explicit EventId(std::uint64_t seq) : seq_(seq) {}
    std::uint64_t seq_ = 0;
  };

  ReferenceScheduler() = default;
  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  Time now() const { return now_; }
  EventId schedule(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }
  EventId schedule_at(Time when, Callback cb);
  bool cancel(EventId id);
  void run_until(Time until);
  void run();
  void stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return pending_; }
  std::size_t peak_pending() const { return peak_pending_; }
  std::uint64_t current_event() const { return current_event_; }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool is_cancelled(std::uint64_t seq) const;
  bool has_popped(std::uint64_t seq) const;
  void record_pop(std::uint64_t seq);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t current_event_ = 0;
  bool stopped_ = false;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;  // sorted insert-order
  // Events pop in time order, not seq order, so alongside the low-water mark
  // (every seq <= it has popped) keep the sparse set of popped seqs above
  // it; the set drains back into the mark as it advances.
  std::uint64_t popped_low_water_ = 0;
  std::vector<std::uint64_t> popped_ahead_;  // sorted, all > popped_low_water_
};

}  // namespace wgtt::sim
