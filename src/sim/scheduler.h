// Discrete-event simulation core.
//
// A single-threaded, deterministic event loop: events fire in (time, insertion
// order) so two events at the same instant execute in the order they were
// scheduled.  Every latency in the system — frame airtime, Ethernet backhaul
// delay, driver processing, protocol timeouts — is an event on this queue.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "obs/context.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/time.h"

namespace wgtt::sim {

/// Handle for cancelling a scheduled event.  Cancellation is lazy: the event
/// stays in the queue but its callback is not invoked.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Scheduler;
  explicit EventId(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` to run `delay` after the current time.
  EventId schedule(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Schedule `cb` at an absolute time (must not be in the past).
  EventId schedule_at(Time when, Callback cb);

  /// Cancel a pending event.  Returns false if it already fired, was
  /// already cancelled, or was never scheduled: cancelling a stale id is a
  /// recognised no-op, not a deferred cancellation.
  bool cancel(EventId id);

  /// Run until the event queue is empty or `until` is reached, whichever
  /// comes first.  The clock is left at the time of the last executed event
  /// (or at `until` if it is reached).
  void run_until(Time until);

  /// Run until the queue drains completely.
  void run();

  /// Stop the run loop after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for micro-benchmarks / diagnostics).
  std::uint64_t events_executed() const { return executed_; }
  /// Events scheduled but not yet fired or cancelled.  Maintained as an
  /// explicit counter: the former `queue_.size() - cancelled_.size()`
  /// expression relied on the invariant that every cancelled seq is still
  /// queued — true today, but one missed guard away from a size_t underflow
  /// that reads as ~18 quintillion pending events on a health gauge.  The
  /// counter is exact and underflow-immune by construction.
  std::size_t events_pending() const { return pending_; }
  /// High-water mark of the raw queue size (health-engine resource gauge:
  /// a runaway event loop shows up here before it exhausts memory).
  std::size_t peak_pending() const { return peak_pending_; }

  /// Causal id (the seq) of the event whose callback is currently being
  /// dispatched, 0 outside dispatch.  Every schedule() performed while an
  /// event runs records this as the new event's parent — the contract the
  /// causal event graph (util/causal.h) is built on.  Maintained
  /// unconditionally (two plain stores per dispatch); the edge emission
  /// itself is one branch, so runs without a CausalTracer are unchanged.
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
  std::vector<std::uint64_t> cancelled_;  // sorted insert-order, searched rarely
  // Popped-seq tracking so cancel() can reject ids that already left the
  // queue.  Events pop in time order, not seq order, so alongside the
  // low-water mark (every seq <= it has popped) we keep the sparse set of
  // popped seqs above it; the set drains back into the mark as it advances,
  // keeping memory proportional to the out-of-order window, not history.
  std::uint64_t popped_low_water_ = 0;
  std::vector<std::uint64_t> popped_ahead_;  // sorted, all > popped_low_water_
  // Observers, cached at construction; null (every site a single branch)
  // when the sink is off.
  obs::Context obs_;
  metrics::Counter* m_dispatched_ = nullptr;
  metrics::Counter* m_cancelled_ = nullptr;
  metrics::Histogram* m_queue_depth_ = nullptr;
  prof::Section* p_dispatch_ = nullptr;
};

}  // namespace wgtt::sim
