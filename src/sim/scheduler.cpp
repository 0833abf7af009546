#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>

#include "obs/context.h"

namespace wgtt::sim {

Scheduler::Scheduler() : obs_(obs::Context::current()) {
  if (auto* reg = obs_.metrics) {
    m_dispatched_ = &reg->counter("sim.events_dispatched");
    m_cancelled_ = &reg->counter("sim.events_cancelled");
    m_queue_depth_ = &reg->histogram(
        "sim.queue_depth", metrics::exponential_buckets(1.0, 2.0, 14));
  }
  if (auto* p = obs_.profiler) p_dispatch_ = &p->section("sim.dispatch");
  // Annotation sites pull current_event()/now() through the causal tracer,
  // so they need no scheduler reference of their own.
  if (auto* c = obs_.causal) c->bind(this);
}

EventId Scheduler::schedule_at(Time when, Callback cb) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint64_t seq = next_seq_++;
  // Parent capture: an event scheduled while another's callback runs is
  // caused by it; current_event_ is 0 for root (setup-time) schedules.
  if (obs_.causal) obs_.causal->edge(seq, current_event_, when);
  queue_.push(Event{when, seq, std::move(cb)});
  ++pending_;
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return EventId{seq};
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid() || id.seq_ >= next_seq_ || has_popped(id.seq_)) return false;
  // Lazy cancellation: record the sequence number; the event is skipped when
  // it reaches the head of the queue.
  auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id.seq_);
  if (it != cancelled_.end() && *it == id.seq_) return false;
  cancelled_.insert(it, id.seq_);
  // Cancelled now, so no longer pending; the queue entry is skipped (with
  // no further pending_ adjustment) when it reaches the head.
  --pending_;
  if (m_cancelled_) m_cancelled_->add();
  return true;
}

bool Scheduler::is_cancelled(std::uint64_t seq) const {
  return std::binary_search(cancelled_.begin(), cancelled_.end(), seq);
}

bool Scheduler::has_popped(std::uint64_t seq) const {
  return seq <= popped_low_water_ ||
         std::binary_search(popped_ahead_.begin(), popped_ahead_.end(), seq);
}

void Scheduler::record_pop(std::uint64_t seq) {
  if (seq != popped_low_water_ + 1) {
    popped_ahead_.insert(
        std::lower_bound(popped_ahead_.begin(), popped_ahead_.end(), seq),
        seq);
    return;
  }
  popped_low_water_ = seq;
  // Absorb any contiguous run the out-of-order set was holding.
  auto it = popped_ahead_.begin();
  while (it != popped_ahead_.end() && *it == popped_low_water_ + 1) {
    popped_low_water_ = *it;
    ++it;
  }
  popped_ahead_.erase(popped_ahead_.begin(), it);
}

void Scheduler::run_until(Time until) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    const Event& top = queue_.top();
    if (top.when > until) break;
    // Move the callback out before popping so re-entrant schedules are safe.
    Event ev{top.when, top.seq, std::move(const_cast<Event&>(top).cb)};
    queue_.pop();
    record_pop(ev.seq);
    if (is_cancelled(ev.seq)) {
      auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), ev.seq);
      cancelled_.erase(it);
      continue;
    }
    now_ = ev.when;
    ++executed_;
    --pending_;
    if (m_dispatched_) {
      m_dispatched_->add();
      m_queue_depth_->record(static_cast<double>(queue_.size()));
    }
    // "sim.dispatch" covers the whole callback; nested sections (channel,
    // MAC, controller, ...) carve their exclusive self-time out of it.
    prof::ScopedSection timer(p_dispatch_);
    current_event_ = ev.seq;
    ev.cb();
    current_event_ = 0;
  }
  // On a bounded run, advance the clock to the bound so callers can chain
  // run_until() calls; a stop() leaves the clock at the last executed event.
  if (!stopped_ && until < Time::infinity() && now_ < until) now_ = until;
}

void Scheduler::run() { run_until(Time::infinity()); }

}  // namespace wgtt::sim
