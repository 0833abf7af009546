#include "sim/scheduler.h"

#include <stdexcept>

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

EventId Scheduler::push(Time when, Callback& cb) {
  if (when < now_) {
    throw std::logic_error("sim::Scheduler: cannot schedule in the past");
  }
  const std::uint64_t seq = next_seq_++;
  // Parent capture: an event scheduled while another's callback runs is
  // caused by it; current_event_ is 0 for root (setup-time) schedules.
  if (obs_.causal) obs_.causal->edge(seq, current_event_, when);
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot].seq = seq;
  slots_[slot].cb = std::move(cb);
  queue_.push(Entry{when, seq, slot});
  ++pending_;
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return EventId{seq, slot};
}

bool Scheduler::cancel(EventId id) {
  // A fired, cancelled or never-issued id no longer matches its slot's seq,
  // even when a newer event holds that slot now.
  if (id.slot_ >= slots_.size() || slots_[id.slot_].seq != id.seq_) {
    return false;
  }
  // Lazy cancellation: the entry stays queued until its time, counted in
  // queue_.size() and peak_pending(), and is skipped when it pops.
  slots_[id.slot_].seq = 0;
  --pending_;
  if (m_cancelled_) m_cancelled_->add();
  return true;
}

void Scheduler::run_until(Time until) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    const Entry top = queue_.top();
    if (top.when > until) break;
    queue_.pop();
    // Release the slot before the callback runs: its own id is then stale,
    // and re-entrant schedules may reuse the slot or grow the arena.
    Slot& slot = slots_[top.slot];
    const bool live = slot.seq == top.seq;
    slot.seq = 0;
    Callback cb = std::move(slot.cb);
    free_slots_.push_back(top.slot);
    if (!live) continue;  // cancelled; its callback is destroyed here
    now_ = top.when;
    ++executed_;
    --pending_;
    if (m_dispatched_) {
      m_dispatched_->add();
      m_queue_depth_->record(static_cast<double>(queue_.size()));
    }
    // "sim.dispatch" covers the whole callback; nested sections (channel,
    // MAC, controller, ...) carve their exclusive self-time out of it.
    prof::ScopedSection timer(p_dispatch_);
    current_event_ = top.seq;
    cb();
    current_event_ = 0;
  }
  // On a bounded run, advance the clock to the bound so callers can chain
  // run_until() calls; a stop() leaves the clock at the last executed event.
  if (!stopped_ && until < Time::infinity() && now_ < until) now_ = until;
}

void Scheduler::run() { run_until(Time::infinity()); }

}  // namespace wgtt::sim
