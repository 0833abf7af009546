#include "reference_scheduler.h"

#include <algorithm>
#include <cassert>

namespace wgtt::sim {

ReferenceScheduler::EventId ReferenceScheduler::schedule_at(Time when,
                                                            Callback cb) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint64_t seq = next_seq_++;
  queue_.push(Event{when, seq, std::move(cb)});
  ++pending_;
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return EventId{seq};
}

bool ReferenceScheduler::cancel(EventId id) {
  if (!id.valid() || id.seq_ >= next_seq_ || has_popped(id.seq_)) return false;
  auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id.seq_);
  if (it != cancelled_.end() && *it == id.seq_) return false;
  cancelled_.insert(it, id.seq_);
  --pending_;
  return true;
}

bool ReferenceScheduler::is_cancelled(std::uint64_t seq) const {
  return std::binary_search(cancelled_.begin(), cancelled_.end(), seq);
}

bool ReferenceScheduler::has_popped(std::uint64_t seq) const {
  return seq <= popped_low_water_ ||
         std::binary_search(popped_ahead_.begin(), popped_ahead_.end(), seq);
}

void ReferenceScheduler::record_pop(std::uint64_t seq) {
  if (seq != popped_low_water_ + 1) {
    popped_ahead_.insert(
        std::lower_bound(popped_ahead_.begin(), popped_ahead_.end(), seq),
        seq);
    return;
  }
  popped_low_water_ = seq;
  auto it = popped_ahead_.begin();
  while (it != popped_ahead_.end() && *it == popped_low_water_ + 1) {
    popped_low_water_ = *it;
    ++it;
  }
  popped_ahead_.erase(popped_ahead_.begin(), it);
}

void ReferenceScheduler::run_until(Time until) {
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
    current_event_ = ev.seq;
    ev.cb();
    current_event_ = 0;
  }
  if (!stopped_ && until < Time::infinity() && now_ < until) now_ = until;
}

void ReferenceScheduler::run() { run_until(Time::infinity()); }

}  // namespace wgtt::sim
