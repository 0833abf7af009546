// Unit tests for the discrete-event scheduler: ordering, cancellation,
// bounded runs, re-entrant scheduling, arena slot reuse.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace wgtt::sim {
namespace {

// A capture that counts the live closures holding it: +1 when made, -1 when
// destroyed, nothing for a moved-from husk.  A double destroy reads below 0.
class LiveCount {
 public:
  explicit LiveCount(int* live) : live_(live) { ++*live_; }
  LiveCount(LiveCount&& o) noexcept : live_(std::exchange(o.live_, nullptr)) {}
  LiveCount& operator=(LiveCount&&) = delete;
  ~LiveCount() {
    if (live_) --*live_;
  }

 private:
  int* live_;
};

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::ms(3), [&]() { order.push_back(3); });
  s.schedule(Time::ms(1), [&]() { order.push_back(1); });
  s.schedule(Time::ms(2), [&]() { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SameTimeFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Time::ms(5), [&order, i]() { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler s;
  Time seen;
  s.schedule(Time::ms(7), [&]() { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(7));
}

TEST(SchedulerTest, RunUntilStopsAtBound) {
  Scheduler s;
  int fired = 0;
  s.schedule(Time::ms(1), [&]() { ++fired; });
  s.schedule(Time::ms(10), [&]() { ++fired; });
  s.run_until(Time::ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::ms(5));
  s.run_until(Time::ms(20));
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule(Time::ms(1), [&]() { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, DoubleCancelReturnsFalse) {
  Scheduler s;
  EventId id = s.schedule(Time::ms(1), []() {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, InvalidEventIdCancelFails) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(EventId{}));
}

TEST(SchedulerTest, ReentrantScheduling) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::ms(1), [&]() {
    order.push_back(1);
    s.schedule(Time::ms(1), [&]() { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), Time::ms(2));
}

TEST(SchedulerTest, StopHaltsLoop) {
  Scheduler s;
  int fired = 0;
  s.schedule(Time::ms(1), [&]() {
    ++fired;
    s.stop();
  });
  s.schedule(Time::ms(2), [&]() { ++fired; });
  s.run_until(Time::ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::ms(1));
}

TEST(SchedulerTest, EventCountTracked) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule(Time::ms(i), []() {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(SchedulerTest, SelfReschedulingChainHonoursBound) {
  Scheduler s;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    s.schedule(Time::ms(10), tick);
  };
  s.schedule(Time::ms(10), tick);
  s.run_until(Time::ms(105));
  EXPECT_EQ(ticks, 10);
}

TEST(SchedulerTest, CancelAfterFireReturnsFalse) {
  Scheduler s;
  int fired = 0;
  EventId id = s.schedule(Time::ms(1), [&]() { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  // The event already fired: cancelling its id is a recognised no-op, not a
  // deferred cancellation of some future event.
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(SchedulerTest, StaleCancelDoesNotUndercountPending) {
  Scheduler s;
  EventId fired_id = s.schedule(Time::ms(1), []() {});
  s.run();
  EXPECT_FALSE(s.cancel(fired_id));  // regression: used to return true...
  int fired = 0;
  s.schedule(Time::ms(2), [&]() { ++fired; });
  // ...and leave a stale entry in the cancelled set, undercounting pending.
  EXPECT_EQ(s.events_pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, CancelAfterCancelledEventPoppedReturnsFalse) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule(Time::ms(1), [&]() { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();  // pops and skips the cancelled event
  EXPECT_FALSE(fired);
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(SchedulerTest, OutOfOrderPopStillRejectsStaleCancel) {
  Scheduler s;
  // Seqs pop in time order, not allocation order: `late` (seq 1) is still
  // queued when `early` (seq 2) has already fired.
  bool late_fired = false;
  EventId late = s.schedule(Time::ms(10), [&]() { late_fired = true; });
  EventId early = s.schedule(Time::ms(1), []() {});
  s.run_until(Time::ms(5));
  EXPECT_FALSE(s.cancel(early));  // already fired
  EXPECT_TRUE(s.cancel(late));    // genuinely pending
  s.run();
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(SchedulerTest, ManyStaleCancelsStayRejected) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule(Time::ms(i), []() {}));
  }
  s.run();
  for (const EventId& id : ids) EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(SchedulerTest, BulkCancellationAcrossMaximalOutOfOrderWindow) {
  // Adversarial schedule for stale-id rejection: event times descend as
  // seqs ascend, so the queue pops in exactly reverse seq order, and a bulk
  // cancellation lands in the middle of the half-run window of fired ids.
  Scheduler s;
  constexpr int kN = 257;
  std::vector<EventId> ids(kN);
  int fired = 0;
  for (int i = 0; i < kN; ++i) {
    ids[static_cast<std::size_t>(i)] =
        s.schedule(Time::ms(kN - i), [&]() { ++fired; });
  }

  // Fire the first half: times 1..128 ms, i.e. seqs kN down to kN-127.
  s.run_until(Time::ms(128));
  EXPECT_EQ(fired, 128);
  for (int i = kN - 128; i < kN; ++i) {
    EXPECT_FALSE(s.cancel(ids[static_cast<std::size_t>(i)])) << i;
  }

  // Bulk-cancel half of the still-pending events, interleaved with the
  // fired window above; each id cancels exactly once.
  int cancelled = 0;
  for (int i = 0; i < kN - 128; i += 2) {
    EXPECT_TRUE(s.cancel(ids[static_cast<std::size_t>(i)])) << i;
    ++cancelled;
  }
  EXPECT_FALSE(s.cancel(ids[0]));
  EXPECT_EQ(s.events_pending(),
            static_cast<std::size_t>(kN - 128 - cancelled));

  // Draining the queue pops every remaining seq (cancelled ones skipped).
  s.run();
  EXPECT_EQ(fired, kN - cancelled);
  EXPECT_EQ(s.events_pending(), 0u);
  for (const EventId& id : ids) EXPECT_FALSE(s.cancel(id));

  // Fresh events after the drain reuse freed slots and still cancel and
  // fire normally.
  bool again = false;
  EventId fresh = s.schedule(Time::ms(1), [&]() { again = true; });
  EXPECT_TRUE(s.cancel(fresh));
  EXPECT_FALSE(s.cancel(fresh));
  s.schedule(Time::ms(2), [&]() { again = true; });
  s.run();
  EXPECT_TRUE(again);
}

TEST(SchedulerTest, PendingCountExactUnderInterleavedCancelPopSchedule) {
  // Regression for the events_pending() bookkeeping audit: the old
  // queue_.size() - cancelled_.size() expression was only correct while
  // every cancelled seq was still *in* the queue.  Interleaving pops of
  // cancelled events with fresh schedules and further cancels exercises
  // every transient the expression depended on; the explicit counter must
  // stay exact (and in particular never wrap a size_t) throughout.
  Scheduler s;
  EXPECT_EQ(s.events_pending(), 0u);

  EventId a = s.schedule(Time::ms(1), []() {});
  EventId b = s.schedule(Time::ms(2), []() {});
  EventId c = s.schedule(Time::ms(3), []() {});
  EXPECT_EQ(s.events_pending(), 3u);

  EXPECT_TRUE(s.cancel(a));
  EXPECT_TRUE(s.cancel(b));
  EXPECT_EQ(s.events_pending(), 1u);

  // Pop the two cancelled events (skipped) and the live one.  With the old
  // expression this transient — cancelled seqs popped but not yet pruned —
  // is exactly where queue_.size() < cancelled_.size() could underflow.
  s.run_until(Time::ms(1));
  EXPECT_EQ(s.events_pending(), 1u);
  s.run_until(Time::ms(10));
  EXPECT_EQ(s.events_pending(), 0u);

  // Mixed wave: schedule, cancel some, fire some, schedule more mid-run.
  // Clock is now 10ms; delays are relative, so wave[i] fires at 30+i ms.
  std::vector<EventId> wave;
  for (int i = 0; i < 8; ++i) {
    wave.push_back(s.schedule(Time::ms(20 + i), []() {}));
  }
  EXPECT_EQ(s.events_pending(), 8u);
  EXPECT_TRUE(s.cancel(wave[1]));  // 31ms
  EXPECT_TRUE(s.cancel(wave[6]));  // 36ms
  EXPECT_EQ(s.events_pending(), 6u);
  s.schedule(Time::ms(21), [&]() {  // 31ms, same instant as cancelled wave[1]
    // Re-entrant: one more event and one more cancel while dispatching.
    s.schedule(Time::ms(40), []() {});  // 71ms
    EXPECT_TRUE(s.cancel(wave[7]));     // 37ms
  });
  EXPECT_EQ(s.events_pending(), 7u);
  // Fires wave[0], the re-entrant lambda (skipping cancelled wave[1] at the
  // same instant), and wave[2..5]; wave[6] and wave[7] pop later as skips.
  s.run_until(Time::ms(35));
  EXPECT_EQ(s.events_pending(), 1u);  // just the 71ms event
  s.run();
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_FALSE(s.cancel(c));  // long-fired id stays a recognised no-op
}

TEST(SchedulerTest, CurrentEventExposesDispatchProvenance) {
  // current_event() is the parent-capture contract the causal tracer builds
  // on: zero outside dispatch, the executing event's seq inside it, and
  // restored to zero afterwards (roots scheduled from the outside world get
  // parent 0).
  Scheduler s;
  EXPECT_EQ(s.current_event(), 0u);
  std::uint64_t inside = 0, inside_child = 0;
  s.schedule(Time::ms(1), [&]() {
    inside = s.current_event();
    s.schedule(Time::ms(1), [&]() { inside_child = s.current_event(); });
  });
  s.run();
  EXPECT_NE(inside, 0u);
  EXPECT_NE(inside_child, 0u);
  EXPECT_NE(inside, inside_child);
  EXPECT_EQ(s.current_event(), 0u);
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  // The guard holds in every build type, not only where assert() survives:
  // a past-time event would pop next and move now() backwards.
  Scheduler s;
  s.run_until(Time::ms(5));
  EXPECT_THROW(s.schedule_at(Time::ms(4), []() {}), std::logic_error);
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_EQ(s.now(), Time::ms(5));
  bool fired = false;
  s.schedule_at(Time::ms(5), [&]() { fired = true; });  // now() is allowed
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), Time::ms(5));
}

TEST(SchedulerTest, FiredIdCannotCancelTheEventReusingItsSlot) {
  Scheduler s;
  EventId old_id = s.schedule(Time::ms(1), []() {});
  s.run();
  // The only free slot is the fired event's, so the next event takes it.
  bool fired = false;
  EventId fresh = s.schedule(Time::ms(1), [&]() { fired = true; });
  EXPECT_FALSE(s.cancel(old_id));
  EXPECT_EQ(s.events_pending(), 1u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(s.cancel(fresh));
}

TEST(SchedulerTest, CallbackCancellingItsOwnEventGetsFalse) {
  Scheduler s;
  EventId self;
  bool own_cancel = true;
  std::size_t pending_inside = 99;
  self = s.schedule(Time::ms(1), [&]() {
    own_cancel = s.cancel(self);
    pending_inside = s.events_pending();
  });
  s.schedule(Time::ms(2), []() {});
  s.run_until(Time::ms(1));
  EXPECT_FALSE(own_cancel);
  EXPECT_EQ(pending_inside, 1u);  // just the 2 ms event
  EXPECT_EQ(s.events_pending(), 1u);
  s.run();
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(SchedulerTest, CallbackGrowingTheArenaKeepsItsOwnState) {
  // The running callback's closure must not live in storage that the
  // schedules it makes can reallocate (ASan reports the dangling read).
  Scheduler s;
  std::vector<int> seen;
  std::vector<int> payload(64);
  std::iota(payload.begin(), payload.end(), 0);
  s.schedule(Time::ms(1), [&s, &seen, payload]() {
    for (int i = 0; i < 5000; ++i) {
      s.schedule(Time::ms(1 + i % 7), [&seen, i]() { seen.push_back(i); });
    }
    seen.push_back(std::accumulate(payload.begin(), payload.end(), 0));
  });
  s.run();
  ASSERT_EQ(seen.size(), 5001u);
  EXPECT_EQ(seen.front(), 63 * 64 / 2);
  EXPECT_EQ(s.events_executed(), 5001u);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(SchedulerTest, ClosureCapturingAUniquePtrSchedulesAndRuns) {
  Scheduler s;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  s.schedule(Time::ms(1),
             [&seen, value = std::move(value)]() { seen = *value; });
  s.run();
  EXPECT_EQ(seen, 7);
}

TEST(SchedulerTest, ClosuresAreDestroyedExactlyOnce) {
  // One closure stored in place and one on the heap, each fired or
  // cancelled: each is alive from schedule until its entry pops, and a
  // cancelled one is released when its entry pops, not by cancel().
  constexpr std::size_t kInline = Scheduler::Callback::kInlineBytes;
  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancelled" : "fired");
    Scheduler s;
    int live = 0;
    int live_in_small = -1, live_in_big = -1;
    auto small = [&live, &live_in_small, probe = LiveCount(&live)]() {
      live_in_small = live;
    };
    auto big = [&live, &live_in_big, probe = LiveCount(&live),
                pad = std::array<char, kInline>{}]() {
      live_in_big = live + pad[0];
    };
    static_assert(sizeof(small) <= kInline);
    static_assert(sizeof(big) > kInline);
    EventId a = s.schedule(Time::ms(1), std::move(small));
    EventId b = s.schedule(Time::ms(2), std::move(big));
    EXPECT_EQ(live, 2);
    if (cancel) {
      EXPECT_TRUE(s.cancel(a));
      EXPECT_TRUE(s.cancel(b));
      EXPECT_EQ(live, 2);
    }
    s.run_until(Time::ms(1));
    EXPECT_EQ(live, 1);
    s.run();
    EXPECT_EQ(live, 0);
    EXPECT_EQ(live_in_small, cancel ? -1 : 2);
    EXPECT_EQ(live_in_big, cancel ? -1 : 1);
  }
}

TEST(SchedulerTest, ScheduleAtAbsoluteTime) {
  Scheduler s;
  Time seen;
  s.schedule_at(Time::ms(42), [&]() { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(42));
}

}  // namespace
}  // namespace wgtt::sim
