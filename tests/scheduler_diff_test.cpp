// Differential test of the slot-arena scheduler (ctest label `diff`).
//
// `sim::Scheduler` keeps each callback in a reused arena slot and names an
// event by (seq, slot); `sim::ReferenceScheduler` (reference_scheduler.h) is
// the implementation it replaced, with its sorted cancelled-seq vector and
// popped-seq tracking.  Both must be indistinguishable to a caller: the same
// random operation script, run on each, must fire the same seqs in the same
// order, return the same result from every cancel, and show the same clock
// and counters inside every callback and after every bounded run.
//
// The arena's speed comes from allocating nothing per event once it has
// grown; SchedulerAlloc defends that with a count rather than a timing,
// through a counting replacement of the global operator new.
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.h"
#include "reference_scheduler.h"
#include "sim/scheduler.h"
#include "util/rng.h"

// Counting replacement of the global allocation functions for this test
// binary: every allocation still goes to malloc, and those a thread makes
// while its t_counting flag is set are tallied in t_allocations.
namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wgtt::sim {
namespace {

/// How often a script hit each case, so a test can show it is not vacuous.
struct Tally {
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;  // cancel() returned true
  std::uint64_t rejected = 0;   // cancel() returned false
  std::uint64_t own_cancels = 0;
  std::uint64_t stops = 0;
};

/// One random operation script, replayed on scheduler type `Sched`.  Every
/// draw comes from one seeded Rng, so two schedulers that agree see the same
/// script; the first disagreement changes the log from there on.
template <class Sched>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  /// Runs `ops` top-level operations and a final drain; returns the log.
  std::vector<std::uint64_t> run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::int64_t op = rng_.uniform_int(0, 19);
      if (op < 8) {
        schedule_one();
      } else if (op < 12) {
        cancel_one();
      } else if (op < 13) {
        note_cancel(kDefaultCancel, Id{});
      } else if (op < 19) {
        s_.run_until(s_.now() + Time::ns(rng_.uniform_int(0, 20'000)));
        note_state(kRunUntil);
      } else if (rng_.bernoulli(0.2)) {
        s_.run();
        note_state(kRun);
      } else {
        schedule_one();
      }
    }
    s_.run();
    note_state(kRun);
    return log_;
  }

  const Tally& tally() const { return tally_; }

 private:
  using Id = decltype(std::declval<Sched&>().schedule(Time::zero(), [] {}));
  enum Tag : std::uint64_t {
    kFire = 1, kCancel, kOwnCancel, kDefaultCancel, kRunUntil, kRun,
  };

  void note(Tag tag, std::uint64_t v) {
    log_.push_back(tag);
    log_.push_back(v);
  }
  void note_cancel(Tag tag, Id id) {
    const bool ok = s_.cancel(id);
    ++(ok ? tally_.cancelled : tally_.rejected);
    note(tag, ok);
  }
  void note_state(Tag tag) {
    log_.push_back(tag);
    log_.push_back(static_cast<std::uint64_t>(s_.now().to_ns()));
    log_.push_back(s_.events_executed());
    log_.push_back(s_.events_pending());
    log_.push_back(s_.peak_pending());
    log_.push_back(s_.current_event());
  }

  // Delays repeat, so many events share an instant; a quarter are zero.
  Time pick_delay() {
    static constexpr std::int64_t kDelaysNs[] = {0,     0,     1'000, 1'000,
                                                 2'000, 5'000, 5'000, 30'000};
    return Time::ns(kDelaysNs[rng_.uniform_int(0, 7)]);
  }

  void schedule_one() {
    const std::size_t label = ids_.size();
    ids_.emplace_back();
    const Time delay = pick_delay();
    auto fire = [this, label] { on_fire(label); };
    ids_[label] = rng_.bernoulli(0.5) ? s_.schedule(delay, fire)
                                      : s_.schedule_at(s_.now() + delay, fire);
  }

  // A random id ever issued: live, fired, cancelled or popped as cancelled.
  void cancel_one() {
    if (ids_.empty()) return;
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
    note_cancel(kCancel, ids_[pick]);
  }

  void on_fire(std::size_t label) {
    ++tally_.fired;
    note(kFire, label);
    note_state(kFire);
    // Bounded fan-out: each callback schedules 0-2 children while the
    // script has issued fewer than kMaxIds ids.
    const std::int64_t children = rng_.uniform_int(0, 2);
    for (std::int64_t c = 0; c < children && ids_.size() < kMaxIds; ++c) {
      schedule_one();
    }
    if (rng_.bernoulli(0.3)) cancel_one();
    if (rng_.bernoulli(0.1)) {
      ++tally_.own_cancels;
      note_cancel(kOwnCancel, ids_[label]);
    }
    if (rng_.bernoulli(0.02)) {
      ++tally_.stops;
      s_.stop();
    }
  }

  static constexpr std::size_t kMaxIds = 20'000;
  Sched s_;
  Rng rng_;
  std::vector<Id> ids_;
  std::vector<std::uint64_t> log_;
  Tally tally_;
};

TEST(SchedulerDiff, RandomOpsMatchTheReference) {
  Tally total;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Script<ReferenceScheduler> reference(seed);
    Script<Scheduler> arena(seed);
    const auto want = reference.run(3000);
    const auto got = arena.run(3000);
    std::size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
    ASSERT_TRUE(i == want.size() && i == got.size())
        << "seed " << seed << ": logs differ at word " << i << " of "
        << want.size() << " (reference) / " << got.size() << " (arena)";
    const Tally& t = arena.tally();
    total.fired += t.fired;
    total.cancelled += t.cancelled;
    total.rejected += t.rejected;
    total.own_cancels += t.own_cancels;
    total.stops += t.stops;
  }
  // Every case the script mixes in actually occurs, in volume.
  EXPECT_GT(total.fired, 32u * 1000u);
  EXPECT_GT(total.cancelled, 1000u);
  EXPECT_GT(total.rejected, 1000u);
  EXPECT_GT(total.own_cancels, 100u);
  EXPECT_GT(total.stops, 10u);
}

/// Heap allocations `body` makes on this thread.
template <class Body>
std::size_t allocations_in(Body&& body) {
  t_allocations = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocations;
}

TEST(SchedulerAlloc, InlineClosuresAllocateNothingOnceTheArenaHasGrown) {
  constexpr std::size_t kInline = Scheduler::Callback::kInlineBytes;
  constexpr int kEvents = 4096;
  Scheduler s;
  std::uint64_t sum = 0;
  // Backhaul::send's shape: two pointers and the tunnelled frame by value.
  net::TunneledPacket frame;
  frame.inner = std::make_shared<const net::Packet>();
  frame.wire_bytes = 1500;
  auto* backhaul = &s;
  std::function<void()> refill = [&sum] { sum += 1; };
  auto schedule_all = [&] {
    for (int i = 0; i < kEvents; ++i) {
      const Time at = s.now() + Time::us(i % 97);
      auto tiny = [&sum] { sum += 1; };
      auto like_backhaul = [backhaul, &sum, frame] {
        sum += frame.wire_bytes + (backhaul != nullptr);
      };
      auto full = [&sum, pad = std::array<char, kInline - sizeof(void*)>{}] {
        sum += pad.size();
      };
      static_assert(sizeof(like_backhaul) == 48);
      static_assert(sizeof(full) == kInline);
      s.schedule_at(at, tiny);
      s.schedule_at(at, like_backhaul);
      EventId dropped = s.schedule_at(at, full);
      s.schedule_at(at, refill);  // a std::function lvalue, copied in
      if (i % 3 == 0) s.cancel(dropped);
    }
    s.run();
  };
  schedule_all();  // grows the heap, the arena and the free list
  const std::uint64_t warm_sum = sum;
  EXPECT_EQ(allocations_in(schedule_all), 0u);
  EXPECT_EQ(sum, 2 * warm_sum);

  // The count is live: a closure over the inline size allocates once.
  const std::size_t big = allocations_in([&] {
    for (int i = 0; i < kEvents; ++i) {
      s.schedule(Time::us(i % 97),
                 [&sum, pad = std::array<char, kInline>{}] { sum += pad[0]; });
    }
    s.run();
  });
  EXPECT_EQ(big, static_cast<std::size_t>(kEvents));
}

}  // namespace
}  // namespace wgtt::sim
