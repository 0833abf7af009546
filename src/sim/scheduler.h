// Discrete-event simulation core.
//
// A single-threaded, deterministic event loop: events fire in (time, insertion
// order) so two events at the same instant execute in the order they were
// scheduled.  Every latency in the system — frame airtime, Ethernet backhaul
// delay, driver processing, protocol timeouts — is an event on this queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/time.h"

namespace wgtt::sim {

/// Handle for cancelling a scheduled event: the event's seq and the arena
/// slot that holds its callback.  Cancellation is lazy: the event stays in
/// the queue but its callback is not invoked.
class EventId {
 public:
  EventId() = default;

 private:
  friend class Scheduler;
  EventId(std::uint64_t seq, std::uint32_t slot) : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  // Out of every arena's range, so a default id is rejected by the bounds
  // check alone.
  std::uint32_t slot_ = UINT32_MAX;
};

class Scheduler {
 public:
  /// A move-only `void()` callable.  Closures of up to kInlineBytes are
  /// stored in place, so scheduling one allocates nothing; larger ones (the
  /// few that copy a whole RxMeta) go to the heap.  Converts implicitly from
  /// any callable, a lambda or a std::function alike.
  class Callback {
   public:
    /// Sized for the hot closures: Backhaul::send's (48 B), the MAC's
    /// per-aggregate delivery (56 B) and Medium's deferred grant (64 B).
    /// Every slot carries this many bytes, so it is not sized for outliers.
    static constexpr std::size_t kInlineBytes = 64;

    Callback() = default;
    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                       std::is_invocable_r_v<void, D&>>>
    Callback(F&& f) : ops_(&kOps<D>) {
      if constexpr (kFitsInline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      } else {
        ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      }
    }
    Callback(Callback&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
      if (ops_) ops_->relocate(buf_, o.buf_);
    }
    Callback& operator=(Callback&& o) noexcept {
      if (this != &o) {
        reset();
        ops_ = std::exchange(o.ops_, nullptr);
        if (ops_) ops_->relocate(buf_, o.buf_);
      }
      return *this;
    }
    ~Callback() { reset(); }

    void operator()() { ops_->call(buf_); }

   private:
    struct Ops {
      void (*call)(void* self);
      // Move-constructs the callable at `to` and ends the one at `from`.
      void (*relocate)(void* to, void* from) noexcept;
      void (*destroy)(void* self) noexcept;
    };
    template <class D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
        std::is_nothrow_move_constructible_v<D>;
    template <class D>
    static D* get(void* p) {
      if constexpr (kFitsInline<D>) {
        return std::launder(static_cast<D*>(p));
      } else {
        return *std::launder(static_cast<D**>(p));
      }
    }
    template <class D>
    static constexpr Ops kOps{
        [](void* self) { (*get<D>(self))(); },
        [](void* to, void* from) noexcept {
          if constexpr (kFitsInline<D>) {
            ::new (to) D(std::move(*get<D>(from)));
            get<D>(from)->~D();
          } else {
            ::new (to) D*(get<D>(from));
          }
        },
        [](void* self) noexcept {
          if constexpr (kFitsInline<D>) {
            get<D>(self)->~D();
          } else {
            delete get<D>(self);
          }
        }};

    void reset() {
      if (ops_) std::exchange(ops_, nullptr)->destroy(buf_);
    }

    alignas(void*) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` to run `delay` after the current time.
  EventId schedule(Time delay, Callback cb) { return push(now_ + delay, cb); }

  /// Schedule `cb` at an absolute time.  Throws std::logic_error if `when`
  /// is before now(): such an event would pop next and move the clock back.
  EventId schedule_at(Time when, Callback cb) { return push(when, cb); }

  /// Cancel a pending event in constant time.  Returns false if it already
  /// fired, was already cancelled, or was never scheduled: cancelling a
  /// stale id is a recognised no-op, not a deferred cancellation.  The
  /// callback is destroyed when the event's queue entry pops, not here.
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
  /// Events scheduled but not yet fired or cancelled (the raw queue also
  /// holds cancelled entries until their time).
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
  // The heap orders plain {when, seq, slot} entries; the callback waits in
  // slots_[slot].  A slot belongs to one event from schedule_at until its
  // entry pops, and its `seq` is the event's seq until then (0 while free
  // or once cancelled).  Seqs are unique, so the seq doubles as the slot's
  // generation: an id is live exactly while its slot still holds its seq.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint64_t seq = 0;
    Callback cb;
  };

  // Both schedule calls take their callback by value and hand it over by
  // reference, so it is moved once, into its slot.
  EventId push(Time when, Callback& cb);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t current_event_ = 0;
  bool stopped_ = false;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Observers, cached at construction; null (every site a single branch)
  // when the sink is off.
  obs::Context obs_;
  metrics::Counter* m_dispatched_ = nullptr;
  metrics::Counter* m_cancelled_ = nullptr;
  metrics::Histogram* m_queue_depth_ = nullptr;
  prof::Section* p_dispatch_ = nullptr;
};

}  // namespace wgtt::sim
