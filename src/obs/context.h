// One observation context per simulation.
//
// A simulation's seven observers — metrics registry, Chrome tracer, host
// profiler, decision log, flight recorder, health engine and causal tracer —
// are the sinks of one obs::Context.  The Testbed owns the sinks and installs
// the context on the constructing thread for its lifetime, before it builds
// the scheduler, so concurrent simulations on different threads observe
// independently with no shared mutable state.  Components copy
// `Context::current()` once at construction; a null sink is off, and a
// component built outside any Testbed sees every sink off.
//
// Each packet hop site makes one call, hop() or drop().  It applies the
// flight_recorded() type filter, moves the health engine's conservation
// ledger, writes the flight-recorder record and, where the site passes
// causal fields, the causal annotation (uid-sampled for data packets).  With
// every per-packet sink off the call is one inline branch.  A new per-packet
// stream is one sink class plus one line in Context::emit(); no hop site
// changes.
#pragma once

#include <cstdint>

#include "net/flight_recorder.h"
#include "net/packet.h"
#include "util/causal.h"
#include "util/health.h"
#include "util/jsonl.h"
#include "util/time.h"

namespace wgtt::metrics {
class MetricsRegistry;
}
namespace wgtt::trace {
class Tracer;
}
namespace wgtt::prof {
class Profiler;
}
namespace wgtt::core {
class DecisionLog;
}

namespace wgtt::obs {

/// What a hop does to the health engine's packet-conservation ledger (see
/// util/health.h for the five counts).
enum class Ledger : std::uint8_t {
  kNone,
  kSent,
  kCopy,
  kDelivered,
  kRetired,
  kDropped,
};

struct Context {
  metrics::MetricsRegistry* metrics = nullptr;
  trace::Tracer* tracer = nullptr;
  prof::Profiler* profiler = nullptr;
  core::DecisionLog* decisions = nullptr;
  net::FlightRecorder* recorder = nullptr;
  HealthEngine* health = nullptr;
  CausalTracer* causal = nullptr;

  /// The calling thread's installed context; every sink off when none is.
  static const Context& current();

  /// One lifecycle hop of `p` at `node`: the ledger update and the
  /// flight-recorder record (with `record` fields).
  void hop(const net::Packet& p, Time t, net::Hop hop, net::NodeId node,
           Ledger ledger, Fields record = {}) const {
    if (per_packet()) emit(p, t, hop, node, ledger, nullptr, record, nullptr);
  }
  /// The same plus the hop's causal annotation: "uid" then `causal`.
  void hop(const net::Packet& p, Time t, net::Hop hop, net::NodeId node,
           Ledger ledger, Fields record, Fields causal) const {
    if (per_packet()) emit(p, t, hop, node, ledger, nullptr, record, &causal);
  }
  /// `p` left the pipeline for `cause`: a ledger drop and a terminal record.
  void drop(const net::Packet& p, Time t, net::Hop hop, net::NodeId node,
            net::DropCause cause, Fields record = {}) const {
    if (per_packet()) {
      emit(p, t, hop, node, Ledger::kDropped, &cause, record, nullptr);
    }
  }
  /// Ledger-only update for `n` instances of `p`, where an instance ends or
  /// multiplies without a lifecycle hop of its own.
  void ledger(const net::Packet& p, Ledger l, std::uint64_t n = 1) const {
    if (net::flight_recorded(p.type)) count(l, n);
  }
  /// Ledger-only update for `n` instances already known to be recorded types.
  void count(Ledger l, std::uint64_t n) const {
    if (health == nullptr) return;
    switch (l) {
      case Ledger::kNone: return;
      case Ledger::kSent: health->packet_sent(n); return;
      case Ledger::kCopy: health->packet_copies(n); return;
      case Ledger::kDelivered: health->packet_delivered(n); return;
      case Ledger::kRetired: health->packet_retired(n); return;
      case Ledger::kDropped: health->packet_dropped(n); return;
    }
  }

  /// uid-0 marker record (switch, stack activation and fault edges); never
  /// sampled away.
  void marker(Time t, net::Hop hop, net::NodeId node, Fields f = {}) const {
    if (recorder != nullptr) recorder->marker(t, hop, node, f);
  }
  /// Control-plane causal annotation on the dispatching event.
  void annotate(const char* site, Fields f = {}) const {
    if (causal != nullptr) causal->annotate(site, f);
  }

 private:
  bool per_packet() const {
    return recorder != nullptr || health != nullptr || causal != nullptr;
  }
  void emit(const net::Packet& p, Time t, net::Hop hop, net::NodeId node,
            Ledger ledger, const net::DropCause* cause, Fields record,
            const Fields* causal_fields) const;
};

/// Install `ctx` as the calling thread's context for this object's lifetime
/// (RAII; nests).  Passing nullptr keeps the current one.
class ScopedContext {
 public:
  explicit ScopedContext(const Context* ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  const Context* installed_ = nullptr;
  const Context* previous_ = nullptr;
};

}  // namespace wgtt::obs
