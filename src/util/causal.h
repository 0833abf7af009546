// Causal event-graph tracing (provenance for every scheduled event).
//
// The observability stack records *what* happened at every layer — Chrome
// trace spans, flight-recorder hops, decision JSONL, health windows — but
// not *why*: no stream links an effect to the event that caused it, so
// attributing a 40 ms failover to its stop/ioctl/relay/ack segments means
// eyeballing three logs side by side.  The CausalTracer closes that gap.
//
// Every event the sim::Scheduler dispatches already carries a deterministic
// 64-bit sequence number; that number doubles as the event's causal id.
// While a callback runs, the scheduler exposes it as `current_event()`, and
// every schedule() performed inside it records a parent -> child edge here.
// The result is the full causation DAG of the run: walking parents from a
// switch-ack delivery leads back through the AP start/ioctl/stop chain to
// the selection pass that initiated the switch, with every hop stamped on
// the simulated clock — `wgtt-report critical-path` turns that walk into a
// per-layer latency attribution whose segments sum *exactly* to the
// measured end-to-end time (the paper's Table 1 decomposition, computed
// automatically).
//
// Two record kinds share the stream, distinguished by field shape:
//   {"ev":N,"parent":P,"at_us":T}            an edge: event N was scheduled
//                                            by event P to fire at T
//                                            (P = 0 for root events)
//   {"ev":N,"site":"ap.ioctl","t_us":T,...}  a semantic annotation attached
//                                            to the dispatching event
// Annotation sites tag events with packet uid / client / AP / switch id so
// the DAG is joinable against the decision log and the flight recorder.
//
// The Scheduler and the annotation sites reach the tracer through
// obs::Context (obs/context.h).  With no tracer (the default) each schedule
// costs one branch — and the scheduler's current-event bookkeeping is two
// plain stores per dispatch — so disabled runs stay byte-identical, pinned
// by the golden-stream suite.
//
// Uid-tagged annotations (per-packet sites) share the flight recorder's
// seeded uid-hash sampler, so at the same (seed, sample) the two streams
// cover the same packet population and join line for line.  Switch/control
// annotations are never sampled away.
#pragma once

#include <cstdint>
#include <string>

#include "util/jsonl.h"
#include "util/time.h"

namespace wgtt::sim {
class Scheduler;
}  // namespace wgtt::sim

namespace wgtt::obs {

struct CausalTracerConfig {
  std::uint64_t seed = 1;    // sampler seed (the Testbed passes its sim seed)
  std::uint32_t sample = 1;  // annotate 1-in-N data packets (1 = every one)
};

/// JSONL schema version emitted as the stream's header line
/// ({"kind":"schema","stream":"wgtt.causal","version":N}); wgtt-report
/// refuses causal streams whose version it does not understand (exit 2).
constexpr int kCausalSchemaVersion = 1;

class CausalTracer {
 public:
  explicit CausalTracer(CausalTracerConfig cfg = {});
  CausalTracer(const CausalTracer&) = delete;
  CausalTracer& operator=(const CausalTracer&) = delete;

  /// Record that event `child` was scheduled by event `parent` (0 = root)
  /// to fire at `when`.  Called by the Scheduler on every schedule() when a
  /// tracer is installed; `when` is exact — the event loop fires events at
  /// precisely their scheduled time.
  void edge(std::uint64_t child, std::uint64_t parent, Time when);

  /// Attach a semantic annotation to the event the bound scheduler is
  /// currently dispatching (ev 0 when called outside dispatch, e.g. during
  /// construction).  Switch/control annotations are never sampled away.
  void annotate(const char* site, Fields args = {});
  /// The same for one packet: writes "uid" ahead of `args`.  Callers gate
  /// data packets on sampled(uid).
  void annotate_packet(const char* site, std::uint64_t uid, Fields args);

  /// The shared seeded uid sampler (obs::uid_sampled) at this tracer's
  /// (seed, sample): the flight recorder at the same settings selects the
  /// same packets.
  bool sampled(std::uint64_t uid) const {
    return uid_sampled(uid, cfg_.seed, cfg_.sample);
  }

  /// The scheduler whose current_event()/now() annotations read.  Bound by
  /// the Scheduler itself at construction (the Testbed constructs the
  /// tracer first, so the scheduler finds it installed).
  void bind(const sim::Scheduler* sched) { sched_ = sched; }

  /// Causal id of the event currently being dispatched (0 outside
  /// dispatch) — what annotation call sites key flow events on.
  std::uint64_t current_event() const;

  std::size_t records() const { return records_; }
  /// The accumulated JSONL document (one '\n'-terminated object per line),
  /// joined into one string: a copy, made once at hand-off.
  std::string jsonl() const { return out_.str(); }
  /// Its size in bytes, without joining it.
  std::size_t jsonl_bytes() const { return out_.size(); }
  const CausalTracerConfig& config() const { return cfg_; }

 private:
  /// The fields every annotation opens with: "ev", "site", "t_us".
  void begin_annotation(Line& line, const char* site);

  CausalTracerConfig cfg_;
  const sim::Scheduler* sched_ = nullptr;
  Document out_;
  std::size_t records_ = 0;
};

}  // namespace wgtt::obs
