// Deterministic event tracing in the Chrome trace-event JSON format.
//
// A Tracer records instant ("i"), complete ("X"), and counter ("C") events
// keyed on *simulated* time, streamed through the util/json writer into one
// in-memory document that chrome://tracing and Perfetto load directly.
// Timestamps are formatted from integer nanoseconds with integer arithmetic
// (microseconds with exactly three decimals), so for a fixed seed the output
// is bitwise-reproducible across runs, thread counts, and libcs — the
// property the golden-trace regression suite pins with a SHA-256 hash.
//
// Like the MetricsRegistry, a Tracer is owned by a Testbed and reached
// through its obs::Context; a null pointer (tracing off, the default) makes
// every record site a single branch.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/time.h"

namespace wgtt::trace {

/// One numeric "args" entry on an event.
struct TraceArg {
  std::string_view key;
  double value;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Point event at sim time `t`.  `tid` separates tracks in the viewer
  /// (we use the node id of the acting device, 0 for the controller).
  void instant(std::string_view cat, std::string_view name, Time t,
               std::int64_t tid = 0, std::initializer_list<TraceArg> args = {});
  /// Duration ("complete") event spanning [start, start + dur].
  void complete(std::string_view cat, std::string_view name, Time start,
                Time dur, std::int64_t tid = 0,
                std::initializer_list<TraceArg> args = {});
  /// Counter track sample.
  void counter(std::string_view cat, std::string_view name, Time t,
               double value, std::int64_t tid = 0);
  /// Flow-event pair (ph "s"/"f") keyed on `id` — the arrows the trace
  /// viewer draws between tracks.  Call sites key `id` on the causal event
  /// id and emit only when causal tracing is on, so traces without it stay
  /// byte-identical (the golden-trace hash).
  void flow_start(std::string_view cat, std::string_view name, Time t,
                  std::uint64_t id, std::int64_t tid = 0);
  void flow_finish(std::string_view cat, std::string_view name, Time t,
                   std::uint64_t id, std::int64_t tid = 0);

  std::size_t events() const { return events_; }

  /// Close the document and return the full JSON.  Idempotent; no events may
  /// be recorded afterwards.
  const std::string& finish();

  /// Format a sim time as a Chrome-trace "ts" value: microseconds with three
  /// decimals, derived purely from integer arithmetic (obs::write_ts).
  static std::string format_ts(Time t);

 private:
  void begin_event(char ph, std::string_view cat, std::string_view name,
                   Time ts, std::int64_t tid);
  void write_args(std::initializer_list<TraceArg> args);

  JsonWriter w_;
  std::size_t events_ = 0;
  bool finished_ = false;
};

}  // namespace wgtt::trace
