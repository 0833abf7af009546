// Runtime health engine: streaming windowed telemetry + invariant watchdogs.
//
// Every other observability surface (Tracer, TelemetrySampler, decision /
// packet JSONL) buffers raw events for post-hoc analysis, which stops
// working at soak horizons — hours of simulated time where raw event volume
// is unbounded and "did it drift or leak?" must be answered *during* the
// run.  The HealthEngine instead keeps fixed-memory state: a cross-layer
// packet-conservation ledger, a set of cheap resource gauges sampled once
// per window (~1 s simulated), and a ring of per-window rollups.  At every
// window close it evaluates invariant watchdogs — packet conservation,
// in-flight ceiling, monotone counters, bounded gauges, liveness-FSM sanity
// — and records each violation as a structured record with a severity.
//
// The per-window rollups stream into a `health.jsonl` document (one JSON
// object per line, hand-serialized with fixed field order and pure-integer
// number formatting, so a fixed-seed run emits byte-identical output on any
// platform).
//
// The packet-conservation ledger counts *per-copy instances* of the
// flight-recorded transport payloads (kData / kTcpAck; management and
// control frames are excluded):
//
//   sent       transport emitted a brand-new payload (TCP seg/ack, UDP)
//   copies     an extra instance came into existence: each controller
//              fan-out tunnel and each MAC decode at a receiving radio
//   delivered  transport consumed an instance at the far end
//   retired    an instance terminated benignly (MAC ack at the transmitter,
//              reorder-buffer duplicate discard, controller handing an
//              uplink payload to the flow layer, inbound copy joined after
//              fan-out, ...)
//   dropped    an instance was lost for a DropCause.  Every such site calls
//              obs::Context::drop(), which counts it here and writes the
//              packet log's drop record, so at full sampling the two agree
//              one for one; the ledger stays exact when packet recording is
//              off or sampled
//
// Invariant: in_flight = sent + copies - delivered - retired - dropped >= 0,
// and bounded in steady state.  A drop site that skips drop() shows up as
// monotone in_flight growth — the seeded-leak test in tests/health_test.cpp
// proves the watchdog catches exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/jsonl.h"
#include "util/metrics.h"
#include "util/time.h"

namespace wgtt::obs {

/// JSONL schema version emitted in the header line; wgtt-report refuses
/// files whose version it does not understand (exit 2).  Version 2 adds the
/// "outage" / "fault" record kinds and the convergence summary fields, and
/// is only emitted by fault-aware engines so fault-free streams stay
/// byte-identical to version 1.
constexpr int kHealthSchemaVersion = 1;
constexpr int kHealthSchemaVersionFaultAware = 2;

struct HealthConfig {
  /// Rollup window on the simulated clock.
  Time window = Time::sec(1);
  /// In-memory ring of recent windows (the JSONL stream keeps them all).
  std::size_t ring_capacity = 4096;
  /// Ceiling for the in-flight watchdog; 0 disables the ceiling check
  /// (conservation — in_flight >= 0 — is always on).
  std::uint64_t max_in_flight = 0;
  /// Arm the fault-tolerance ledger (client outage windows, fault marks,
  /// convergence summary) and advertise schema version 2.  The scenario
  /// layer sets this when a FaultInjector is installed; fault-free runs
  /// keep it off so their streams stay byte-identical.
  bool fault_aware = false;
};

/// One client-stranded interval (fault-aware engines only).  `end` equals
/// `begin` while the outage is still open at finalize.
struct OutageRecord {
  std::uint32_t client = 0;
  Time begin;
  Time end;
  bool open = false;  // still stranded when the run ended
};

/// One watchdog violation, also serialized as a {"kind":"violation"} line.
struct HealthViolation {
  std::string watchdog;  // "packet_conservation", "monotone_counters", ...
  std::string severity;  // "error" | "warn"
  Time t;                // window close time
  double value = 0.0;
  double limit = 0.0;
  std::string detail;
};

/// One closed window's rollup (cumulative ledger + sampled gauges).
struct HealthWindow {
  Time t;  // close time
  std::uint64_t sent = 0;
  std::uint64_t copies = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retired = 0;
  std::uint64_t dropped = 0;
  std::int64_t in_flight = 0;
  std::vector<double> gauges;  // registration order
};

class HealthEngine {
 public:
  /// `metrics` (optional) feeds the monotone-counter and liveness-FSM
  /// watchdogs.
  explicit HealthEngine(HealthConfig cfg = {},
                        const metrics::MetricsRegistry* metrics = nullptr);
  HealthEngine(const HealthEngine&) = delete;
  HealthEngine& operator=(const HealthEngine&) = delete;

  // -- packet-conservation ledger (hot paths: one add each) --------------
  void packet_sent(std::uint64_t n = 1) { sent_ += n; }
  void packet_copies(std::uint64_t n = 1) { copies_ += n; }
  void packet_delivered(std::uint64_t n = 1) { delivered_ += n; }
  void packet_retired(std::uint64_t n = 1) { retired_ += n; }
  void packet_dropped(std::uint64_t n = 1) { dropped_ += n; }

  // -- fault-tolerance ledger (no-ops unless cfg.fault_aware) ------------

  /// Report whether `client` is stranded (no live active AP) at time `t`.
  /// Idempotent: repeated same-state reports are absorbed; a transition
  /// opens or closes an outage window ({"kind":"outage"} line on close).
  /// The controller's liveness tick drives this every heartbeat period.
  void client_stranded(std::uint32_t client, bool stranded, Time t);

  /// Record a fault-plan edge ({"kind":"fault"} line): `kind` names the
  /// FaultKind, `active` marks onset vs clear.  The clear edges feed the
  /// convergence summary (reconvergence = last outage close vs last clear).
  void fault_mark(Time t, const char* kind, std::uint32_t node, bool active);

  /// Register a resource gauge before the first window closes; sampled in
  /// registration order at every window close.  `ceiling` > 0 arms the
  /// bounded_gauge watchdog for this gauge.
  void add_gauge(std::string name, std::function<double()> probe,
                 double ceiling = 0.0);

  /// Close the window ending at `t`: sample every gauge, snapshot the
  /// ledger, run the watchdogs, and append the window (+ any violation)
  /// lines to the JSONL stream.  The Testbed drives this from a periodic
  /// scheduler event.
  void on_window_close(Time t);

  /// Close the final (possibly partial) window at `t` and append the
  /// {"kind":"summary"} line.  Never samples gauges — by Testbed teardown
  /// the probes' targets (overlay networks, apps) may already be gone.
  /// Idempotent.
  void finalize(Time t);

  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(sent_ + copies_) -
           static_cast<std::int64_t>(delivered_ + retired_ + dropped_);
  }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t copies() const { return copies_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Ring of the most recent windows (up to ring_capacity), oldest first.
  std::vector<HealthWindow> windows() const;
  std::size_t windows_closed() const { return windows_closed_; }
  const std::vector<HealthViolation>& violations() const {
    return violations_;
  }
  /// Total watchdog evaluations (counted whether they pass or fail).
  std::uint64_t checks() const { return checks_; }
  /// Closed outage windows, in close order (fault-aware engines only;
  /// finalize() flushes any still-open outages here with open = true).
  const std::vector<OutageRecord>& outages() const { return outages_; }
  /// Clients stranded right now (open outage windows).
  std::size_t open_outages() const { return open_outages_.size(); }
  /// The accumulated JSONL document, starting with the schema header line,
  /// joined into one string: a copy, made once at hand-off.
  std::string jsonl() const { return out_.str(); }
  /// Its size in bytes, without joining it.
  std::size_t jsonl_bytes() const { return out_.size(); }
  const HealthConfig& config() const { return cfg_; }

 private:
  struct GaugeSlot {
    std::string name;
    std::function<double()> probe;
    double ceiling = 0.0;
  };

  void run_watchdogs(const HealthWindow& w);
  void violate(std::string watchdog, std::string severity, Time t,
               double value, double limit, std::string detail);
  void append_window_line(const HealthWindow& w);
  /// Record a closed outage and write its {"kind":"outage"} line.
  void close_outage(const OutageRecord& rec);

  HealthConfig cfg_;
  std::uint64_t sent_ = 0;
  std::uint64_t copies_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<GaugeSlot> gauges_;
  std::vector<HealthWindow> ring_;  // circular once full
  std::size_t ring_next_ = 0;
  std::size_t windows_closed_ = 0;
  std::vector<HealthViolation> violations_;
  std::uint64_t checks_ = 0;
  Document out_;
  bool finalized_ = false;
  // Previous window's metrics-counter values for the monotone watchdog and
  // the liveness-FSM sanity check.
  const metrics::MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, std::uint64_t> prev_counters_;
  // Fault-tolerance ledger (only touched when cfg_.fault_aware).
  std::map<std::uint32_t, Time> open_outages_;  // client -> outage begin
  std::vector<OutageRecord> outages_;
};

}  // namespace wgtt::obs
