// Controller decision audit log (JSONL).
//
// The WgttController's AP-selection pass runs every selection_period and,
// per client, either keeps the incumbent AP, initiates a switch, or defers
// the decision.  The paper's evaluation argues about *why* switches happen
// (median windows riding out fading spikes, hysteresis suppressing flapping)
// — this log records every evaluation with enough context to replay that
// argument: the candidate APs' median ESNRs and window fill, the incumbent,
// the configured margin, and the outcome with a machine-readable reason.
//
// One JSON object per line; timestamps use the tracer's integer-formatted
// microsecond rendering and ESNR medians are fixed-point milli-dB integers,
// so a fixed-seed run produces byte-identical output on any platform and the
// records cross-link to trace spans by simulated timestamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "util/jsonl.h"
#include "util/time.h"

namespace wgtt::core {

enum class DecisionOutcome { kKeep, kSwitch, kDefer };

enum class DecisionReason {
  kNotJoined,       // defer: client has no active AP yet
  kSwitchInFlight,  // defer: a stop/start/ack handshake is outstanding
  kHysteresis,      // defer: within switch_hysteresis of the last switch
  kNoCandidate,     // keep: no AP has min_readings in-window readings
  kIncumbentBest,   // keep: the incumbent has the maximal median
  kBelowMargin,     // keep: challenger ahead but under switch_margin_db
  kChallengerAhead, // switch: challenger beats incumbent (+margin)
  kApSuspect,       // switch: liveness failover off a dead/suspect AP
  kAllSuspect,      // defer: every candidate AP is suspect/quarantined
  kResync,          // switch/keep: warm-restart resync adoption or orphan
                    // re-start after a controller crash wiped client state
};

/// One past the last DecisionReason value.  Keep in sync when adding a
/// reason; the exhaustive-coverage unit test fails loudly if this lags.
constexpr std::size_t kDecisionReasonCount = 10;

const char* to_string(DecisionOutcome o);
const char* to_string(DecisionReason r);

struct DecisionCandidate {
  net::NodeId ap = 0;
  double median_db = 0.0;    // windowed median ESNR
  std::size_t readings = 0;  // window fill (eligible when >= min_readings)
  bool eligible = false;     // has min_readings in-window readings
};

struct DecisionRecord {
  Time t;
  net::NodeId client = 0;
  net::NodeId incumbent = 0;  // active AP at evaluation time (0 = none)
  net::NodeId chosen = 0;     // argmax-median AP (0 when none eligible)
  /// HandoffPolicy that produced this decision (stable name; "" in bare
  /// unit-test records).  Serialized as the record's "policy" field.
  const char* policy = "";
  DecisionOutcome outcome = DecisionOutcome::kKeep;
  DecisionReason reason = DecisionReason::kNoCandidate;
  double margin_db = 0.0;        // configured switch margin
  Time hysteresis_remaining;     // > 0 only for kHysteresis deferrals
  std::vector<DecisionCandidate> candidates;  // sorted by AP id
};

/// AP liveness lifecycle event (fault-tolerance extension).  Serialized as
/// its own JSONL line with "kind":"liveness", so existing decision-record
/// consumers that key on "client" skip them untouched.
struct LivenessRecord {
  Time t;
  net::NodeId ap = 0;
  /// "suspect" | "quarantined" | "reinstated"
  const char* event = "";
  std::uint32_t flaps = 0;    // suspect transitions seen for this AP so far
  Time quarantine;            // backoff window (quarantined events only)
};

/// JSONL schema version emitted as the stream's header line
/// ({"kind":"schema","stream":"wgtt.decisions","version":N}); wgtt-report
/// refuses decision logs whose version it does not understand (exit 2).
/// Version 2 adds the "resync" reason enum value and is only emitted by
/// fault-injected runs (the constructor's protocol_extensions flag), so
/// fault-free decision logs stay byte-identical to version 1.
constexpr int kDecisionLogSchemaVersion = 1;
constexpr int kDecisionLogSchemaVersionResync = 2;

class DecisionLog {
 public:
  /// `protocol_extensions` marks a run with the hardened control plane armed
  /// (a FaultInjector installed): the header advertises schema version 2.
  explicit DecisionLog(bool protocol_extensions = false);
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  /// Serialize `rec` as one JSONL line and append it.
  void append(const DecisionRecord& rec);

  /// Serialize an AP liveness event as one JSONL line and append it.
  void append_liveness(const LivenessRecord& rec);

  std::size_t entries() const { return entries_; }
  std::size_t liveness_entries() const { return liveness_entries_; }
  std::uint64_t switches() const { return switches_; }
  /// The accumulated JSONL document (one '\n'-terminated object per line),
  /// joined into one string: a copy, made once at hand-off.
  std::string jsonl() const { return out_.str(); }
  /// Its size in bytes, without joining it.
  std::size_t jsonl_bytes() const { return out_.size(); }

 private:
  obs::Document out_;
  std::size_t entries_ = 0;
  std::size_t liveness_entries_ = 0;
  std::uint64_t switches_ = 0;  // records with outcome kSwitch
};

}  // namespace wgtt::core
