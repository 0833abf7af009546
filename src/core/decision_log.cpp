#include "core/decision_log.h"

#include <cmath>

namespace wgtt::core {

const char* to_string(DecisionOutcome o) {
  switch (o) {
    case DecisionOutcome::kKeep: return "keep";
    case DecisionOutcome::kSwitch: return "switch";
    case DecisionOutcome::kDefer: return "defer";
  }
  return "?";
}

const char* to_string(DecisionReason r) {
  switch (r) {
    case DecisionReason::kNotJoined: return "not_joined";
    case DecisionReason::kSwitchInFlight: return "switch_in_flight";
    case DecisionReason::kHysteresis: return "hysteresis";
    case DecisionReason::kNoCandidate: return "no_candidate";
    case DecisionReason::kIncumbentBest: return "incumbent_best";
    case DecisionReason::kBelowMargin: return "below_margin";
    case DecisionReason::kChallengerAhead: return "challenger_ahead";
    case DecisionReason::kApSuspect: return "ap_suspect";
    case DecisionReason::kAllSuspect: return "all_suspect";
    case DecisionReason::kResync: return "resync";
  }
  return "?";
}

namespace {

// Fixed-point milli-units via integer arithmetic: byte-identical rendering of
// doubles across platforms (printf %g is not).
long long milli(double v) { return std::llround(v * 1000.0); }

}  // namespace

// Only runs with the hardened control plane armed advertise version 2 (which
// adds the "resync" reason); fault-free logs stay byte-identical to version 1.
DecisionLog::DecisionLog(bool protocol_extensions)
    : out_("wgtt.decisions", protocol_extensions
                                 ? kDecisionLogSchemaVersionResync
                                 : kDecisionLogSchemaVersion) {}

void DecisionLog::append(const DecisionRecord& rec) {
  // Hand-rolled serialization (field order fixed by this code, numbers
  // integer-formatted) rather than JsonWriter — every byte is deterministic.
  obs::Line line(out_);
  line.lit("{\"t_us\":")
      .ts(rec.t)
      .lit(",\"client\":")
      .num(rec.client)
      .lit(",\"incumbent\":")
      .num(rec.incumbent)
      .lit(",\"chosen\":")
      .num(rec.chosen)
      .lit(",\"policy\":\"")
      .str(rec.policy)
      .lit("\",\"outcome\":\"")
      .str(to_string(rec.outcome))
      .lit("\",\"reason\":\"")
      .str(to_string(rec.reason))
      .lit("\",\"margin_mdb\":")
      .num(milli(rec.margin_db))
      .lit(",\"hyst_remaining_us\":")
      .ts(rec.hysteresis_remaining)
      .lit(",\"candidates\":[");
  bool first = true;
  for (const DecisionCandidate& c : rec.candidates) {
    if (!first) line.ch(',');
    first = false;
    line.lit("{\"ap\":")
        .num(c.ap)
        .lit(",\"median_mdb\":")
        .num(milli(c.median_db))
        .lit(",\"readings\":")
        .num(c.readings)
        .lit(",\"eligible\":");
    if (c.eligible) {
      line.lit("true}");
    } else {
      line.lit("false}");
    }
  }
  line.lit("]}\n");
  ++entries_;
  if (rec.outcome == DecisionOutcome::kSwitch) ++switches_;
}

void DecisionLog::append_liveness(const LivenessRecord& rec) {
  obs::Line(out_)
      .lit("{\"t_us\":")
      .ts(rec.t)
      .lit(",\"kind\":\"liveness\",\"ap\":")
      .num(rec.ap)
      .lit(",\"event\":\"")
      .str(rec.event)
      .lit("\",\"flaps\":")
      .num(rec.flaps)
      .lit(",\"quarantine_us\":")
      .ts(rec.quarantine)
      .lit("}\n");
  ++liveness_entries_;
}

}  // namespace wgtt::core
