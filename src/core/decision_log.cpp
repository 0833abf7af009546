#include "core/decision_log.h"

#include <cmath>

#include "util/jsonl.h"
#include "util/trace.h"

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
std::string format_milli(double v) {
  const long long m = std::llround(v * 1000.0);
  return std::to_string(m);
}

}  // namespace

// Only runs with the hardened control plane armed advertise version 2 (which
// adds the "resync" reason); fault-free logs stay byte-identical to version 1.
DecisionLog::DecisionLog(bool protocol_extensions)
    : out_(obs::jsonl_document("wgtt.decisions",
                               protocol_extensions
                                   ? kDecisionLogSchemaVersionResync
                                   : kDecisionLogSchemaVersion,
                               0)) {}

void DecisionLog::append(const DecisionRecord& rec) {
  // Hand-rolled serialization (field order fixed by this code, numbers
  // integer-formatted) rather than JsonWriter — every byte is deterministic.
  std::string& s = out_;
  s += "{\"t_us\":";
  s += trace::Tracer::format_ts(rec.t);
  s += ",\"client\":";
  s += std::to_string(rec.client);
  s += ",\"incumbent\":";
  s += std::to_string(rec.incumbent);
  s += ",\"chosen\":";
  s += std::to_string(rec.chosen);
  s += ",\"policy\":\"";
  s += rec.policy;
  s += "\",\"outcome\":\"";
  s += to_string(rec.outcome);
  s += "\",\"reason\":\"";
  s += to_string(rec.reason);
  s += "\",\"margin_mdb\":";
  s += format_milli(rec.margin_db);
  s += ",\"hyst_remaining_us\":";
  s += trace::Tracer::format_ts(rec.hysteresis_remaining);
  s += ",\"candidates\":[";
  bool first = true;
  for (const DecisionCandidate& c : rec.candidates) {
    if (!first) s += ',';
    first = false;
    s += "{\"ap\":";
    s += std::to_string(c.ap);
    s += ",\"median_mdb\":";
    s += format_milli(c.median_db);
    s += ",\"readings\":";
    s += std::to_string(c.readings);
    s += ",\"eligible\":";
    s += c.eligible ? "true" : "false";
    s += '}';
  }
  s += "]}\n";
  ++entries_;
  if (rec.outcome == DecisionOutcome::kSwitch) ++switches_;
}

void DecisionLog::append_liveness(const LivenessRecord& rec) {
  std::string& s = out_;
  s += "{\"t_us\":";
  s += trace::Tracer::format_ts(rec.t);
  s += ",\"kind\":\"liveness\",\"ap\":";
  s += std::to_string(rec.ap);
  s += ",\"event\":\"";
  s += rec.event;
  s += "\",\"flaps\":";
  s += std::to_string(rec.flaps);
  s += ",\"quarantine_us\":";
  s += trace::Tracer::format_ts(rec.quarantine);
  s += "}\n";
  ++liveness_entries_;
}

}  // namespace wgtt::core
