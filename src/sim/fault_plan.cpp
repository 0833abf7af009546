#include "sim/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/rng.h"

namespace wgtt::sim {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// A whole finite decimal number: no trailing characters, no NaN or inf.
bool parse_number(std::string_view v, double& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && end == v.data() + v.size() && std::isfinite(out);
}

/// A node id: a whole unsigned decimal that fits in 32 bits.
bool parse_node(std::string_view v, std::uint32_t& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && end == v.data() + v.size();
}

/// "250ms" / "80us" / "1.5s" -> Time.  The suffix is mandatory so specs
/// never silently mean the wrong unit, and the time must fit Time.
bool parse_time(std::string_view v, Time& out) {
  double ns_per_unit = 1e9;
  if (v.ends_with("us")) ns_per_unit = 1e3;
  else if (v.ends_with("ms")) ns_per_unit = 1e6;
  else if (!v.ends_with("s")) return false;
  v.remove_suffix(ns_per_unit == 1e9 ? 1 : 2);
  double num = 0.0;
  if (!parse_number(v, num)) return false;
  const double ns = num * ns_per_unit;
  constexpr auto kMaxNs =
      static_cast<double>(std::numeric_limits<std::int64_t>::max());
  if (!(std::fabs(ns) < kMaxNs)) return false;
  out = Time::ns(static_cast<std::int64_t>(ns));
  return true;
}

bool parse_kind(std::string_view v, FaultKind& out) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto k = static_cast<FaultKind>(i);
    if (v == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// Kinds that fault one AP, so their node can never be 0, the controller.
bool is_ap_kind(FaultKind k) {
  return k == FaultKind::kApCrash || k == FaultKind::kCsiFreeze ||
         k == FaultKind::kCsiGarbage;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kApCrash: return "ap_crash";
    case FaultKind::kLinkDrop: return "link_drop";
    case FaultKind::kLinkLatency: return "link_latency";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCsiFreeze: return "csi_freeze";
    case FaultKind::kCsiGarbage: return "csi_garbage";
    case FaultKind::kMsgDup: return "msg_dup";
    case FaultKind::kMsgReorder: return "msg_reorder";
    case FaultKind::kCtrlCrash: return "ctrl_crash";
  }
  return "?";
}

bool FaultPlan::parse(std::string_view spec, FaultPlan& out,
                      std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;
    // Every error names the clause it rejects.
    const auto bad = [&](const std::string& why) {
      return fail(error, "clause '" + std::string(clause) + "': " + why);
    };

    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos) return bad("missing ':'");
    FaultEvent ev;
    if (!parse_kind(clause.substr(0, colon), ev.kind))
      return bad("unknown fault kind '" +
                 std::string(clause.substr(0, colon)) + "'");

    bool have_at = false, have_node = false, have_rate = false;
    std::size_t kpos = colon + 1;
    while (kpos < clause.size()) {
      std::size_t kend = clause.find(',', kpos);
      if (kend == std::string_view::npos) kend = clause.size();
      const std::string_view kv = clause.substr(kpos, kend - kpos);
      kpos = kend + 1;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos)
        return bad("missing '=' in '" + std::string(kv) + "'");
      const std::string_view key = kv.substr(0, eq);
      const std::string_view val = kv.substr(eq + 1);
      const auto bad_time = [&] {
        return bad("bad time '" + std::string(val) + "' (use us/ms/s)");
      };
      if (key == "ap" || key == "src") {
        if (!parse_node(val, ev.node))
          return bad("bad node id '" + std::string(val) + "'");
        have_node = true;
      } else if (key == "dst") {
        if (!parse_node(val, ev.peer))
          return bad("bad node id '" + std::string(val) + "'");
      } else if (key == "at") {
        if (!parse_time(val, ev.at)) return bad_time();
        if (ev.at < Time::zero()) return bad("at= must be >= 0");
        have_at = true;
      } else if (key == "for") {
        if (!parse_time(val, ev.duration)) return bad_time();
      } else if (key == "rate") {
        if (!parse_number(val, ev.rate) || ev.rate < 0.0 || ev.rate > 1.0)
          return bad("bad rate '" + std::string(val) +
                     "': rate must be in [0, 1]");
        have_rate = true;
      } else if (key == "extra") {
        if (!parse_time(val, ev.extra)) return bad_time();
      } else {
        return bad("unknown key '" + std::string(key) + "'");
      }
    }
    const std::string kind = to_string(ev.kind);
    // ctrl_crash always targets the controller (node 0), so its node id is
    // optional; every other kind must name the faulted AP / link endpoint,
    // and an AP fault must not name the controller.
    if (!have_node && ev.kind != FaultKind::kCtrlCrash)
      return bad(kind + ": missing ap=/src= node id");
    if (is_ap_kind(ev.kind) && ev.node == 0)
      return bad(kind + ": node 0 is the controller (use ctrl_crash)");
    if (!have_at) return bad(kind + ": missing at=");
    if (ev.kind == FaultKind::kLinkDrop && ev.rate <= 0.0)
      return bad("link_drop: missing rate=");
    if (ev.kind == FaultKind::kLinkLatency && ev.extra <= Time::zero())
      return bad("link_latency: missing extra=");
    // Unlike link_drop (where the 1.0 default means blackout), a dup or
    // reorder burst has no meaningful default probability: require rate=.
    if (ev.kind == FaultKind::kMsgDup && (!have_rate || ev.rate <= 0.0))
      return bad("msg_dup: missing rate=");
    if (ev.kind == FaultKind::kMsgReorder && (!have_rate || ev.rate <= 0.0))
      return bad("msg_reorder: missing rate=");
    if (ev.kind == FaultKind::kMsgReorder && ev.extra <= Time::zero())
      return bad("msg_reorder: missing extra= (jitter bound)");
    plan.events.push_back(ev);
  }
  out = std::move(plan);
  return true;
}

FaultPlan FaultPlan::chaos(double intensity, Time horizon,
                           std::uint32_t n_aps, std::uint64_t seed) {
  FaultPlan plan;
  if (intensity <= 0.0 || horizon <= Time::zero() || n_aps == 0) return plan;
  Rng rng = Rng(seed).fork("chaos");
  const double horizon_s = horizon.to_sec();
  const auto n = static_cast<std::size_t>(std::llround(intensity * horizon_s));
  const Time lo = horizon * 0.15;
  const Time hi = horizon * 0.85;
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(rng.uniform_int(
        0, static_cast<std::int64_t>(kClassicChaosKindCount) - 1));
    ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, n_aps));
    ev.peer = 0;  // link faults hit the AP <-> controller leg
    ev.at = Time::ns(rng.uniform_int(lo.to_ns(), hi.to_ns()));
    ev.duration = Time::ms(rng.uniform(80.0, 400.0));
    ev.rate = rng.uniform(0.3, 0.9);
    ev.extra = Time::ms(rng.uniform(2.0, 20.0));
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

FaultPlan FaultPlan::control_chaos(double intensity, Time horizon,
                                   std::uint32_t n_aps, std::uint64_t seed,
                                   unsigned kind_mask) {
  FaultPlan plan;
  if (intensity <= 0.0 || horizon <= Time::zero() || n_aps == 0) return plan;
  std::vector<FaultKind> kinds;
  if (kind_mask & kChaosMsgDup) kinds.push_back(FaultKind::kMsgDup);
  if (kind_mask & kChaosMsgReorder) kinds.push_back(FaultKind::kMsgReorder);
  if (kind_mask & kChaosCtrlCrash) kinds.push_back(FaultKind::kCtrlCrash);
  if (kind_mask & kChaosLinkDrop) kinds.push_back(FaultKind::kLinkDrop);
  if (kind_mask & kChaosLinkLatency) kinds.push_back(FaultKind::kLinkLatency);
  if (kinds.empty()) return plan;
  Rng rng = Rng(seed).fork("control-chaos");
  const double horizon_s = horizon.to_sec();
  const auto n = static_cast<std::size_t>(std::llround(intensity * horizon_s));
  // Windows end by 75% of the horizon plus the longest duration below, so
  // the fuzzer's reconvergence check always has fault-free tail time.
  const Time lo = horizon * 0.10;
  const Time hi = horizon * 0.75;
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, n_aps));
    ev.peer = 0;  // control traffic rides the AP <-> controller leg
    ev.at = Time::ns(rng.uniform_int(lo.to_ns(), hi.to_ns()));
    ev.duration = Time::ms(rng.uniform(60.0, 250.0));
    ev.rate = rng.uniform(0.2, 0.8);
    ev.extra = Time::ms(rng.uniform(1.0, 8.0));
    if (ev.kind == FaultKind::kCtrlCrash) {
      ev.node = 0;
      // Keep controller blackouts short relative to the horizon: the
      // interesting behaviour is the warm restart, not a long outage.
      ev.duration = Time::ms(rng.uniform(40.0, 120.0));
    }
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

std::string FaultPlan::describe() const {
  if (events.empty()) return "no faults";
  std::string out;
  char line[160];
  for (const FaultEvent& ev : events) {
    std::snprintf(line, sizeof line, "%s node=%u peer=%u at=%.3fs for=%.0fms",
                  to_string(ev.kind), ev.node, ev.peer, ev.at.to_sec(),
                  ev.duration.to_ms());
    out += line;
    if (ev.kind == FaultKind::kLinkDrop || ev.kind == FaultKind::kMsgDup ||
        ev.kind == FaultKind::kMsgReorder) {
      std::snprintf(line, sizeof line, " rate=%.2f", ev.rate);
      out += line;
    }
    if (ev.kind == FaultKind::kLinkLatency ||
        ev.kind == FaultKind::kMsgReorder) {
      std::snprintf(line, sizeof line, " extra=%.1fms", ev.extra.to_ms());
      out += line;
    }
    out += '\n';
  }
  return out;
}

}  // namespace wgtt::sim
