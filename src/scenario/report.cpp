#include "scenario/report.h"

#include "util/json.h"

namespace wgtt::scenario {

const char* to_string(SystemType s) {
  switch (s) {
    case SystemType::kWgtt: return "wgtt";
    case SystemType::kEnhanced80211r: return "enhanced_80211r";
    case SystemType::kStock80211r: return "stock_80211r";
  }
  return "?";
}

const char* to_string(TrafficType t) {
  switch (t) {
    case TrafficType::kTcpDownlink: return "tcp_downlink";
    case TrafficType::kUdpDownlink: return "udp_downlink";
    case TrafficType::kUdpUplink: return "udp_uplink";
  }
  return "?";
}

RunReport make_run_report(std::string label, const DriveScenarioConfig& cfg,
                          const DriveResult& result, double wall_ms) {
  RunReport r;
  r.label = std::move(label);
  r.system = to_string(cfg.system);
  r.traffic = to_string(cfg.traffic);
  r.policy = cfg.system == SystemType::kWgtt
                 ? cfg.wgtt.controller.policy.to_string()
                 : "client_roam";
  r.speed_mph = cfg.speed_mph;
  r.seed = cfg.seed;
  r.num_clients = cfg.num_clients;
  r.goodput_mbps = result.mean_goodput_mbps();
  r.switches = result.switches.size();
  r.medium_utilization = result.medium_utilization;
  r.wall_ms = wall_ms;
  r.metrics = result.metrics;
  r.profile = result.profile;
  r.health_windows = result.health_windows;
  r.health_checks = result.health_checks;
  r.health_violations = result.health_violations;
  r.health_errors = result.health_errors;
  r.health_in_flight = result.health_in_flight;
  if (!result.clients.empty()) {
    double loss = 0.0;
    double acc = 0.0;
    for (const auto& c : result.clients) {
      loss += c.udp_loss_rate;
      acc += c.switching_accuracy;
      r.handovers += c.handovers;
      r.failed_handovers += c.failed_handovers;
    }
    const auto n = static_cast<double>(result.clients.size());
    r.udp_loss_rate = loss / n;
    r.switching_accuracy = acc / n;
  }
  return r;
}

std::string SweepReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("bench", bench_id);
  w.field("title", title);
  w.field("jobs", jobs);
  w.field("wall_ms", wall_ms);
  w.key("summary").begin_object();
  for (const auto& [k, v] : summary) w.field(k, v);
  w.end_object();
  w.key("runs").begin_array();
  for (const RunReport& r : runs) {
    w.begin_object();
    w.field("label", r.label);
    w.field("system", r.system);
    w.field("traffic", r.traffic);
    w.field("policy", r.policy);
    w.field("speed_mph", r.speed_mph);
    w.field("seed", r.seed);
    w.field("num_clients", r.num_clients);
    w.field("goodput_mbps", r.goodput_mbps);
    w.field("udp_loss_rate", r.udp_loss_rate);
    w.field("switching_accuracy", r.switching_accuracy);
    w.field("switches", r.switches);
    w.field("handovers", r.handovers);
    w.field("failed_handovers", r.failed_handovers);
    w.field("medium_utilization", r.medium_utilization);
    w.field("wall_ms", r.wall_ms);
    if (!r.extra.empty()) {
      w.key("extra").begin_object();
      for (const auto& [k, v] : r.extra) w.field(k, v);
      w.end_object();
    }
    if (!r.metrics.empty()) {
      w.key("metrics");
      r.metrics.write_json(w);
    }
    if (!r.profile.empty()) {
      w.key("profile");
      r.profile.write_json(w);
    }
    if (r.health_checks > 0) {
      w.key("health").begin_object();
      w.field("windows", r.health_windows);
      w.field("checks", r.health_checks);
      w.field("violations", r.health_violations);
      w.field("errors", r.health_errors);
      w.field("in_flight", r.health_in_flight);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace wgtt::scenario
