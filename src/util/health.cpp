#include "util/health.h"

#include <cmath>
#include <cstdio>

#include "util/jsonl.h"
#include "util/trace.h"

namespace wgtt::obs {

namespace {

/// Fixed-point rendering with exactly 3 decimals, computed with integer
/// arithmetic (llround of the scaled value) — deterministic across
/// platforms, unlike printf's shortest-round-trip formats.
std::string format_fixed3(double v) {
  if (!std::isfinite(v)) return "0.000";
  const bool neg = v < 0.0;
  const long long scaled = std::llround(std::fabs(v) * 1000.0);
  const long long whole = scaled / 1000;
  const long long frac = scaled % 1000;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", neg ? "-" : "", whole,
                frac);
  return buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

HealthEngine::HealthEngine(HealthConfig cfg,
                           const metrics::MetricsRegistry* metrics)
    : cfg_(cfg),
      out_(jsonl_document("wgtt.health",
                          cfg.fault_aware ? kHealthSchemaVersionFaultAware
                                          : kHealthSchemaVersion,
                          1 << 14)),
      metrics_(metrics) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
}

void HealthEngine::client_stranded(std::uint32_t client, bool stranded,
                                   Time t) {
  if (!cfg_.fault_aware) return;
  auto it = open_outages_.find(client);
  if (stranded) {
    if (it == open_outages_.end()) open_outages_.emplace(client, t);
    return;
  }
  if (it == open_outages_.end()) return;
  OutageRecord rec{client, it->second, t, false};
  open_outages_.erase(it);
  out_ += "{\"kind\":\"outage\",\"client\":";
  out_ += std::to_string(rec.client);
  out_ += ",\"begin_us\":";
  out_ += trace::Tracer::format_ts(rec.begin);
  out_ += ",\"end_us\":";
  out_ += trace::Tracer::format_ts(rec.end);
  out_ += ",\"open\":false}\n";
  outages_.push_back(rec);
}

void HealthEngine::fault_mark(Time t, const char* kind, std::uint32_t node,
                              bool active) {
  if (!cfg_.fault_aware) return;
  out_ += "{\"kind\":\"fault\",\"t_us\":";
  out_ += trace::Tracer::format_ts(t);
  out_ += ",\"fault\":\"";
  append_escaped(out_, kind);
  out_ += "\",\"node\":";
  out_ += std::to_string(node);
  out_ += ",\"active\":";
  out_ += active ? "true" : "false";
  out_ += "}\n";
  if (!active) last_fault_clear_ = t;
}

void HealthEngine::add_gauge(std::string name, std::function<double()> probe,
                             double ceiling) {
  gauges_.push_back({std::move(name), std::move(probe), ceiling});
}

void HealthEngine::append_window_line(const HealthWindow& w) {
  out_ += "{\"kind\":\"window\",\"t_us\":";
  out_ += trace::Tracer::format_ts(w.t);
  out_ += ",\"sent\":";
  out_ += std::to_string(w.sent);
  out_ += ",\"copies\":";
  out_ += std::to_string(w.copies);
  out_ += ",\"delivered\":";
  out_ += std::to_string(w.delivered);
  out_ += ",\"retired\":";
  out_ += std::to_string(w.retired);
  out_ += ",\"dropped\":";
  out_ += std::to_string(w.dropped);
  out_ += ",\"in_flight\":";
  out_ += std::to_string(w.in_flight);
  out_ += ",\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i > 0) out_ += ",";
    out_ += "\"";
    append_escaped(out_, gauges_[i].name);
    out_ += "\":";
    out_ += format_fixed3(w.gauges[i]);
  }
  out_ += "}}\n";
}

void HealthEngine::violate(std::string watchdog, std::string severity, Time t,
                           double value, double limit, std::string detail) {
  out_ += "{\"kind\":\"violation\",\"t_us\":";
  out_ += trace::Tracer::format_ts(t);
  out_ += ",\"watchdog\":\"";
  append_escaped(out_, watchdog);
  out_ += "\",\"severity\":\"";
  append_escaped(out_, severity);
  out_ += "\",\"value\":";
  out_ += format_fixed3(value);
  out_ += ",\"limit\":";
  out_ += format_fixed3(limit);
  out_ += ",\"detail\":\"";
  append_escaped(out_, detail);
  out_ += "\"}\n";
  violations_.push_back({std::move(watchdog), std::move(severity), t, value,
                         limit, std::move(detail)});
}

void HealthEngine::run_watchdogs(const HealthWindow& w) {
  // 1. Packet conservation: every instance that came into existence must be
  // accounted for; a negative balance means double-termination.
  ++checks_;
  if (w.in_flight < 0) {
    violate("packet_conservation", "error", w.t,
            static_cast<double>(w.in_flight), 0.0,
            "ledger in_flight went negative (double-terminated instances)");
  }
  // 2. In-flight ceiling: monotone in_flight growth is the signature of a
  // drop site missing its ledger mirror (a packet leak).
  if (cfg_.max_in_flight > 0) {
    ++checks_;
    if (w.in_flight > static_cast<std::int64_t>(cfg_.max_in_flight)) {
      violate("in_flight_ceiling", "error", w.t,
              static_cast<double>(w.in_flight),
              static_cast<double>(cfg_.max_in_flight),
              "in-flight instances exceed the configured ceiling "
              "(unterminated packets are accumulating)");
    }
  }
  // 3. Bounded gauges: any registered gauge with a ceiling must stay under
  // it (queue depths, pool census, log cardinality).
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].ceiling <= 0.0) continue;
    ++checks_;
    if (w.gauges[i] > gauges_[i].ceiling) {
      violate("bounded_gauge", "warn", w.t, w.gauges[i], gauges_[i].ceiling,
              "gauge " + gauges_[i].name + " above its ceiling");
    }
  }
  // 4 + 5. Metrics-registry invariants: counters are monotone by contract
  // (saturating, never decreasing), and the controller's liveness FSM never
  // reacts (failover / quarantine) more often than it suspects.
  if (metrics_ != nullptr) {
    std::uint64_t suspects = 0, failovers = 0, quarantines = 0;
    const metrics::Snapshot snap = metrics_->snapshot();
    for (const auto& [name, value] : snap.counters) {
      ++checks_;
      auto it = prev_counters_.find(name);
      if (it != prev_counters_.end() && value < it->second) {
        violate("monotone_counters", "error", w.t,
                static_cast<double>(value), static_cast<double>(it->second),
                "counter " + name + " decreased between windows");
      }
      prev_counters_[name] = value;
      if (name == "controller.liveness.suspects") suspects = value;
      if (name == "controller.liveness.failovers") failovers = value;
      if (name == "controller.liveness.quarantines") quarantines = value;
    }
    ++checks_;
    if (failovers > suspects || quarantines > suspects) {
      violate("liveness_fsm", "error", w.t,
              static_cast<double>(failovers > suspects ? failovers
                                                       : quarantines),
              static_cast<double>(suspects),
              "liveness reactions outnumber suspect events");
    }
  }
}

void HealthEngine::on_window_close(Time t) {
  HealthWindow w;
  w.t = t;
  w.sent = sent_;
  w.copies = copies_;
  w.delivered = delivered_;
  w.retired = retired_;
  w.dropped = dropped_;
  w.in_flight = in_flight();
  w.gauges.reserve(gauges_.size());
  for (const GaugeSlot& g : gauges_) w.gauges.push_back(g.probe());

  append_window_line(w);
  run_watchdogs(w);

  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(std::move(w));
  } else {
    ring_[ring_next_ % cfg_.ring_capacity] = std::move(w);
  }
  ++ring_next_;
  ++windows_closed_;
}

void HealthEngine::finalize(Time t) {
  if (finalized_) return;
  finalized_ = true;
  // Flush still-open outages: a client stranded at teardown is exactly what
  // the convergence gate must see, so each one becomes an open=true record.
  for (const auto& [client, begin] : open_outages_) {
    OutageRecord rec{client, begin, t, true};
    out_ += "{\"kind\":\"outage\",\"client\":";
    out_ += std::to_string(rec.client);
    out_ += ",\"begin_us\":";
    out_ += trace::Tracer::format_ts(rec.begin);
    out_ += ",\"end_us\":";
    out_ += trace::Tracer::format_ts(rec.end);
    out_ += ",\"open\":true}\n";
    outages_.push_back(rec);
  }
  const std::size_t unconverged = open_outages_.size();
  open_outages_.clear();
  out_ += "{\"kind\":\"summary\",\"t_us\":";
  out_ += trace::Tracer::format_ts(t);
  out_ += ",\"windows\":";
  out_ += std::to_string(windows_closed_);
  out_ += ",\"checks\":";
  out_ += std::to_string(checks_);
  out_ += ",\"violations\":";
  out_ += std::to_string(violations_.size());
  out_ += ",\"sent\":";
  out_ += std::to_string(sent_);
  out_ += ",\"copies\":";
  out_ += std::to_string(copies_);
  out_ += ",\"delivered\":";
  out_ += std::to_string(delivered_);
  out_ += ",\"retired\":";
  out_ += std::to_string(retired_);
  out_ += ",\"dropped\":";
  out_ += std::to_string(dropped_);
  out_ += ",\"in_flight\":";
  out_ += std::to_string(in_flight());
  if (cfg_.fault_aware) {
    out_ += ",\"outages\":";
    out_ += std::to_string(outages_.size());
    out_ += ",\"unconverged\":";
    out_ += std::to_string(unconverged);
  }
  out_ += "}\n";
}

std::vector<HealthWindow> HealthEngine::windows() const {
  std::vector<HealthWindow> out;
  const std::size_t n = ring_.size();
  out.reserve(n);
  // Oldest first: once the ring has wrapped, ring_next_ points past the
  // newest entry, so the oldest lives at ring_next_ % capacity.
  const std::size_t start = ring_next_ >= n ? ring_next_ - n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % cfg_.ring_capacity]);
  }
  return out;
}

}  // namespace wgtt::obs
