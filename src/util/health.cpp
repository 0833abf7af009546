#include "util/health.h"

#include <cmath>
#include <cstdio>


namespace wgtt::obs {

namespace {

/// Fixed-point rendering with exactly 3 decimals, computed with integer
/// arithmetic (llround of the scaled value) — deterministic across
/// platforms, unlike printf's shortest-round-trip formats.
void put_fixed3(Line& line, double v) {
  if (!std::isfinite(v)) {
    line.lit("0.000");
    return;
  }
  const bool neg = v < 0.0;
  const long long scaled = std::llround(std::fabs(v) * 1000.0);
  const long long whole = scaled / 1000;
  const long long frac = scaled % 1000;
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "%s%lld.%03lld",
                              neg ? "-" : "", whole, frac);
  line.str({buf, static_cast<std::size_t>(n)});
}

void put_escaped(Line& line, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') line.ch('\\');
    line.ch(c);
  }
}

}  // namespace

HealthEngine::HealthEngine(HealthConfig cfg,
                           const metrics::MetricsRegistry* metrics)
    : cfg_(cfg),
      out_("wgtt.health", cfg.fault_aware ? kHealthSchemaVersionFaultAware
                                          : kHealthSchemaVersion),
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
  close_outage({client, it->second, t, false});
  open_outages_.erase(it);
}

void HealthEngine::close_outage(const OutageRecord& rec) {
  Line(out_)
      .lit("{\"kind\":\"outage\",\"client\":")
      .num(rec.client)
      .lit(",\"begin_us\":")
      .ts(rec.begin)
      .lit(",\"end_us\":")
      .ts(rec.end)
      .str(rec.open ? ",\"open\":true}\n" : ",\"open\":false}\n");
  outages_.push_back(rec);
}

void HealthEngine::fault_mark(Time t, const char* kind, std::uint32_t node,
                              bool active) {
  if (!cfg_.fault_aware) return;
  Line line(out_);
  line.lit("{\"kind\":\"fault\",\"t_us\":").ts(t).lit(",\"fault\":\"");
  put_escaped(line, kind);
  line.lit("\",\"node\":")
      .num(node)
      .lit(",\"active\":")
      .str(active ? "true}\n" : "false}\n");
}

void HealthEngine::add_gauge(std::string name, std::function<double()> probe,
                             double ceiling) {
  gauges_.push_back({std::move(name), std::move(probe), ceiling});
}

void HealthEngine::append_window_line(const HealthWindow& w) {
  Line line(out_);
  line.lit("{\"kind\":\"window\",\"t_us\":")
      .ts(w.t)
      .lit(",\"sent\":")
      .num(w.sent)
      .lit(",\"copies\":")
      .num(w.copies)
      .lit(",\"delivered\":")
      .num(w.delivered)
      .lit(",\"retired\":")
      .num(w.retired)
      .lit(",\"dropped\":")
      .num(w.dropped)
      .lit(",\"in_flight\":")
      .num(w.in_flight)
      .lit(",\"gauges\":{");
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i > 0) line.ch(',');
    line.ch('"');
    put_escaped(line, gauges_[i].name);
    line.lit("\":");
    put_fixed3(line, w.gauges[i]);
  }
  line.lit("}}\n");
}

void HealthEngine::violate(std::string watchdog, std::string severity, Time t,
                           double value, double limit, std::string detail) {
  Line line(out_);
  line.lit("{\"kind\":\"violation\",\"t_us\":")
      .ts(t)
      .lit(",\"watchdog\":\"");
  put_escaped(line, watchdog);
  line.lit("\",\"severity\":\"");
  put_escaped(line, severity);
  line.lit("\",\"value\":");
  put_fixed3(line, value);
  line.lit(",\"limit\":");
  put_fixed3(line, limit);
  line.lit(",\"detail\":\"");
  put_escaped(line, detail);
  line.lit("\"}\n");
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
    close_outage({client, begin, t, true});
  }
  const std::size_t unconverged = open_outages_.size();
  open_outages_.clear();
  Line line(out_);
  line.lit("{\"kind\":\"summary\",\"t_us\":")
      .ts(t)
      .lit(",\"windows\":")
      .num(windows_closed_)
      .lit(",\"checks\":")
      .num(checks_)
      .lit(",\"violations\":")
      .num(violations_.size())
      .lit(",\"sent\":")
      .num(sent_)
      .lit(",\"copies\":")
      .num(copies_)
      .lit(",\"delivered\":")
      .num(delivered_)
      .lit(",\"retired\":")
      .num(retired_)
      .lit(",\"dropped\":")
      .num(dropped_)
      .lit(",\"in_flight\":")
      .num(in_flight());
  if (cfg_.fault_aware) {
    line.lit(",\"outages\":")
        .num(outages_.size())
        .lit(",\"unconverged\":")
        .num(unconverged);
  }
  line.lit("}\n");
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
