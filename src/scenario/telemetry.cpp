#include "scenario/telemetry.h"

#include <cmath>

#include "obs/context.h"
#include "util/trace.h"

namespace wgtt::scenario {

std::string format_fixed(double v, int decimals) {
  if (!std::isfinite(v)) return "nan";
  long long scale = 1;
  for (int i = 0; i < decimals; ++i) scale *= 10;
  const long long scaled = std::llround(v * static_cast<double>(scale));
  const bool neg = scaled < 0;
  unsigned long long mag =
      neg ? -static_cast<unsigned long long>(scaled)
          : static_cast<unsigned long long>(scaled);
  std::string out;
  if (neg) out += '-';
  out += std::to_string(mag / static_cast<unsigned long long>(scale));
  if (decimals > 0) {
    out += '.';
    const std::string frac =
        std::to_string(mag % static_cast<unsigned long long>(scale));
    out.append(static_cast<std::size_t>(decimals) - frac.size(), '0');
    out += frac;
  }
  return out;
}

std::size_t TelemetryTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  return npos;
}

std::string TelemetryTable::to_csv() const {
  std::string out = "t_us";
  for (const ColumnSpec& c : columns) {
    out += ',';
    out += c.name;
  }
  out += '\n';
  for (std::size_t r = 0; r < times.size(); ++r) {
    out += trace::Tracer::format_ts(times[r]);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out += ',';
      out += format_fixed(rows[r][c], columns[c].decimals);
    }
    out += '\n';
  }
  return out;
}

TelemetrySampler::TelemetrySampler(sim::Scheduler& sched, Time period)
    : sched_(sched), period_(period) {
  if (auto* p = obs::Context::current().profiler) {
    p_sample_ = &p->section("scenario.telemetry");
  }
}

void TelemetrySampler::add_column(std::string name, int decimals,
                                  std::function<double()> probe) {
  table_.columns.push_back({std::move(name), decimals});
  probes_.push_back(std::move(probe));
}

void TelemetrySampler::start() {
  if (started_) return;
  started_ = true;
  tick();
}

void TelemetrySampler::tick() {
  {
    prof::ScopedSection timer(p_sample_);
    table_.times.push_back(sched_.now());
    std::vector<double> row;
    row.reserve(probes_.size());
    for (const auto& probe : probes_) row.push_back(probe());
    table_.rows.push_back(std::move(row));
  }
  sched_.schedule(period_, [this]() { tick(); });
}

}  // namespace wgtt::scenario
