// Periodic telemetry sampling on the simulated clock.
//
// The paper's headline figures are time series — Fig. 2's per-AP ESNR traces,
// Fig. 14/15's TCP/UDP throughput timelines across switches — so the
// simulator needs one shared mechanism that samples live signals (median
// ESNR per (client, AP), the selected AP, instantaneous goodput, AP queue
// backlog, TCP cwnd/retransmissions) on a fixed simulated-clock period and
// renders them as columnar CSV.
//
// A TelemetrySampler is owned by the Testbed (enabled via TestbedConfig);
// experiments register probe columns, the sampler ticks every `period`, and
// the in-memory table is copied into DriveResult, from which benches print
// figures and write the CSV.  All CSV numbers are fixed-point renderings
// computed with integer arithmetic (timestamps via the tracer's formatter),
// so a fixed-seed run produces a byte-identical file on any platform.
// Probes only observe: the sampler's events interleave with the
// simulation's, but reading state never changes it — and with telemetry
// off no events are scheduled at all.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scheduler.h"
#include "util/profiler.h"
#include "util/time.h"

namespace wgtt::scenario {

/// Render `v` with exactly `decimals` fixed decimal places using integer
/// arithmetic (llround of the scaled value) — deterministic across platforms,
/// unlike printf's shortest-round-trip formats.  Non-finite values render as
/// "nan".
std::string format_fixed(double v, int decimals);

/// The sampled data, independent of the sampler: column specs, one timestamp
/// per row, and a dense row-major value matrix.
struct TelemetryTable {
  struct ColumnSpec {
    std::string name;
    int decimals = 3;
  };
  std::vector<ColumnSpec> columns;
  std::vector<Time> times;
  std::vector<std::vector<double>> rows;  // rows[i].size() == columns.size()

  bool empty() const { return times.empty(); }
  std::size_t row_count() const { return times.size(); }
  /// Index of a column by name, or npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t column_index(std::string_view name) const;

  /// Header "t_us,<col>,..." then one line per row; timestamps are the
  /// tracer's integer-formatted microseconds, values fixed-point per column.
  std::string to_csv() const;
};

class TelemetrySampler {
 public:
  TelemetrySampler(sim::Scheduler& sched, Time period);
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Register a probe before start(); sampled left-to-right in registration
  /// order on every tick.
  void add_column(std::string name, int decimals,
                  std::function<double()> probe);

  /// Take the first sample now and re-sample every period() until the
  /// simulation ends.  Idempotent.
  void start();

  Time period() const { return period_; }
  bool started() const { return started_; }
  const TelemetryTable& table() const { return table_; }
  std::string to_csv() const { return table_.to_csv(); }

 private:
  void tick();

  sim::Scheduler& sched_;
  Time period_;
  std::vector<std::function<double()>> probes_;
  TelemetryTable table_;
  bool started_ = false;
  prof::Section* p_sample_ = nullptr;
};

}  // namespace wgtt::scenario
