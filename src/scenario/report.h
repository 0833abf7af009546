// Machine-readable bench reports.
//
// Every sweep-shaped bench emits a BENCH_<id>.json next to its
// human-readable table: one RunReport per simulation (the config axes that
// varied, the headline metrics, and the host wall-clock), wrapped in a
// SweepReport carrying the sweep-level aggregates and the parallelism that
// produced them.  The recorded wall_ms/jobs pair is the bench's perf
// trajectory: rerunning after an optimisation (or with more cores) leaves a
// comparable artifact behind.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.h"
#include "scenario/sweep.h"

namespace wgtt::scenario {

const char* to_string(SystemType s);
const char* to_string(TrafficType t);

/// One simulation's row in the report.
struct RunReport {
  std::string label;  // bench-assigned, e.g. "tcp/wgtt/15mph"
  // Config axes.
  std::string system;
  std::string traffic;
  /// Handoff policy (canonical spec, e.g. "median_esnr" or
  /// "bicast:hold_ms=20") for WGTT runs; "client_roam" for the 802.11r
  /// baselines, whose clients pick their own AP.  wgtt-report diff refuses
  /// to compare runs whose policies differ.
  std::string policy;
  double speed_mph = 0.0;
  std::uint64_t seed = 0;
  std::size_t num_clients = 1;
  // Headline metrics (mirrors DriveResult).
  double goodput_mbps = 0.0;
  double udp_loss_rate = 0.0;
  double switching_accuracy = 0.0;
  std::size_t switches = 0;
  std::size_t handovers = 0;
  std::size_t failed_handovers = 0;
  double medium_utilization = 0.0;
  double wall_ms = 0.0;
  /// Bench-specific scalars (e.g. dense/sparse region throughput).
  std::vector<std::pair<std::string, double>> extra;
  /// Full instrument snapshot from the run's MetricsRegistry (counters,
  /// gauges, histograms); serialized as the run's "metrics" object.
  metrics::Snapshot metrics;
  /// Per-section host self-time from the run's Profiler; serialized as the
  /// run's "profile" object (where the simulator's CPU went).
  prof::ProfileSnapshot profile;
  /// Runtime health rollup (nonzero only when the run enabled health);
  /// serialized as the run's "health" object.
  std::uint64_t health_windows = 0;
  std::uint64_t health_checks = 0;
  std::uint64_t health_violations = 0;
  std::uint64_t health_errors = 0;
  std::int64_t health_in_flight = 0;
};

/// Populate a RunReport from a finished run.  `label` is free-form.
RunReport make_run_report(std::string label, const DriveScenarioConfig& cfg,
                          const DriveResult& result, double wall_ms = 0.0);

struct SweepReport {
  std::string bench_id;  // e.g. "fig13_speed_sweep"
  std::string title;
  std::size_t jobs = 1;
  double wall_ms = 0.0;
  /// Sweep-level aggregates (e.g. "tcp_speedup_vs_baseline").
  std::vector<std::pair<std::string, double>> summary;
  std::vector<RunReport> runs;

  /// Record sweep-level execution facts from a SweepOutcome.
  void note_outcome(const SweepOutcome& outcome) {
    jobs = outcome.jobs;
    wall_ms = outcome.wall_ms;
  }

  std::string to_json() const;
};

}  // namespace wgtt::scenario
