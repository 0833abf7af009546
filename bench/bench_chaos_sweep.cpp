// Chaos sweep: WGTT goodput under injected infrastructure faults.
//
// Not a paper figure — a robustness gate.  Each run drives a TCP downlink
// client through the 8-AP testbed while a deterministic FaultPlan::chaos
// schedule crashes APs, degrades backhaul links, and corrupts CSI reports at
// a configurable intensity (faults per simulated second).  The interesting
// outputs are how gracefully goodput degrades as intensity rises and that
// intensity 0 reproduces the fault-free numbers exactly (the injector is
// never constructed for an empty plan).
//
// The sweep (2 speeds x 4 intensities) runs through SweepRunner on all
// cores; BENCH_chaos_sweep.json records every run for the CI perf gate
// (bench/baselines/chaos.json).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "sim/fault_plan.h"
#include "util/units.h"

using namespace wgtt;

namespace {

constexpr double kSpeeds[] = {15.0, 35.0};
constexpr double kIntensities[] = {0.0, 0.5, 1.0, 2.0};  // faults per sim-sec

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Chaos", "goodput under injected infrastructure faults");

  std::vector<scenario::DriveScenarioConfig> configs;
  for (double mph : kSpeeds) {
    for (double intensity : kIntensities) {
      scenario::DriveScenarioConfig cfg;
      cfg.speed_mph = mph;
      cfg.seed = 42;
      cfg.traffic = scenario::TrafficType::kTcpDownlink;
      cfg.system = scenario::SystemType::kWgtt;
      if (intensity > 0.0) {
        // Fault horizon = the transit time for this speed (road span plus
        // the default 15 m lead-in/out), matching run_drive's duration.
        const double road_m = 65.5 + 2.0 * 15.0;
        const Time horizon = Time::sec(road_m / mph_to_mps(mph));
        cfg.testbed.faults = sim::FaultPlan::chaos(
            intensity, horizon,
            static_cast<std::uint32_t>(cfg.testbed.ap_x.size()), cfg.seed);
      }
      configs.push_back(cfg);
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "chaos_sweep");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %zu drives on %zu threads...\n", configs.size(),
              runner.jobs());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "chaos_sweep";
  report.title = "goodput under injected infrastructure faults";
  report.note_outcome(outcome);

  std::printf("\n%-7s %-11s %-8s %-14s %-10s\n", "speed", "intensity",
              "faults", "goodput Mb/s", "vs clean");
  double serial_ms = 0.0;
  for (std::size_t s = 0; s < std::size(kSpeeds); ++s) {
    double clean = 0.0;
    for (std::size_t f = 0; f < std::size(kIntensities); ++f) {
      const std::size_t i = s * std::size(kIntensities) + f;
      const scenario::SweepRun& run = outcome.runs[i];
      serial_ms += run.wall_ms;
      const double goodput = run.result.mean_goodput_mbps();
      if (f == 0) clean = goodput;
      char label[64];
      std::snprintf(label, sizeof label, "chaos/%.0fmph/x%.1f", kSpeeds[s],
                    kIntensities[f]);
      report.runs.push_back(scenario::make_run_report(
          label, configs[i], run.result, run.wall_ms));
      std::printf("%-5.0f   %-11.1f %-8zu %-14.2f %-10.2f\n", kSpeeds[s],
                  kIntensities[f], configs[i].testbed.faults.events.size(),
                  goodput, clean > 0.01 ? goodput / clean : 0.0);
    }
  }
  report.summary.emplace_back("serial_wall_ms_estimate", serial_ms);
  report.summary.emplace_back(
      "parallel_speedup",
      outcome.wall_ms > 0.0 ? serial_ms / outcome.wall_ms : 0.0);

  bench::note(
      "intensity 0 builds no injector, so its rows must equal the fault-free "
      "fig13 numbers for the same speed/seed; higher intensities exercise "
      "liveness failover, quarantine backoff, and stale-CSI exclusion.");
  bench::emit_report(report, args);
  return 0;
}
