// Soak run: hours of simulated shuttle service under periodic chaos, gated
// by the runtime health engine.
//
// Not a paper figure — a longevity gate.  Two TCP clients shuttle back and
// forth across the 8-AP deployment for --sim-minutes of simulated time while
// a low-intensity FaultPlan::chaos schedule crashes APs and degrades
// backhaul links throughout.  The interesting output is not goodput but the
// health stream: the per-window rollups in HEALTH_soak.jsonl must show flat
// resource trends (no RSS/backlog/ledger drift) and zero watchdog errors no
// matter how long the run is stretched.
//
// The health file is always written (the bench force-enables --health) and
// CI feeds it to `wgtt-report health --strict --baseline
// bench/baselines/soak.json`; regenerate the baseline with
// bench/refresh_baselines.sh after an intentional behaviour change.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "sim/fault_plan.h"
#include "util/units.h"

using namespace wgtt;

namespace {

// Roughly one fault every 20 simulated seconds: enough churn that every
// failover path runs hundreds of times in an hour without the network
// spending most of the run degraded.
constexpr double kChaosIntensity = 0.05;

double parse_sim_minutes(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sim-minutes=", 14) == 0)
      return std::atof(argv[i] + 14);
    if (std::strcmp(argv[i], "--sim-minutes") == 0 && i + 1 < argc)
      return std::atof(argv[i + 1]);
  }
  return 12.0;  // CI default: comfortably past the 10-minute gate floor
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const double sim_minutes = parse_sim_minutes(argc, argv);
  bench::header("Soak", "long-horizon shuttle run under chaos, health-gated");

  scenario::DriveScenarioConfig cfg;
  cfg.speed_mph = 25.0;
  cfg.seed = 42;
  cfg.num_clients = 2;
  cfg.shuttle = true;
  cfg.duration = Time::sec(60.0 * sim_minutes);
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.testbed.faults = sim::FaultPlan::chaos(
      kChaosIntensity, cfg.duration,
      static_cast<std::uint32_t>(cfg.testbed.ap_x.size()), cfg.seed);
  // Healthy steady state keeps 5-15k ledger instances in flight (fan-out
  // copies resident in the 8 cyclic rings dominate); a real leak grows past
  // any constant, so the ceiling just needs headroom over the plateau.
  cfg.testbed.health_max_in_flight = 30000;

  // The whole point of the bench is the health stream, so --health is on by
  // default; --health=PATH / --force still work as usual.
  args.health = true;

  std::vector<scenario::DriveScenarioConfig> configs{cfg};
  args.apply_policy(configs);
  const bench::Outputs outputs = args.apply_outputs(configs.front(), "soak");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %.0f simulated minutes (%zu faults scheduled)...\n",
              sim_minutes, configs.front().testbed.faults.events.size());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);
  const scenario::SweepRun& run = outcome.runs.front();

  scenario::SweepReport report;
  report.bench_id = "soak";
  report.title = "long-horizon shuttle run under chaos, health-gated";
  report.note_outcome(outcome);
  report.runs.push_back(scenario::make_run_report("soak/25mph/chaos",
                                                  configs.front(), run.result,
                                                  run.wall_ms));
  report.summary.emplace_back("sim_minutes", sim_minutes);
  report.summary.emplace_back(
      "faults", static_cast<double>(configs.front().testbed.faults.events.size()));
  report.summary.emplace_back(
      "sim_speedup",
      run.wall_ms > 0.0 ? 60.0 * 1000.0 * sim_minutes / run.wall_ms : 0.0);

  std::printf("\n%-14s %-12s %-10s %-12s %-10s\n", "sim minutes", "goodput",
              "switches", "windows", "in-flight");
  std::printf("%-14.0f %-12.2f %-10zu %-12llu %-10lld\n", sim_minutes,
              run.result.mean_goodput_mbps(), run.result.switches.size(),
              static_cast<unsigned long long>(run.result.health_windows),
              static_cast<long long>(run.result.health_in_flight));

  bench::note(
      "gate on the health stream, not goodput: `wgtt-report health "
      "HEALTH_soak.jsonl --strict` must report flat drift slopes and zero "
      "watchdog errors however large --sim-minutes is.");
  bench::emit_report(report, args);
  return 0;
}
