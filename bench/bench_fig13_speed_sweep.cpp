// Paper Fig. 13: TCP and UDP throughput vs client speed (0-35 mph),
// WGTT vs Enhanced 802.11r.
//
// The headline result: 2.4-4.7x TCP and 2.6-4.0x UDP improvement at driving
// speeds, with WGTT staying roughly flat as speed increases while the
// baseline collapses.
//
// The 28 simulations (7 speeds x 2 traffic types x 2 systems) run through
// SweepRunner on all cores; metrics are identical to the serial loop this
// bench used to be, and BENCH_fig13_speed_sweep.json records every run plus
// the parallel speedup achieved.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace wgtt;

namespace {

constexpr double kSpeeds[] = {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 35.0};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 13", "TCP/UDP throughput vs driving speed");

  // Config order: (speed major, then traffic, then system) — the same
  // deterministic order the serial version ran, so run i is comparable
  // across serial and parallel executions.
  std::vector<scenario::DriveScenarioConfig> configs;
  for (double mph : kSpeeds) {
    for (int traffic = 0; traffic < 2; ++traffic) {
      for (int sys = 0; sys < 2; ++sys) {
        scenario::DriveScenarioConfig cfg;
        cfg.speed_mph = mph;
        cfg.seed = 42;
        cfg.traffic = traffic == 0 ? scenario::TrafficType::kTcpDownlink
                                   : scenario::TrafficType::kUdpDownlink;
        cfg.system = sys == 0 ? scenario::SystemType::kWgtt
                              : scenario::SystemType::kEnhanced80211r;
        configs.push_back(cfg);
      }
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "fig13_speed_sweep");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %zu drives on %zu threads...\n", configs.size(),
              runner.jobs());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "fig13_speed_sweep";
  report.title = "TCP/UDP throughput vs driving speed";
  report.note_outcome(outcome);

  std::printf("\n%-7s %-12s %-12s %-7s %-12s %-12s %-7s\n", "speed",
              "TCP WGTT", "TCP 802.11r", "ratio", "UDP WGTT", "UDP 802.11r",
              "ratio");
  double serial_ms = 0.0;
  for (std::size_t s = 0; s < std::size(kSpeeds); ++s) {
    double tput[2][2];  // [tcp/udp][wgtt/baseline]
    for (int traffic = 0; traffic < 2; ++traffic) {
      for (int sys = 0; sys < 2; ++sys) {
        const std::size_t i = s * 4 + static_cast<std::size_t>(traffic) * 2 +
                              static_cast<std::size_t>(sys);
        const scenario::SweepRun& run = outcome.runs[i];
        tput[traffic][sys] = run.result.mean_goodput_mbps();
        serial_ms += run.wall_ms;
        char label[64];
        std::snprintf(label, sizeof label, "%s/%s/%.0fmph",
                      traffic == 0 ? "tcp" : "udp",
                      sys == 0 ? "wgtt" : "80211r", kSpeeds[s]);
        report.runs.push_back(scenario::make_run_report(
            label, configs[i], run.result, run.wall_ms));
      }
    }
    std::printf("%-5.0f   %-12.2f %-12.2f %-7.1f %-12.2f %-12.2f %-7.1f\n",
                kSpeeds[s], tput[0][0], tput[0][1],
                tput[0][1] > 0.01 ? tput[0][0] / tput[0][1] : 0.0, tput[1][0],
                tput[1][1],
                tput[1][1] > 0.01 ? tput[1][0] / tput[1][1] : 0.0);
  }
  report.summary.emplace_back("serial_wall_ms_estimate", serial_ms);
  report.summary.emplace_back(
      "parallel_speedup",
      outcome.wall_ms > 0.0 ? serial_ms / outcome.wall_ms : 0.0);

  std::printf("\npaper: WGTT averages 6.6 (TCP) / 8.7 (UDP) Mb/s across\n"
              "speeds; Enhanced 802.11r falls from 2.7/3.3 at 5 mph to\n"
              "0.8/1.9 at 35 mph — a 2.4-4.7x (TCP) and 2.6-4.0x (UDP) gap\n"
              "at driving speeds.\n");
  bench::emit_report(report, args);
  return 0;
}
