// Paper Table 2: switching accuracy — the fraction of time the handover
// algorithm uses the optimal AP (max instantaneous ESNR) — for TCP and UDP
// flows at 15 mph.
//
// Paper: WGTT 90.12 % (TCP) / 91.38 % (UDP); Enhanced 802.11r 20.24 % /
// 18.72 %.  The four drives run in parallel via SweepRunner and the table
// is also emitted as BENCH_table2_accuracy.json.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace wgtt;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Table 2", "switching accuracy at 15 mph (optimal-AP match)");

  const scenario::SystemType systems[] = {scenario::SystemType::kWgtt,
                                          scenario::SystemType::kEnhanced80211r};
  const scenario::TrafficType traffics[] = {
      scenario::TrafficType::kTcpDownlink, scenario::TrafficType::kUdpDownlink};

  std::vector<scenario::DriveScenarioConfig> configs;
  for (auto traffic : traffics) {
    for (auto sys : systems) {
      scenario::DriveScenarioConfig cfg;
      cfg.system = sys;
      cfg.traffic = traffic;
      cfg.speed_mph = 15.0;
      cfg.udp_offered_mbps = 20.0;
      cfg.seed = 42;
      configs.push_back(cfg);
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "table2_accuracy");

  const scenario::SweepRunner runner(args.sweep);
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "table2_accuracy";
  report.title = "switching accuracy at 15 mph";
  report.note_outcome(outcome);
  auto accuracy = [&](std::size_t i) {
    report.runs.push_back(scenario::make_run_report(
        std::string(scenario::to_string(configs[i].traffic)) + "/" +
            scenario::to_string(configs[i].system),
        configs[i], outcome.runs[i].result, outcome.runs[i].wall_ms));
    return outcome.runs[i].result.clients.front().switching_accuracy * 100.0;
  };

  std::printf("\n%-6s %-12s %-20s\n", "", "WGTT (%)", "Enhanced 802.11r (%)");
  std::printf("%-6s %-12.2f %-20.2f\n", "TCP", accuracy(0), accuracy(1));
  std::printf("%-6s %-12.2f %-20.2f\n", "UDP", accuracy(2), accuracy(3));
  std::printf("\npaper: WGTT 90.12 / 91.38; Enhanced 802.11r 20.24 / 18.72.\n");
  bench::emit_report(report, args);
  return 0;
}
