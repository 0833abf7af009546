// Paper Fig. 22 / §5.3.3: impact of the AP-switching time hysteresis T.
//
// TCP at 15 mph with T = 40 / 80 / 120 ms.  Claim: throughput never drops
// to zero for any setting (switching still happens), but a smaller T tracks
// the fast-fading channel better and wins — throughput grows as T shrinks.
//
// All 15 drives (3 hysteresis settings x 5 seeds) run in one SweepRunner
// batch; the seed-42 run doubles as the representative timeline, so the
// bench no longer re-simulates it.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace wgtt;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 22", "TCP throughput vs switching hysteresis T");

  constexpr double kHysteresisMs[] = {40.0, 80.0, 120.0};
  constexpr int kRuns = 5;

  std::vector<scenario::DriveScenarioConfig> configs;
  for (double t_ms : kHysteresisMs) {
    for (int s = 0; s < kRuns; ++s) {
      scenario::DriveScenarioConfig cfg;
      cfg.traffic = scenario::TrafficType::kTcpDownlink;
      cfg.speed_mph = 15.0;
      cfg.wgtt.controller.switch_hysteresis = Time::ms(t_ms);
      cfg.seed = 42 + static_cast<unsigned>(s);
      configs.push_back(cfg);
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "fig22_hysteresis");

  const scenario::SweepRunner runner(args.sweep);
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "fig22_hysteresis";
  report.title = "TCP throughput vs switching hysteresis T";
  report.note_outcome(outcome);

  for (std::size_t h = 0; h < std::size(kHysteresisMs); ++h) {
    double goodput = 0.0;
    double accuracy = 0.0;
    std::size_t switches = 0;
    for (int s = 0; s < kRuns; ++s) {
      const std::size_t i = h * kRuns + static_cast<std::size_t>(s);
      const auto& r = outcome.runs[i].result;
      goodput += r.clients.front().goodput_mbps;
      accuracy += r.clients.front().switching_accuracy;
      switches += r.switches.size();
      char label[48];
      std::snprintf(label, sizeof label, "T=%.0fms/seed%llu",
                    kHysteresisMs[h],
                    static_cast<unsigned long long>(configs[i].seed));
      report.runs.push_back(scenario::make_run_report(
          label, configs[i], r, outcome.runs[i].wall_ms));
      report.runs.back().extra.emplace_back("hysteresis_ms", kHysteresisMs[h]);
    }
    std::printf("\n--- T = %.0f ms (avg of %d runs) ---\n", kHysteresisMs[h],
                kRuns);
    std::printf("goodput %.2f Mb/s, %.1f switches/run, accuracy %.1f%%\n",
                goodput / kRuns, static_cast<double>(switches) / kRuns,
                accuracy / kRuns * 100.0);
    // One representative timeline (the paper's time-series panel): the
    // seed-42 run, already in the batch.
    const auto& rep = outcome.runs[h * kRuns].result;
    for (const auto& [t, mbps] : rep.clients.front().throughput_bins) {
      std::printf("  t=%5.1fs %7.2f %s\n", t.to_sec(), mbps,
                  bench::bar(mbps, 25, 24).c_str());
    }
    std::fflush(stdout);
  }
  std::printf("\npaper: all three settings avoid zero-throughput periods;\n"
              "smaller hysteresis adapts faster and yields higher\n"
              "throughput (1.3 -> 6.4 Mb/s at the 2 s mark as T drops\n"
              "from 120 ms to 40 ms).\n");
  bench::emit_report(report, args);
  return 0;
}
