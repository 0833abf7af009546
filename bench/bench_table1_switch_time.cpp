// Paper Table 1: running time of the switching protocol vs offered load.
//
// The stop(c) -> start(c, k) -> ack round trip measured at the controller,
// for UDP offered loads of 50..90 Mbit/s.  Paper: mean 17-21 ms with 3-5 ms
// standard deviation, roughly independent of load (the cost is user-level
// control processing, not queue length).
//
// The five transits run through SweepRunner and the bench leaves a
// BENCH_table1_switch_time.json report behind (per-run switch-latency
// mean/stddev in "extra"), so wgtt-report can inspect and diff it.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "util/stats.h"

using namespace wgtt;

namespace {

constexpr double kLoadsMbps[] = {50.0, 60.0, 70.0, 80.0, 90.0};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Table 1", "switching protocol execution time vs data rate");

  std::vector<scenario::DriveScenarioConfig> configs;
  for (double mbps : kLoadsMbps) {
    scenario::DriveScenarioConfig cfg;
    cfg.traffic = scenario::TrafficType::kUdpDownlink;
    cfg.udp_offered_mbps = mbps;
    cfg.speed_mph = 15.0;
    cfg.seed = 5;
    configs.push_back(cfg);
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "table1_switch_time");

  const scenario::SweepRunner runner(args.sweep);
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "table1_switch_time";
  report.title = "switching protocol execution time vs data rate";
  report.note_outcome(outcome);

  std::printf("\n%-18s", "Data rate (Mb/s)");
  for (double mbps : kLoadsMbps) std::printf("%8.0f", mbps);
  std::printf("\n");

  std::vector<double> means;
  std::vector<double> stddevs;
  for (std::size_t i = 0; i < std::size(kLoadsMbps); ++i) {
    const scenario::SweepRun& run = outcome.runs[i];
    SampleSet lat;
    for (double ms : run.result.switch_latencies_ms) lat.add(ms);
    means.push_back(lat.mean());
    stddevs.push_back(lat.stddev());
    char label[32];
    std::snprintf(label, sizeof label, "udp/%.0fmbps", kLoadsMbps[i]);
    scenario::RunReport r = scenario::make_run_report(label, configs[i],
                                                      run.result, run.wall_ms);
    r.extra.emplace_back("switch_exec_mean_ms", lat.mean());
    r.extra.emplace_back("switch_exec_stddev_ms", lat.stddev());
    report.runs.push_back(std::move(r));
  }
  std::printf("%-18s", "Mean exec (ms)");
  for (double m : means) std::printf("%8.1f", m);
  std::printf("\n%-18s", "Stddev (ms)");
  for (double s : stddevs) std::printf("%8.1f", s);
  std::printf("\n\npaper: mean 17-21 ms, stddev 3-5 ms, flat across loads.\n");
  bench::emit_report(report, args);
  return 0;
}
