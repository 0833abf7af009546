// Large-area deployment scaling (paper §7: "we plan a large deployment and
// a large-scale measurement study, e.g., measuring the achievable network
// capacity").
//
// Sweeps the corridor length (8 -> 32 APs) and the client count, measuring
// per-client and aggregate UDP capacity.  Picocells re-use the spectrum
// along the road, so aggregate capacity should grow once clients are spread
// out beyond carrier-sense range of each other — the capacity argument that
// motivates the whole system (§1, Cooper's law).
//
// Both sweeps run as one SweepRunner batch (the corridor runs are the
// slowest in the suite, so parallelism pays off most here); results land in
// BENCH_scaleout.json.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace wgtt;

namespace {

scenario::TestbedConfig corridor(std::size_t aps) {
  scenario::TestbedConfig tb;
  tb.ap_x.clear();
  for (std::size_t i = 0; i < aps; ++i) {
    tb.ap_x.push_back(static_cast<double>(i) * 7.5);
  }
  return tb;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Scale-out (§7)", "corridor length and client count sweep");

  constexpr std::size_t kCorridors[] = {8, 16, 24, 32};
  constexpr std::size_t kClientCounts[] = {1, 2, 3, 4};

  std::vector<scenario::DriveScenarioConfig> configs;
  for (std::size_t aps : kCorridors) {
    scenario::DriveScenarioConfig cfg;
    cfg.testbed = corridor(aps);
    cfg.traffic = scenario::TrafficType::kUdpDownlink;
    cfg.speed_mph = 15.0;
    cfg.seed = 42;
    configs.push_back(cfg);
  }
  for (std::size_t n : kClientCounts) {
    scenario::DriveScenarioConfig cfg;
    cfg.testbed = corridor(24);
    cfg.traffic = scenario::TrafficType::kUdpDownlink;
    cfg.udp_offered_mbps = 15.0;
    cfg.speed_mph = 15.0;
    cfg.num_clients = n;
    cfg.pattern = scenario::MultiClientPattern::kFollowing;
    cfg.following_gap_m = 45.0;  // ~6 cells apart: out of mutual CS range
    cfg.seed = 42;
    configs.push_back(cfg);
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "scaleout");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %zu drives on %zu threads...\n", configs.size(),
              runner.jobs());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "scaleout";
  report.title = "corridor length and client count sweep";
  report.note_outcome(outcome);

  std::printf("\n-- corridor length (1 client, UDP 15 Mb/s, 15 mph) --\n");
  std::printf("%-8s %10s %12s %12s\n", "APs", "Mb/s", "accuracy",
              "switches");
  for (std::size_t c = 0; c < std::size(kCorridors); ++c) {
    const auto& r = outcome.runs[c].result;
    std::printf("%-8zu %10.2f %11.1f%% %12zu\n", kCorridors[c],
                r.mean_goodput_mbps(),
                r.clients[0].switching_accuracy * 100.0, r.switches.size());
    report.runs.push_back(scenario::make_run_report(
        "corridor/" + std::to_string(kCorridors[c]) + "aps", configs[c], r,
        outcome.runs[c].wall_ms));
    report.runs.back().extra.emplace_back(
        "aps", static_cast<double>(kCorridors[c]));
  }

  std::printf("\n-- spatial reuse: clients spread along a 24-AP corridor --\n");
  std::printf("%-9s %14s %16s\n", "clients", "per-client Mb/s",
              "aggregate Mb/s");
  for (std::size_t c = 0; c < std::size(kClientCounts); ++c) {
    const std::size_t i = std::size(kCorridors) + c;
    const auto& r = outcome.runs[i].result;
    const double per_client = r.mean_goodput_mbps();
    std::printf("%-9zu %14.2f %16.2f\n", kClientCounts[c], per_client,
                per_client * static_cast<double>(kClientCounts[c]));
    report.runs.push_back(scenario::make_run_report(
        "reuse/" + std::to_string(kClientCounts[c]) + "clients", configs[i],
        r, outcome.runs[i].wall_ms));
    report.runs.back().extra.emplace_back(
        "aggregate_mbps",
        per_client * static_cast<double>(kClientCounts[c]));
  }

  std::printf("\nexpected: per-client throughput holds as the corridor grows\n"
              "(switching cost is local), and aggregate capacity scales\n"
              "nearly linearly with well-separated clients — the picocell\n"
              "spatial-reuse dividend the paper's introduction argues for.\n");
  bench::emit_report(report, args);
  return 0;
}
