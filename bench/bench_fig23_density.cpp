// Paper Fig. 23 / §5.3.4: impact of AP density.
//
// UDP throughput while the client transits the densely deployed stretch
// (AP2-AP4, 7.5 m spacing) versus the sparse stretch (AP5-AP7, 12 m),
// across low driving speeds.  Claim: WGTT is consistently high in both,
// but the dense area gains from uplink/path diversity (paper: 9.3 vs
// 6.7 Mb/s on average).
//
// The 10 drives (5 speeds x 2 systems) run through SweepRunner; each run's
// dense/sparse split lands in BENCH_fig23_density.json as extra fields.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "util/units.h"

using namespace wgtt;

namespace {

/// Average throughput while the client is inside [x0, x1].
double region_tput(const scenario::DriveScenarioConfig& cfg,
                   const scenario::DriveResult& r, double x0, double x1) {
  const auto& c = r.clients.front();
  // Client position: x = -15 + v * t  (drive_mobility lead-in 15 m).
  const double v = mph_to_mps(cfg.speed_mph);
  double bytes_rate_sum = 0.0;
  int bins = 0;
  for (const auto& [t, mbps] : c.throughput_bins) {
    const double x = -15.0 + v * (t + Time::ms(250)).to_sec();
    if (x >= x0 && x <= x1) {
      bytes_rate_sum += mbps;
      ++bins;
    }
  }
  return bins > 0 ? bytes_rate_sum / bins : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 23", "UDP throughput: dense vs sparse AP deployment");

  constexpr double kSpeeds[] = {2.0, 4.0, 6.0, 8.0, 10.0};
  std::vector<scenario::DriveScenarioConfig> configs;
  for (double mph : kSpeeds) {
    for (int sys = 0; sys < 2; ++sys) {
      scenario::DriveScenarioConfig cfg;
      cfg.traffic = scenario::TrafficType::kUdpDownlink;
      cfg.udp_offered_mbps = 15.0;
      cfg.speed_mph = mph;
      cfg.seed = 31;
      cfg.system = sys == 0 ? scenario::SystemType::kWgtt
                            : scenario::SystemType::kEnhanced80211r;
      configs.push_back(cfg);
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "fig23_density");

  const scenario::SweepRunner runner(args.sweep);
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "fig23_density";
  report.title = "UDP throughput: dense vs sparse AP deployment";
  report.note_outcome(outcome);

  std::printf("\n%-7s %-22s %-22s\n", "", "dense (AP2-AP4)", "sparse (AP5-AP7)");
  std::printf("%-7s %-10s %-11s %-10s %-11s\n", "speed", "WGTT", "802.11r",
              "WGTT", "802.11r");
  double dense_sum = 0.0;
  double sparse_sum = 0.0;
  int n = 0;
  for (std::size_t s = 0; s < std::size(kSpeeds); ++s) {
    double v[2][2];  // [region][system]
    for (int sys = 0; sys < 2; ++sys) {
      const std::size_t i = s * 2 + static_cast<std::size_t>(sys);
      v[0][sys] = region_tput(configs[i], outcome.runs[i].result, 7.5, 22.5);
      v[1][sys] = region_tput(configs[i], outcome.runs[i].result, 34.0, 58.0);
      char label[48];
      std::snprintf(label, sizeof label, "%s/%.0fmph",
                    sys == 0 ? "wgtt" : "80211r", kSpeeds[s]);
      report.runs.push_back(scenario::make_run_report(
          label, configs[i], outcome.runs[i].result, outcome.runs[i].wall_ms));
      report.runs.back().extra.emplace_back("dense_mbps", v[0][sys]);
      report.runs.back().extra.emplace_back("sparse_mbps", v[1][sys]);
    }
    std::printf("%-7.0f %-10.2f %-11.2f %-10.2f %-11.2f\n", kSpeeds[s],
                v[0][0], v[0][1], v[1][0], v[1][1]);
    dense_sum += v[0][0];
    sparse_sum += v[1][0];
    ++n;
  }
  report.summary.emplace_back("wgtt_dense_avg_mbps", dense_sum / n);
  report.summary.emplace_back("wgtt_sparse_avg_mbps", sparse_sum / n);

  std::printf("\nWGTT average: dense %.1f Mb/s, sparse %.1f Mb/s\n",
              dense_sum / n, sparse_sum / n);
  std::printf("paper: ~9.3 Mb/s dense vs ~6.7 Mb/s sparse; WGTT above the\n"
              "baseline in both areas at every speed.\n");
  bench::emit_report(report, args);
  return 0;
}
