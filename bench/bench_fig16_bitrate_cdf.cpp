// Paper Fig. 16: CDF of the link bit rate during a 15 mph transit, TCP and
// UDP, WGTT vs Enhanced 802.11r.
//
// Claim: WGTT's 90th percentile is ~70 Mb/s, roughly 30 Mb/s higher than
// the baseline's — better switching keeps the client near cell centres
// where high MCS works (and it is the switching, not rate adaptation, that
// delivers the gain).
//
// The four transits run through SweepRunner and the bench leaves a
// BENCH_fig16_bitrate_cdf.json report behind (per-run bitrate percentiles
// in "extra"), so wgtt-report can inspect and diff it.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "util/stats.h"

using namespace wgtt;

namespace {

struct Case {
  const char* name;
  const char* label;
  scenario::SystemType sys;
  scenario::TrafficType traffic;
};

constexpr Case kCases[] = {
    {"TCP - WGTT", "tcp/wgtt", scenario::SystemType::kWgtt,
     scenario::TrafficType::kTcpDownlink},
    {"UDP - WGTT", "udp/wgtt", scenario::SystemType::kWgtt,
     scenario::TrafficType::kUdpDownlink},
    {"TCP - Enhanced 802.11r", "tcp/80211r",
     scenario::SystemType::kEnhanced80211r,
     scenario::TrafficType::kTcpDownlink},
    {"UDP - Enhanced 802.11r", "udp/80211r",
     scenario::SystemType::kEnhanced80211r,
     scenario::TrafficType::kUdpDownlink},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 16", "CDF of link bit rate (client at 15 mph)");

  std::vector<scenario::DriveScenarioConfig> configs;
  for (const Case& c : kCases) {
    scenario::DriveScenarioConfig cfg;
    cfg.system = c.sys;
    cfg.traffic = c.traffic;
    cfg.speed_mph = 15.0;
    cfg.udp_offered_mbps = 30.0;  // keep the link busy so rates are sampled
    cfg.seed = 42;
    configs.push_back(cfg);
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "fig16_bitrate_cdf");

  const scenario::SweepRunner runner(args.sweep);
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "fig16_bitrate_cdf";
  report.title = "CDF of link bit rate (client at 15 mph)";
  report.note_outcome(outcome);

  std::printf("\n%-26s %8s %8s %8s %8s %8s\n", "", "p10", "p25", "p50", "p75",
              "p90");
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const scenario::SweepRun& run = outcome.runs[i];
    SampleSet s;
    for (double v : run.result.clients.front().bitrate_samples) s.add(v);
    std::printf("%-26s %8.1f %8.1f %8.1f %8.1f %8.1f   (n=%zu)\n",
                kCases[i].name, s.percentile(0.10), s.percentile(0.25),
                s.percentile(0.50), s.percentile(0.75), s.percentile(0.90),
                s.count());
    scenario::RunReport r = scenario::make_run_report(
        kCases[i].label, configs[i], run.result, run.wall_ms);
    r.extra.emplace_back("bitrate_p10_mbps", s.percentile(0.10));
    r.extra.emplace_back("bitrate_p50_mbps", s.percentile(0.50));
    r.extra.emplace_back("bitrate_p90_mbps", s.percentile(0.90));
    r.extra.emplace_back("bitrate_samples", static_cast<double>(s.count()));
    report.runs.push_back(std::move(r));
  }
  std::printf("\npaper: WGTT's 90%% quantile is ~70 Mb/s — ~30 Mb/s above\n"
              "Enhanced 802.11r's.\n");
  bench::emit_report(report, args);
  return 0;
}
