// Paper Fig. 15: UDP throughput + link bit rate + AP timeline at 15 mph.
//
// The timeline is read back from the run's TelemetrySampler (500 ms period):
// per-client goodput, selected AP, and cumulative loss come from one
// telemetry table; the PHY bit-rate column is averaged from the run's
// bitrate samples over each telemetry period.
//
// Claims: WGTT rides the best link continuously (frequent switches, stable
// rate); Enhanced 802.11r switches only ~3 times in the whole 10 s transit
// and its throughput swings wildly.
//
// The output flags (--telemetry, --packets, --decisions, ...; see --help)
// write the WGTT run's streams, e.g. its full telemetry CSV to
// TELEMETRY_fig15_udp_timeline.csv; --force overwrites an existing file.

#include <cstdio>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "scenario/telemetry.h"
#include "util/stats.h"

using namespace wgtt;

namespace {

/// One drive of the figure: 15 Mb/s UDP downlink at 15 mph, telemetry every
/// 500 ms.
scenario::DriveScenarioConfig timeline_config(scenario::SystemType sys,
                                              const bench::BenchArgs& args) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = sys;
  args.apply_policy(cfg);
  cfg.traffic = scenario::TrafficType::kUdpDownlink;
  cfg.udp_offered_mbps = 15.0;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.telemetry_period = Time::ms(500);
  return cfg;
}

void print_run(const char* name, const scenario::DriveResult& r) {
  const auto& c = r.clients.front();

  std::printf("\n--- %s ---\n", name);
  const scenario::TelemetryTable& table = r.telemetry;
  const std::size_t col_goodput =
      bench::col_by_suffix(table, ".goodput_mbps");
  const std::size_t col_ap = bench::col_by_suffix(table, ".ap");
  std::printf("%-7s %-8s %-10s %s\n", "t(s)", "Mb/s", "bitrate", "AP");
  for (std::size_t i = 0; i < table.row_count(); ++i) {
    const auto& row = table.rows[i];
    const Time t = table.times[i];
    // Average PHY bit rate of exchanges in this telemetry period.
    RunningStats rate;
    for (const auto& [bt, mb] : c.bitrate_series) {
      if (bt >= t - Time::ms(500) && bt < t) rate.add(mb);
    }
    std::printf("%-7.1f %-8.2f %-10.1f AP%u %s\n", t.to_sec(),
                row[col_goodput], rate.mean(),
                static_cast<unsigned>(row[col_ap]),
                bench::bar(row[col_goodput], 16, 20).c_str());
  }
  std::size_t switch_count = 0;
  net::NodeId prev = 0;
  for (const auto& pt : c.timeline) {
    if (prev != 0 && pt.active != 0 && pt.active != prev) ++switch_count;
    if (pt.active != 0) prev = pt.active;
  }
  std::printf("switches: %zu; UDP goodput %.2f Mb/s; loss %.1f%%\n",
              switch_count, c.goodput_mbps, c.udp_loss_rate * 100);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 15", "UDP throughput + bit rate + AP timeline, 15 mph");
  scenario::DriveScenarioConfig wgtt =
      timeline_config(scenario::SystemType::kWgtt, args);
  const bench::Outputs outputs =
      args.apply_outputs(wgtt, "fig15_udp_timeline");
  const scenario::DriveResult result = scenario::run_drive(wgtt);
  outputs.write(result);
  print_run("WGTT", result);
  print_run("Enhanced 802.11r",
            scenario::run_drive(timeline_config(
                scenario::SystemType::kEnhanced80211r, args)));
  std::printf("\npaper: WGTT switches frequently and keeps a stable rate;\n"
              "Enhanced 802.11r switches only ~3 times in 10 s with low,\n"
              "unstable throughput.\n");
  return 0;
}
