// Paper Fig. 14: TCP throughput vs time, plus the AP-association timeline,
// for a single client at 15 mph — WGTT against Enhanced 802.11r.
//
// The timeline is read back from the run's TelemetrySampler (500 ms period):
// per-client goodput, selected AP, and TCP cwnd all come from one telemetry
// table rather than ad-hoc probes.
//
// Claims to check: WGTT switches APs ~5 times per second, holding a stable
// throughput through the whole transit; the baseline's throughput crashes
// to zero mid-transit and a TCP timeout follows.
//
// The output flags (--telemetry, --packets, --decisions, ...; see --help)
// write the WGTT run's streams, e.g. its full telemetry CSV to
// TELEMETRY_fig14_tcp_timeline.csv; --force overwrites an existing file.

#include <cstdio>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "scenario/telemetry.h"

using namespace wgtt;

namespace {

/// One drive of the figure: TCP downlink at 15 mph, telemetry every 500 ms.
scenario::DriveScenarioConfig timeline_config(scenario::SystemType sys,
                                              const bench::BenchArgs& args) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = sys;
  args.apply_policy(cfg);
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
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
  const std::size_t col_cwnd = bench::col_by_suffix(table, ".cwnd");
  double max_mbps = 1.0;
  for (const auto& row : table.rows) {
    max_mbps = std::max(max_mbps, row[col_goodput]);
  }
  std::printf("%-7s %-9s %-7s %-24s %s\n", "t(s)", "Mb/s", "cwnd", "", "AP");
  for (std::size_t i = 0; i < table.row_count(); ++i) {
    const auto& row = table.rows[i];
    std::printf("%-7.1f %-9.2f %-7.0f %-24s AP%u\n", table.times[i].to_sec(),
                row[col_goodput], row[col_cwnd],
                bench::bar(row[col_goodput], max_mbps, 22).c_str(),
                static_cast<unsigned>(row[col_ap]));
  }
  // Switch cadence.
  std::size_t switch_count = 0;
  net::NodeId prev = 0;
  for (const auto& pt : c.timeline) {
    if (prev != 0 && pt.active != 0 && pt.active != prev) ++switch_count;
    if (pt.active != 0) prev = pt.active;
  }
  std::printf("AP switches: %zu over %.1f s (%.1f per second)\n",
              switch_count, r.measured_duration.to_sec(),
              switch_count / r.measured_duration.to_sec());
  std::printf("TCP: goodput %.2f Mb/s, %llu timeouts, %llu retransmissions\n",
              c.goodput_mbps,
              static_cast<unsigned long long>(c.tcp_stats.timeouts),
              static_cast<unsigned long long>(c.tcp_stats.retransmissions));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Fig. 14", "TCP throughput + AP timeline at 15 mph");
  scenario::DriveScenarioConfig wgtt =
      timeline_config(scenario::SystemType::kWgtt, args);
  const bench::Outputs outputs =
      args.apply_outputs(wgtt, "fig14_tcp_timeline");
  const scenario::DriveResult result = scenario::run_drive(wgtt);
  outputs.write(result);
  print_run("WGTT", result);
  print_run("Enhanced 802.11r",
            scenario::run_drive(timeline_config(
                scenario::SystemType::kEnhanced80211r, args)));
  std::printf("\npaper: WGTT switches ~5x/s and holds ~5 Mb/s steadily; the\n"
              "baseline rises then collapses to zero with a TCP timeout\n"
              "mid-transit.\n");
  return 0;
}
