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
// Pass --telemetry [PATH] to keep the WGTT run's full CSV (default
// TELEMETRY_fig14_tcp_timeline.csv); --force overwrites an existing file.

#include <cstdio>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "scenario/telemetry.h"

using namespace wgtt;

namespace {

/// First column whose name ends with `suffix` (the client NodeId embedded in
/// the column prefix is assigned by the testbed, so benches match by suffix).
std::size_t col_by_suffix(const scenario::TelemetryTable& table,
                          const std::string& suffix) {
  for (std::size_t i = 0; i < table.columns.size(); ++i) {
    const std::string& name = table.columns[i].name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return i;
    }
  }
  return scenario::TelemetryTable::npos;
}

void print_run(const char* name, scenario::SystemType sys,
               const bench::BenchArgs& args,
               const std::string& telemetry_path,
               const std::string& packets_path, std::uint32_t packet_sample) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = sys;
  args.apply_policy(cfg);
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.telemetry_period = Time::ms(500);
  cfg.testbed.enable_packet_log = !packets_path.empty();
  cfg.testbed.packet_sample = packet_sample;
  auto r = scenario::run_drive(cfg);
  if (!telemetry_path.empty()) {
    bench::write_output(telemetry_path, r.telemetry.to_csv());
  }
  if (!packets_path.empty()) bench::write_output(packets_path, r.packet_jsonl);
  const auto& c = r.clients.front();

  std::printf("\n--- %s ---\n", name);
  const scenario::TelemetryTable& table = r.telemetry;
  const std::size_t col_goodput = col_by_suffix(table, ".goodput_mbps");
  const std::size_t col_ap = col_by_suffix(table, ".ap");
  const std::size_t col_cwnd = col_by_suffix(table, ".cwnd");
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
  std::string csv_path;
  if (args.telemetry) {
    csv_path = bench::claim_output_path(
        args.telemetry_path.empty() ? "TELEMETRY_fig14_tcp_timeline.csv"
                                    : args.telemetry_path,
        args.force, "telemetry");
  }
  std::string packets_path;
  if (args.packets) {
    packets_path = bench::claim_output_path(
        args.packets_path.empty() ? "PACKETS_fig14_tcp_timeline.jsonl"
                                  : args.packets_path,
        args.force, "packets");
  }
  print_run("WGTT", scenario::SystemType::kWgtt, args, csv_path, packets_path,
            args.packet_sample);
  print_run("Enhanced 802.11r", scenario::SystemType::kEnhanced80211r, args,
            {}, {}, 1);
  std::printf("\npaper: WGTT switches ~5x/s and holds ~5 Mb/s steadily; the\n"
              "baseline rises then collapses to zero with a TCP timeout\n"
              "mid-transit.\n");
  return 0;
}
