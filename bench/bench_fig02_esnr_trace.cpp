// Paper Fig. 2: "Constructive and destructive wireless multipath fading as
// measured by Effective SNR conspire with vehicular-speed mobility to change
// the AP best able to deliver packets at millisecond timescales."
//
// Reproduces both panels from ONE telemetry table: a TelemetrySampler ticks
// every simulated millisecond and probes each AP's ESNR toward a client
// driving by at 25 mph.  Panel 1 prints the second-scale traces (every
// 100th row), panel 2 the millisecond-scale best-AP detail (rows 900-1259).
// The paper's claim to check: the best AP flips at millisecond granularity,
// and radio coverage between APs overlaps ~10 m.
//
// Pass --telemetry [PATH] to keep the full CSV (default
// TELEMETRY_fig02_esnr_trace.csv); --force overwrites an existing file.

#include <cstdio>

#include "bench_util.h"
#include "phy/esnr.h"
#include "scenario/telemetry.h"
#include "scenario/testbed.h"
#include "util/units.h"

using namespace wgtt;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  // The bench samples its own telemetry table; no other stream is wired.
  args.refuse_outputs("--telemetry");
  bench::header("Fig. 2", "ESNR vs time for 3 APs; best-AP flips at ms scale");

  scenario::TestbedConfig tb;
  tb.ap_x = {0.0, 7.5, 15.0};
  tb.seed = 3;
  tb.enable_telemetry = true;
  tb.telemetry_period = Time::ms(1);
  std::string csv_path;
  if (args.telemetry) {
    csv_path = bench::claim_output_path(
        args.telemetry_path.empty() ? "TELEMETRY_fig02_esnr_trace.csv"
                                    : args.telemetry_path,
        args.force, "telemetry");
  }
  scenario::Testbed bed(tb);
  scenario::WgttNetwork net(bed);
  const double mph = 25.0;
  const net::NodeId client =
      bed.add_client(bed.drive_mobility(mph, 5.0), scenario::kWgttBssid);

  auto esnr_at_now = [&bed, client](std::size_t a) {
    return phy::selection_esnr_db(
        bed.channel().downlink_csi(bed.ap_ids()[a], client, bed.sched().now()));
  };
  scenario::TelemetrySampler* tel = bed.telemetry();
  for (std::size_t a = 0; a < 3; ++a) {
    tel->add_column("esnr_ap" + std::to_string(a + 1), 3,
                    [esnr_at_now, a]() { return esnr_at_now(a); });
  }
  tel->add_column("best_ap", 0, [esnr_at_now]() {
    std::size_t best = 0;
    double best_e = esnr_at_now(0);
    for (std::size_t a = 1; a < 3; ++a) {
      if (const double e = esnr_at_now(a); e > best_e) {
        best_e = e;
        best = a;
      }
    }
    return static_cast<double>(best + 1);
  });
  tel->start();
  bed.sched().run_until(Time::ms(3001));
  if (!csv_path.empty()) bench::write_output(csv_path, tel->to_csv());

  const scenario::TelemetryTable& table = tel->table();
  const std::size_t col_e1 = table.column_index("esnr_ap1");
  const std::size_t col_best = table.column_index("best_ap");

  // Panel 1: ESNR every 100 ms over 3 s (every 100th telemetry row).
  std::printf("\nESNR (dB) at 25 mph, sampled every 100 ms:\n");
  std::printf("%-8s %-7s %-7s %-7s %s\n", "t(ms)", "AP1", "AP2", "AP3",
              "best");
  for (std::size_t i = 0; i < table.row_count(); i += 100) {
    const auto& row = table.rows[i];
    std::printf("%-8lld %-7.1f %-7.1f %-7.1f AP%d\n",
                static_cast<long long>(table.times[i].to_ms()), row[col_e1],
                row[col_e1 + 1], row[col_e1 + 2],
                static_cast<int>(row[col_best]));
  }

  // Panel 2 (right detail view): best AP per millisecond over a 360 ms
  // window in the overlap region, plus flip statistics.
  std::printf("\nbest AP per ms, 360 ms detail in the AP1/AP2 overlap:\n");
  int flips = 0;
  int prev = -1;
  std::string strip;
  for (std::size_t i = 900; i < 1260 && i < table.row_count(); ++i) {
    const int best = static_cast<int>(table.rows[i][col_best]);
    strip += static_cast<char>('0' + best);
    if (prev >= 0 && best != prev) ++flips;
    prev = best;
  }
  for (std::size_t i = 0; i < strip.size(); i += 60) {
    std::printf("  %s\n", strip.substr(i, 60).c_str());
  }
  std::printf("\nbest-AP flips in the 360 ms window : %d\n", flips);
  std::printf("mean time between flips            : %.1f ms\n",
              flips > 0 ? 360.0 / flips : 0.0);

  // Coverage overlap: span where two APs are both above a usable ESNR
  // (scanned past the sampled window, so computed directly).
  double overlap_start = 1e9;
  double overlap_end = -1e9;
  for (int ms = 0; ms <= 4000; ms += 5) {
    const Time t = Time::ms(ms);
    int usable = 0;
    for (int a = 0; a < 3; ++a) {
      if (phy::selection_esnr_db(bed.channel().downlink_csi(
              bed.ap_ids()[static_cast<std::size_t>(a)], client, t)) > 3.0) {
        ++usable;
      }
    }
    const double x = bed.channel().client_mobility(client).position(t).x;
    if (usable >= 2) {
      overlap_start = std::min(overlap_start, x);
      overlap_end = std::max(overlap_end, x);
    }
  }
  std::printf("multi-AP coverage overlap span     : %.1f m (paper: ~10 m)\n",
              overlap_end > overlap_start ? overlap_end - overlap_start : 0.0);
  std::printf("\npaper: best AP changes every few ms in overlap regions;\n"
              "       coverage between APs overlaps by around 10 m.\n");
  return 0;
}
