// Paper Fig. 21 / §5.3.1: choosing the AP-selection window W.
//
// Emulation-based, exactly as the paper does it: record ESNR traces from
// drives at 15 mph, then replay them through the median-ESNR selector at
// different window sizes and compute the average channel-capacity loss
// versus an oracle that always uses the best AP.  Small windows make the
// median noisy (spurious switches, each costing the ~17 ms protocol
// execution); large windows lag the channel.  Paper: minimum at W = 10 ms.

// Trace recording dominates the runtime and each recording builds its own
// Testbed, so the 10 recordings run concurrently via scenario::parallel_for;
// the replay grid is cheap and stays serial.  Results land in
// BENCH_fig21_window_size.json.

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "core/ap_selector.h"
#include "phy/error_model.h"
#include "phy/esnr.h"
#include "scenario/testbed.h"

using namespace wgtt;

namespace {

struct TraceSample {
  Time t;
  std::map<net::NodeId, double> downlink_esnr;  // ground truth per AP
  std::map<net::NodeId, double> uplink_esnr;    // what CSI reports would say
};

std::vector<TraceSample> record_trace(std::uint64_t seed) {
  scenario::TestbedConfig tb;
  tb.seed = seed;
  scenario::Testbed bed(tb);
  scenario::WgttNetwork net(bed);
  const net::NodeId client =
      bed.add_client(bed.drive_mobility(15.0), scenario::kWgttBssid);

  std::vector<TraceSample> trace;
  const Time step = Time::ms(2);  // ~CSI report cadence under load
  const Time end = bed.transit_duration(15.0);
  for (Time t = Time::zero(); t < end; t += step) {
    TraceSample s;
    s.t = t;
    for (net::NodeId ap : bed.ap_ids()) {
      s.downlink_esnr[ap] =
          phy::selection_esnr_db(bed.channel().downlink_csi(ap, client, t));
      s.uplink_esnr[ap] =
          phy::selection_esnr_db(bed.channel().uplink_csi(ap, client, t));
    }
    trace.push_back(std::move(s));
  }
  return trace;
}

double capacity_mbps(const phy::ErrorModel& em, double esnr_db) {
  if (esnr_db < 1.0) return 0.0;
  return em.best_mcs_for(esnr_db, 1460).rate_mbps_lgi * 0.8;  // MAC efficiency
}

/// Replay one trace through the selector at window W; returns the average
/// capacity loss (Mbit/s) versus the oracle.  During a switch the *old* AP
/// keeps serving (§3.1.2: the NIC queue drains while the protocol runs), so
/// churn costs the difference between old and new, not an outage.
double replay(const std::vector<TraceSample>& trace, Time window) {
  core::MedianEsnrSelector selector(window, /*min_readings=*/2);
  phy::ErrorModel em;
  const Time hysteresis = Time::zero();  // the W-experiment isolates selection
  const Time switch_cost = Time::ms(17);  // protocol execution (Table 1)

  net::NodeId active = 0;
  net::NodeId previous = 0;
  Time last_switch = Time::zero() - Time::sec(1);
  Time switch_until = Time::zero();
  double loss_integral = 0.0;
  double covered = 0.0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceSample& s = trace[i];
    // Feed CSI readings: only APs that can actually decode the client's
    // uplink frame report.
    for (const auto& [ap, up] : s.uplink_esnr) {
      if (up > 2.0) selector.add_reading(ap, s.t, up);
    }
    selector.prune(s.t);

    const net::NodeId choice = selector.select(s.t);
    if (choice != 0 && choice != active &&
        s.t - last_switch >= hysteresis) {
      previous = active;
      active = choice;
      last_switch = s.t;
      switch_until = s.t + switch_cost;
    }

    // Oracle capacity vs achieved capacity at this instant.
    double best = 0.0;
    for (const auto& [ap, dn] : s.downlink_esnr) {
      best = std::max(best, capacity_mbps(em, dn));
    }
    if (best <= 0.0) continue;  // out of coverage: nobody can win
    double got = 0.0;
    const net::NodeId serving =
        (s.t < switch_until && previous != 0) ? previous : active;
    if (serving != 0) got = capacity_mbps(em, s.downlink_esnr.at(serving));
    loss_integral += best - got;
    covered += 1.0;
  }
  return covered > 0 ? loss_integral / covered : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  // The recordings read the channel without running the scheduler, so no
  // observer stream would record anything.
  args.refuse_outputs();
  bench::header("Fig. 21", "capacity loss vs AP-selection window size W");

  const std::size_t jobs = scenario::SweepRunner::resolve_jobs(args.sweep.jobs);
  const auto start = std::chrono::steady_clock::now();

  // 10 recorded runs, as in the paper — each builds an independent testbed,
  // so they record in parallel.
  std::vector<std::vector<TraceSample>> traces(10);
  scenario::parallel_for(traces.size(), jobs, [&](std::size_t i) {
    traces[i] = record_trace(static_cast<std::uint64_t>(i) + 1);
  });

  scenario::SweepReport report;
  report.bench_id = "fig21_window_size";
  report.title = "capacity loss vs AP-selection window size W";
  report.jobs = jobs;

  std::printf("\n%-12s %s\n", "W (ms)", "avg capacity loss (Mbit/s)");
  double best_loss = 1e9;
  double best_w = 0.0;
  for (double w_ms : {2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0}) {
    double total = 0.0;
    for (const auto& trace : traces) total += replay(trace, Time::ms(w_ms));
    const double avg = total / static_cast<double>(traces.size());
    std::printf("%-12.0f %.2f %s\n", w_ms, avg,
                bench::bar(avg, 12.0, 30).c_str());
    char key[32];
    std::snprintf(key, sizeof key, "loss_mbps_w%.0fms", w_ms);
    report.summary.emplace_back(key, avg);
    if (avg < best_loss) {
      best_loss = avg;
      best_w = w_ms;
    }
  }
  report.summary.emplace_back("best_w_ms", best_w);
  report.summary.emplace_back("best_loss_mbps", best_loss);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  std::printf("\nminimum capacity loss at W = %.0f ms\n", best_w);
  std::printf("paper: loss decreases down to W = 10 ms, then increases for\n"
              "larger windows; W = 10 ms is chosen.\n");
  bench::emit_report(report);
  return 0;
}
