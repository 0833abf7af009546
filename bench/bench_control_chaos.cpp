// Control-plane chaos: protocol-hardening gate under adversarial backhaul.
//
// Not a paper figure — the robustness gate for the hardened switch protocol.
// Each run drives a TCP downlink client through the 8-AP testbed while a
// deterministic FaultPlan::control_chaos schedule attacks the control plane
// itself: duplicated control frames (msg_dup), FIFO-breaking reordering
// (msg_reorder), and controller crash/warm-restart cycles (ctrl_crash),
// plus the combined mask.  The interesting outputs are the hardening
// counters (duplicates suppressed, stale messages fenced, resync rounds)
// and the convergence verdict from the health engine's outage ledger: after
// every schedule, no client may be left stranded and at most one AP may be
// transmitting to each client.  Any violation exits 1 — this bench is a
// hard gate, not a trend plot.
//
// The sweep (4 masks x 4 seeds) runs through SweepRunner on all cores;
// BENCH_control_chaos.json records every run for the CI perf gate
// (bench/baselines/control_chaos.json).

#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "sim/fault_plan.h"

using namespace wgtt;

namespace {

struct Mode {
  const char* name;
  unsigned mask;
};

constexpr Mode kModes[] = {
    {"msg_dup", sim::FaultPlan::kChaosMsgDup},
    {"msg_reorder", sim::FaultPlan::kChaosMsgReorder},
    {"ctrl_crash", sim::FaultPlan::kChaosCtrlCrash},
    {"combined", sim::FaultPlan::kChaosControlAll},
};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};
const Time kHorizon = Time::sec(3);

std::uint64_t counter_sum(const metrics::Snapshot& snap,
                          std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("ControlChaos",
                "hardened switch protocol under adversarial backhaul");

  std::vector<scenario::DriveScenarioConfig> configs;
  for (const Mode& mode : kModes) {
    for (std::uint64_t seed : kSeeds) {
      scenario::DriveScenarioConfig cfg;
      cfg.system = scenario::SystemType::kWgtt;
      cfg.traffic = scenario::TrafficType::kTcpDownlink;
      cfg.speed_mph = 25.0;
      cfg.duration = kHorizon;
      cfg.seed = seed;
      // The outage ledger is the convergence verdict, so health is on for
      // every run (control_chaos confines fault windows to [10%, 75%] of
      // the horizon — the tail is convergence headroom).
      cfg.testbed.enable_health = true;
      cfg.testbed.faults = sim::FaultPlan::control_chaos(
          1.5, kHorizon, static_cast<std::uint32_t>(cfg.testbed.ap_x.size()),
          seed, mode.mask);
      configs.push_back(cfg);
    }
  }
  args.apply_policy(configs);
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "control_chaos");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %zu drives on %zu threads...\n", configs.size(),
              runner.jobs());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "control_chaos";
  report.title = "hardened switch protocol under adversarial backhaul";
  report.note_outcome(outcome);

  std::printf("\n%-12s %-5s %-7s %-9s %-9s %-6s %-6s %-8s %-9s %s\n", "mode",
              "seed", "faults", "goodput", "switches", "dups", "stale",
              "resyncs", "outages", "verdict");
  std::size_t violations = 0;
  double serial_ms = 0.0;
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
      const std::size_t i = m * std::size(kSeeds) + s;
      const scenario::SweepRun& run = outcome.runs[i];
      serial_ms += run.wall_ms;
      const scenario::DriveResult& r = run.result;
      const std::uint64_t dups =
          counter_sum(r.metrics, "controller.protocol.dup_suppressed");
      const std::uint64_t stale =
          counter_sum(r.metrics, "controller.protocol.stale_rejected");
      const std::uint64_t resyncs =
          counter_sum(r.metrics, "controller.protocol.resyncs");
      const bool converged = r.health_errors == 0 &&
                             r.unconverged_clients == 0 &&
                             r.dual_active_clients.empty();
      if (!converged) ++violations;
      char label[64];
      std::snprintf(label, sizeof label, "control_chaos/%s/s%llu",
                    kModes[m].name,
                    static_cast<unsigned long long>(kSeeds[s]));
      report.runs.push_back(scenario::make_run_report(
          label, configs[i], r, run.wall_ms));
      std::printf(
          "%-12s %-5llu %-7zu %-9.2f %-9zu %-6llu %-6llu %-8llu %-9llu %s\n",
          kModes[m].name, static_cast<unsigned long long>(kSeeds[s]),
          configs[i].testbed.faults.events.size(), r.mean_goodput_mbps(),
          r.switches.size(), static_cast<unsigned long long>(dups),
          static_cast<unsigned long long>(stale),
          static_cast<unsigned long long>(resyncs),
          static_cast<unsigned long long>(r.outages),
          converged ? "converged" : "VIOLATION");
    }
  }
  report.summary.emplace_back("serial_wall_ms_estimate", serial_ms);
  report.summary.emplace_back(
      "parallel_speedup",
      outcome.wall_ms > 0.0 ? serial_ms / outcome.wall_ms : 0.0);
  report.summary.emplace_back("violations", static_cast<double>(violations));

  bench::note(
      "every row must read 'converged': zero error-severity watchdogs, no "
      "open outage window at end of run, and at most one active transmitter "
      "per client once the schedule's faults cleared.  The dup/stale/resync "
      "columns are the hardening counters doing the work.");
  bench::emit_report(report, args);
  if (violations > 0) {
    std::fprintf(stderr,
                 "control_chaos: GATE FAIL — %zu run(s) violated the "
                 "protocol contract\n",
                 violations);
    return 1;
  }
  return 0;
}
