// Handoff-policy tournament: every shipped policy under the fig13 speed
// sweep and the chaos sweep, in one report.
//
// Not a paper figure — the payoff of the HandoffPolicy seam.  Part A reruns
// the fig13 TCP/WGTT speed points (same seed/traffic/testbed, so the
// median_esnr rows must reproduce the committed fig13 baseline numbers
// exactly) once per policy, plus the Enhanced 802.11r reference rows through
// the same run_drive harness.  Part B stresses each policy with the chaos
// sweep's deterministic fault schedule at the highest speed.
//
// Every run records its controller decision log in memory; the bench
// verifies each WGTT run produced records naming its policy, and surfaces
// the duplicate-absorption cost of the overlap policies (make_before_break,
// bicast) via the client-side dedup counters.
//
// BENCH_policy_tournament.json is diffed against
// bench/baselines/tournament.json by the CI perf gate.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/handoff_policy.h"
#include "scenario/experiment.h"
#include "sim/fault_plan.h"
#include "util/units.h"

using namespace wgtt;

namespace {

constexpr const char* kPolicies[] = {"median_esnr", "predictive",
                                     "make_before_break", "bicast"};
constexpr double kSpeeds[] = {5.0, 15.0, 25.0, 35.0};  // fig13 subset
constexpr double kChaosSpeed = 35.0;                   // most switches
constexpr double kIntensities[] = {1.0, 2.0};          // faults per sim-sec

core::PolicySpec spec_for(const char* name) {
  core::PolicySpec spec;
  std::string err;
  if (!core::parse_policy_spec(name, spec, &err)) {
    std::fprintf(stderr, "error: tournament policy \"%s\": %s\n", name,
                 err.c_str());
    std::exit(2);
  }
  return spec;
}

scenario::DriveScenarioConfig tcp_drive(double mph) {
  scenario::DriveScenarioConfig cfg;
  cfg.speed_mph = mph;
  cfg.seed = 42;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.testbed.enable_decision_log = true;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::header("Tournament", "handoff policies under speed + chaos sweeps");
  if (args.policy_set) {
    bench::note("--policy is ignored: this bench sweeps the policy axis.");
  }

  std::vector<scenario::DriveScenarioConfig> configs;
  std::vector<std::string> labels;

  // --- part A: fig13-style speed sweep, once per policy ------------------
  for (const char* pol : kPolicies) {
    const core::PolicySpec spec = spec_for(pol);
    for (double mph : kSpeeds) {
      scenario::DriveScenarioConfig cfg = tcp_drive(mph);
      cfg.wgtt.controller.policy = spec;
      configs.push_back(cfg);
      char label[64];
      std::snprintf(label, sizeof label, "speed/%s/%.0fmph", pol, mph);
      labels.emplace_back(label);
    }
  }
  // Enhanced 802.11r reference rows, through the same run_drive harness the
  // policies use (no separate bench_fig04-style loop).
  for (double mph : kSpeeds) {
    scenario::DriveScenarioConfig cfg = tcp_drive(mph);
    cfg.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(cfg);
    char label[64];
    std::snprintf(label, sizeof label, "speed/80211r/%.0fmph", mph);
    labels.emplace_back(label);
  }
  const std::size_t chaos_begin = configs.size();

  // --- part B: chaos sweep, once per policy ------------------------------
  for (const char* pol : kPolicies) {
    const core::PolicySpec spec = spec_for(pol);
    for (double intensity : kIntensities) {
      scenario::DriveScenarioConfig cfg = tcp_drive(kChaosSpeed);
      cfg.wgtt.controller.policy = spec;
      // Same fault horizon the chaos sweep uses: one transit of the road
      // (span plus the default 15 m lead-in/out) at this speed.
      const double road_m = 65.5 + 2.0 * 15.0;
      const Time horizon = Time::sec(road_m / mph_to_mps(kChaosSpeed));
      cfg.testbed.faults = sim::FaultPlan::chaos(
          intensity, horizon,
          static_cast<std::uint32_t>(cfg.testbed.ap_x.size()), cfg.seed);
      configs.push_back(cfg);
      char label[64];
      std::snprintf(label, sizeof label, "chaos/%s/%.0fmph/x%.1f", pol,
                    kChaosSpeed, intensity);
      labels.emplace_back(label);
    }
  }
  const bench::Outputs outputs =
      args.apply_outputs(configs.front(), "policy_tournament");

  const scenario::SweepRunner runner(args.sweep);
  std::printf("running %zu drives on %zu threads...\n", configs.size(),
              runner.jobs());
  const scenario::SweepOutcome outcome = runner.run(configs);
  outputs.write(outcome.runs.front().result);

  scenario::SweepReport report;
  report.bench_id = "policy_tournament";
  report.title = "handoff policies under speed + chaos sweeps";
  report.note_outcome(outcome);

  double serial_ms = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    serial_ms += outcome.runs[i].wall_ms;
    report.runs.push_back(scenario::make_run_report(
        labels[i], configs[i], outcome.runs[i].result,
        outcome.runs[i].wall_ms));
  }

  // Every WGTT run must have produced decision records naming its policy —
  // the audit trail that makes per-policy switch autopsies possible.
  std::size_t unattributed = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].system != scenario::SystemType::kWgtt) continue;
    const std::string needle =
        "\"policy\":\"" + configs[i].wgtt.controller.policy.to_string() + "\"";
    const scenario::DriveResult& r = outcome.runs[i].result;
    if (r.decision_records == 0 ||
        r.decision_jsonl.find(needle) == std::string::npos) {
      std::fprintf(stderr, "warning: run %s has no decision records for %s\n",
                   labels[i].c_str(), needle.c_str());
      ++unattributed;
    }
  }
  report.summary.emplace_back("unattributed_runs",
                              static_cast<double>(unattributed));

  // --- per-policy table ---------------------------------------------------
  std::printf("\n%-18s %14s %9s %10s %14s\n", "policy", "goodput Mb/s",
              "switches", "dup rm'd", "chaos Mb/s");
  const std::size_t n_pol = std::size(kPolicies);
  const std::size_t n_spd = std::size(kSpeeds);
  const std::size_t n_int = std::size(kIntensities);
  for (std::size_t p = 0; p <= n_pol; ++p) {
    const bool is_baseline = p == n_pol;
    const char* name = is_baseline ? "80211r" : kPolicies[p];
    double goodput = 0.0;
    double switches = 0.0;
    double dups = 0.0;
    for (std::size_t s = 0; s < n_spd; ++s) {
      const std::size_t i = p * n_spd + s;  // baseline block follows policies
      const scenario::DriveResult& r = outcome.runs[i].result;
      goodput += r.mean_goodput_mbps() / static_cast<double>(n_spd);
      switches += static_cast<double>(r.switches.size());
      dups += static_cast<double>(r.downlink_duplicates_removed);
    }
    double chaos = 0.0;
    if (!is_baseline) {
      for (std::size_t f = 0; f < n_int; ++f) {
        const std::size_t i = chaos_begin + p * n_int + f;
        chaos += outcome.runs[i].result.mean_goodput_mbps() /
                 static_cast<double>(n_int);
        dups += static_cast<double>(
            outcome.runs[i].result.downlink_duplicates_removed);
      }
    }
    if (is_baseline) {
      std::printf("%-18s %14.2f %9.0f %10.0f %14s\n", name, goodput, switches,
                  dups, "-");
    } else {
      std::printf("%-18s %14.2f %9.0f %10.0f %14.2f\n", name, goodput,
                  switches, dups, chaos);
    }
    const std::string key = name;
    report.summary.emplace_back(key + "_goodput_mbps", goodput);
    report.summary.emplace_back(key + "_switches", switches);
    report.summary.emplace_back(key + "_dup_removed", dups);
    if (!is_baseline) {
      report.summary.emplace_back(key + "_chaos_goodput_mbps", chaos);
    }
  }
  report.summary.emplace_back("serial_wall_ms_estimate", serial_ms);
  report.summary.emplace_back(
      "parallel_speedup",
      outcome.wall_ms > 0.0 ? serial_ms / outcome.wall_ms : 0.0);

  bench::note(
      "the median_esnr speed rows share seed/config with fig13's tcp/wgtt "
      "rows, so their goodput must match bench/baselines/fig13.json exactly; "
      "dup rm'd counts client-side duplicates absorbed by the overlap "
      "policies (zero for median_esnr/predictive stop-start switches).");
  bench::emit_report(report, args);
  return unattributed == 0 ? 0 : 1;
}
