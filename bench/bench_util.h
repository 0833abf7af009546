// Shared output helpers for the experiment benches: every binary prints the
// rows/series of one paper table or figure, plus the paper's numbers for
// side-by-side comparison.  Sweep-shaped benches additionally run their
// simulations through scenario::SweepRunner (all cores by default) and leave
// a machine-readable BENCH_<id>.json report behind.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/handoff_policy.h"
#include "scenario/report.h"
#include "scenario/sweep.h"
#include "scenario/telemetry.h"
#include "sim/fault_plan.h"
#include "util/json.h"

namespace wgtt::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==========================================================\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// Sparkline-ish inline bar for time series in terminal output.
inline std::string bar(double value, double max, int width = 40) {
  if (max <= 0) max = 1;
  int n = static_cast<int>(value / max * width + 0.5);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

/// Resolve one bench output path, refusing to silently clobber a file that
/// already exists unless the user passed --force.  Prints the resolved path
/// so the bench summary names every artifact it is about to write.
inline std::string claim_output_path(const std::string& path, bool force,
                                     const char* what) {
  if (!force) {
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fclose(f);
      std::fprintf(stderr,
                   "error: %s output %s already exists; pass --force to "
                   "overwrite\n",
                   what, path.c_str());
      std::exit(1);
    }
  }
  std::printf("%s: %s\n", what, path.c_str());
  return path;
}

/// Write one bench output file, warning on stderr if the write fails.
inline void write_output(const std::string& path, const std::string& bytes) {
  if (!write_text_file(path, bytes)) {
    std::fprintf(stderr, "warning: failed to write %s\n", path.c_str());
  }
}

/// First telemetry column whose name ends with `suffix`, or npos.  The
/// client NodeId embedded in a column prefix is assigned by the testbed, so
/// benches match by suffix.
inline std::size_t col_by_suffix(const scenario::TelemetryTable& table,
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

struct OutputOpt;

/// The output files apply_outputs claimed for a bench's first run, each
/// with the stream it receives.  write() fills them from that run's result.
struct Outputs {
  std::vector<std::pair<const OutputOpt*, std::string>> files;
  void write(const scenario::DriveResult& result) const;
};

/// Command-line options shared by the sweep-shaped benches.  The optional
/// per-run output artifacts (--trace/--telemetry/--decisions/--packets/
/// --health/--causal) are described once in kOutputOpts below — the parser,
/// the config application, the file writes and the --help text all iterate
/// that table, so a new artifact is one table row plus its fields here.
struct BenchArgs {
  scenario::SweepOptions sweep;  // --jobs N / -j N (0 = env/hardware default)
  /// --trace [PATH]: write a Chrome trace-event JSON of the first run.
  /// Empty = tracing off; the default path is TRACE_<bench_id>.json.
  std::string trace_path;
  bool trace = false;
  /// --telemetry [PATH]: write the first run's telemetry CSV.
  /// Empty = sampling off; the default path is TELEMETRY_<bench_id>.csv.
  std::string telemetry_path;
  bool telemetry = false;
  /// --decisions [PATH]: write the first run's controller decision JSONL.
  /// Empty = audit log off; the default path is DECISIONS_<bench_id>.jsonl.
  std::string decisions_path;
  bool decisions = false;
  /// --packets [PATH]: write the first run's per-packet flight-recorder
  /// JSONL.  Empty = recorder off; default path is PACKETS_<bench_id>.jsonl.
  std::string packets_path;
  bool packets = false;
  /// --health [PATH]: write the first run's runtime-health JSONL (windowed
  /// rollups + watchdog verdicts).  Default path is HEALTH_<bench_id>.jsonl.
  std::string health_path;
  bool health = false;
  /// --causal [PATH]: write the first run's causal event-graph JSONL
  /// (scheduler provenance edges + semantic annotations; feed it to
  /// `wgtt-report critical-path`).  Default path is CAUSAL_<bench_id>.jsonl.
  std::string causal_path;
  bool causal = false;
  /// --health-strict: exit 1 if any health watchdog reports an
  /// error-severity violation (implies --health).
  bool health_strict = false;
  /// --packet-sample N: record 1-in-N sampled data packets (default 1).
  std::uint32_t packet_sample = 1;
  /// --faults [SPEC]: inject infrastructure faults into the first run.
  /// SPEC uses the FaultPlan grammar (EXPERIMENTS.md "Chaos sweeps"); with
  /// no SPEC a deterministic chaos plan (intensity 1 fault/s) is generated
  /// from the run's seed.
  std::string faults_spec;
  bool faults = false;
  /// --policy SPEC: run every WGTT simulation under this handoff policy
  /// ("name[:key=val,...]"; see core/handoff_policy.h).  Validated at parse
  /// time — a bad spec exits 2 before any simulation runs.
  core::PolicySpec policy;
  bool policy_set = false;
  /// --force: overwrite existing trace/telemetry/decision/packet files.
  bool force = false;

  /// Apply the --policy override to every config of a sweep.  Baseline
  /// (802.11r) runs ignore the controller config, so this is safe to apply
  /// unconditionally.
  template <typename DriveConfig>
  void apply_policy(std::vector<DriveConfig>& configs) const {
    if (!policy_set) return;
    for (DriveConfig& cfg : configs) cfg.wgtt.controller.policy = policy;
    std::printf("policy: %s\n", policy.to_string().c_str());
  }

  /// Single-run variant (timeline benches): silent, call per config.
  template <typename DriveConfig>
  void apply_policy(DriveConfig& cfg) const {
    if (policy_set) cfg.wgtt.controller.policy = policy;
  }

  /// Turn on the requested output artifacts (kOutputOpts) in the config of
  /// one run (benches instrument the first simulation of their sweep;
  /// instrumenting every run would just overwrite one file per worker) and
  /// claim their files, to be written from that run's result.  Exits with
  /// an error if a target file exists and --force was not given.
  template <typename DriveConfig>
  [[nodiscard]] Outputs apply_outputs(DriveConfig& cfg,
                                      const std::string& bench_id) const;

  /// For benches that build their own Testbed and so cannot write the
  /// streams of a DriveResult: exit 2, naming the flag, if any output flag
  /// other than `keep` (a flag the bench writes itself) was given.  Call it
  /// before any simulation runs.
  void refuse_outputs(const char* keep = nullptr) const;
};

/// One optional per-run output artifact: where its flag parses into
/// BenchArgs, which TestbedConfig flag turns its stream on, and how its
/// bytes are read from the run's DriveResult.  parse_args,
/// BenchArgs::apply_outputs, Outputs::write and the --help text all walk
/// this table.
struct OutputOpt {
  const char* flag;            // "--trace"
  const char* what;            // claim_output_path label
  const char* default_prefix;  // "TRACE_"
  const char* default_suffix;  // ".json"
  bool BenchArgs::*enabled;
  std::string BenchArgs::*path;
  bool scenario::TestbedConfig::*enable;
  std::string (*stream)(const scenario::DriveResult&);
  const char* help;  // --help description (default-path clause appended)
};

inline const OutputOpt kOutputOpts[] = {
    {"--trace", "trace", "TRACE_", ".json", &BenchArgs::trace,
     &BenchArgs::trace_path, &scenario::TestbedConfig::enable_trace,
     [](const scenario::DriveResult& r) { return r.trace_json; },
     "write a Chrome trace-event JSON (chrome://tracing, Perfetto) of the "
     "bench's first simulation"},
    {"--telemetry", "telemetry", "TELEMETRY_", ".csv", &BenchArgs::telemetry,
     &BenchArgs::telemetry_path, &scenario::TestbedConfig::enable_telemetry,
     [](const scenario::DriveResult& r) { return r.telemetry.to_csv(); },
     "write the first simulation's telemetry time-series CSV"},
    {"--decisions", "decisions", "DECISIONS_", ".jsonl",
     &BenchArgs::decisions, &BenchArgs::decisions_path,
     &scenario::TestbedConfig::enable_decision_log,
     [](const scenario::DriveResult& r) { return r.decision_jsonl; },
     "write the first simulation's controller decision audit JSONL"},
    {"--packets", "packets", "PACKETS_", ".jsonl", &BenchArgs::packets,
     &BenchArgs::packets_path, &scenario::TestbedConfig::enable_packet_log,
     [](const scenario::DriveResult& r) { return r.packet_jsonl; },
     "write the first simulation's per-packet flight-recorder JSONL"},
    {"--health", "health", "HEALTH_", ".jsonl", &BenchArgs::health,
     &BenchArgs::health_path, &scenario::TestbedConfig::enable_health,
     [](const scenario::DriveResult& r) { return r.health_jsonl; },
     "write the first simulation's runtime-health JSONL (windowed rollups "
     "+ invariant watchdogs)"},
    {"--causal", "causal", "CAUSAL_", ".jsonl", &BenchArgs::causal,
     &BenchArgs::causal_path, &scenario::TestbedConfig::enable_causal,
     [](const scenario::DriveResult& r) { return r.causal_jsonl; },
     "write the first simulation's causal event-graph JSONL (scheduler "
     "provenance edges + semantic annotations, for wgtt-report "
     "critical-path)"},
};

inline void Outputs::write(const scenario::DriveResult& result) const {
  for (const auto& [opt, path] : files) write_output(path, opt->stream(result));
}

inline void BenchArgs::refuse_outputs(const char* keep) const {
  for (const OutputOpt& o : kOutputOpts) {
    if (!(this->*o.enabled)) continue;
    if (keep != nullptr && std::strcmp(o.flag, keep) == 0) continue;
    std::fprintf(stderr, "error: %s is not supported by this bench\n",
                 o.flag);
    std::exit(2);
  }
}

template <typename DriveConfig>
Outputs BenchArgs::apply_outputs(DriveConfig& cfg,
                                 const std::string& bench_id) const {
  Outputs outputs;
  for (const OutputOpt& o : kOutputOpts) {
    if (!(this->*o.enabled)) continue;
    const std::string& p = this->*o.path;
    cfg.testbed.*o.enable = true;
    outputs.files.emplace_back(
        &o, claim_output_path(
                p.empty() ? o.default_prefix + bench_id + o.default_suffix : p,
                force, o.what));
  }
  if (packets) cfg.testbed.packet_sample = packet_sample;
  // The causal tracer samples per-packet annotation sites with the same
  // splitmix64 recipe as the flight recorder, so --packet-sample governs
  // both streams and their sampled-uid populations coincide line-for-line.
  if (causal) cfg.testbed.causal_sample = packet_sample;
  if (faults) {
    sim::FaultPlan plan;
    if (faults_spec.empty()) {
      const Time horizon =
          cfg.duration > Time::zero() ? cfg.duration : Time::sec(10);
      plan = sim::FaultPlan::chaos(
          /*intensity=*/1.0, horizon,
          static_cast<std::uint32_t>(cfg.testbed.ap_x.size()), cfg.seed);
    } else {
      std::string err;
      if (!sim::FaultPlan::parse(faults_spec, plan, &err)) {
        std::fprintf(stderr, "error: bad --faults spec: %s\n", err.c_str());
        std::exit(2);
      }
    }
    std::printf("faults:\n%s", plan.describe().c_str());
    cfg.testbed.faults = std::move(plan);
  }
  return outputs;
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* val = nullptr;
    // Output-artifact flags: "--flag=PATH" or "--flag [PATH]".
    bool matched_output = false;
    for (const OutputOpt& o : kOutputOpts) {
      const std::size_t len = std::strlen(o.flag);
      if (std::strncmp(a, o.flag, len) == 0 && a[len] == '=') {
        args.*o.enabled = true;
        args.*o.path = a + len + 1;
        matched_output = true;
        break;
      }
      if (std::strcmp(a, o.flag) == 0) {
        args.*o.enabled = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') args.*o.path = argv[++i];
        matched_output = true;
        break;
      }
    }
    if (matched_output) continue;
    if (std::strncmp(a, "--jobs=", 7) == 0) {
      val = a + 7;
    } else if ((std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) &&
               i + 1 < argc) {
      val = argv[++i];
    } else if (std::strcmp(a, "--health-strict") == 0) {
      args.health_strict = true;
      args.health = true;
    } else if (std::strncmp(a, "--packet-sample=", 16) == 0) {
      const long v = std::strtol(a + 16, nullptr, 10);
      if (v > 0) args.packet_sample = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(a, "--packet-sample") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) args.packet_sample = static_cast<std::uint32_t>(v);
    } else if (std::strncmp(a, "--faults=", 9) == 0) {
      args.faults = true;
      args.faults_spec = a + 9;
    } else if (std::strcmp(a, "--faults") == 0) {
      args.faults = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.faults_spec = argv[++i];
      }
    } else if (std::strncmp(a, "--policy=", 9) == 0 ||
               (std::strcmp(a, "--policy") == 0 && i + 1 < argc)) {
      const char* spec = a[8] == '=' ? a + 9 : argv[++i];
      std::string err;
      if (!core::parse_policy_spec(spec, args.policy, &err)) {
        std::fprintf(stderr, "error: bad --policy spec \"%s\": %s\n", spec,
                     err.c_str());
        std::fprintf(stderr, "known policies:");
        for (const std::string& n : core::policy_names()) {
          std::fprintf(stderr, " %s", n.c_str());
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
      args.policy_set = true;
    } else if (std::strcmp(a, "--force") == 0) {
      args.force = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::printf("usage: %s [--jobs N] [--policy SPEC]", argv[0]);
      for (const OutputOpt& o : kOutputOpts) {
        std::printf(" [%s [PATH]]", o.flag);
      }
      std::printf(
          " [--health-strict] [--packet-sample N] [--faults [SPEC]] "
          "[--force]\n"
          "  --jobs N            worker threads for the sweep (default: "
          "WGTT_SWEEP_JOBS env or hardware concurrency)\n"
          "  --policy SPEC       handoff policy for every WGTT run, "
          "\"name[:key=val,...]\" (median_esnr, predictive, "
          "make_before_break, bicast)\n");
      for (const OutputOpt& o : kOutputOpts) {
        std::printf("  %-9s [PATH]    %s; default PATH is %s<bench>%s\n",
                    o.flag, o.help, o.default_prefix, o.default_suffix);
      }
      std::printf(
          "  --health-strict     exit 1 on any error-severity health "
          "watchdog violation (implies --health)\n"
          "  --packet-sample N   flight-record 1-in-N data packets "
          "(default 1 = every packet; markers always recorded)\n"
          "  --faults [SPEC]     inject infrastructure faults into the "
          "first simulation; SPEC grammar per EXPERIMENTS.md (\"Chaos "
          "sweeps\"), no SPEC = a seeded chaos plan\n"
          "  --force             overwrite existing output files\n");
      std::exit(0);
    }
    if (val != nullptr) {
      const long v = std::strtol(val, nullptr, 10);
      if (v > 0) args.sweep.jobs = static_cast<std::size_t>(v);
    }
  }
  return args;
}

/// Serialize `report` to BENCH_<id>.json and tell the user where it went.
inline void emit_report(const scenario::SweepReport& report) {
  const std::string path = "BENCH_" + report.bench_id + ".json";
  if (!write_text_file(path, report.to_json())) {
    std::fprintf(stderr, "warning: failed to write bench report for %s\n",
                 report.bench_id.c_str());
    return;
  }
  std::printf("\nreport: %s (%zu runs, %zu jobs, %.0f ms wall)\n",
              path.c_str(), report.runs.size(), report.jobs, report.wall_ms);
}

/// emit_report + the --health-strict gate: prints the health verdict for
/// the instrumented run(s) and exits 1 when strict mode saw any
/// error-severity watchdog violation.
inline void emit_report(const scenario::SweepReport& report,
                        const BenchArgs& args) {
  emit_report(report);
  if (!args.health) return;
  std::uint64_t windows = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::uint64_t errors = 0;
  for (const auto& run : report.runs) {
    windows += run.health_windows;
    checks += run.health_checks;
    violations += run.health_violations;
    errors += run.health_errors;
  }
  std::printf("health: %llu windows, %llu checks, %llu violations "
              "(%llu error)\n",
              static_cast<unsigned long long>(windows),
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(errors));
  if (args.health_strict && errors > 0) {
    std::fprintf(stderr,
                 "health: STRICT FAIL — %llu error-severity watchdog "
                 "violation(s)\n",
                 static_cast<unsigned long long>(errors));
    std::exit(1);
  }
}

}  // namespace wgtt::bench
