// wgtt-report output suite (ctest label: report).
//
// Pins what each wgtt-report subcommand prints, so a change to the analyzer
// cannot silently move a table: the exit code and the SHA-256 of stdout of
// `show`, `show --json` and `diff` on the committed bench baselines, and of
// `packets`, `decisions`, `health` and `critical-path` on the streams of the
// golden drive (trace_test.cpp) and of its control-plane chaos variant, plus
// the bytes of the files `health --emit-baseline` and `critical-path --dot`
// write.  Paths in stdout are replaced by fixed tokens before hashing.  If a
// report change is intentional, repin from the printed "actual" values.
//
// The flag tests pin the command-line contract: flags go anywhere, as
// `--name V` or `--name=V`, and a numeric flag whose whole value is not a
// non-negative number (an integer for --limit and --packets) is a usage
// error, exit 2.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/experiment.h"
#include "sim/fault_plan.h"
#include "util/json.h"
#include "util/sha256.h"

#ifndef WGTT_REPORT_BIN
#error "build must define WGTT_REPORT_BIN (path to the wgtt-report binary)"
#endif
#ifndef WGTT_BASELINE_DIR
#error "build must define WGTT_BASELINE_DIR (path to bench/baselines)"
#endif

namespace wgtt {
namespace {

/// Exit code and SHA-256 of one pinned output: stdout (with paths replaced
/// by tokens) or, for an exit code of -1, the bytes of a written file.
struct Pin {
  std::string_view name;
  int exit_code;
  std::string_view sha256;
};

constexpr Pin kPins[] = {
    {"show fig13", 0,
     "8a03d2a446eeb0096678a8a38ac3662cef029d50ba60639b2f87d6a8c69b9c4c"},
    {"show --json fig13", 0,
     "1cc33b9ff1849cefc946349d9ae4f9f2da540172b247ab2430d12ff5e789d6e2"},
    {"show chaos", 0,
     "98f9ee43c9aa1a4599b20cdecdf61443abe1ac555502e4724492cf6484ff7b95"},
    {"show --json chaos", 0,
     "8caf0ef223da5430b0e65631124d31afbd5a9a17db55948d45cacddbd82e16bf"},
    {"diff fig13 fig13", 0,
     "e3282b7f6d4e52559c7035367eb6eb623c5921501cfe90ae763f795d6ba80618"},
    {"diff fig13 slow_row", 1,
     "784c86c871e0834d89111db2535da0f7b19c12415202ba809324376ec713b6d7"},
    {"diff chaos chaos --soft", 0,
     "7274285f08d7c94c64a1f5d2282812ec184749674a4d2de8db9122f16ac24d04"},
    {"golden packets --switches --limit 3", 0,
     "d9c38701829488de914cda090feef5269102377132c97a8698bb3df9536d56a5"},
    {"golden decisions", 0,
     "b946ef3a5130846a22f6170fef3dedb3c643a98fbe385d0091279461915d1a35"},
    {"golden health --emit-baseline", 0,
     "44cf1951382729a04f724365266c1817be78b4425321e8e86bf0acc598aaf773"},
    {"golden health --strict --baseline", 0,
     "cf2cd41b10ad053c34acd5cb4228f2f18a9ff0d160943cb02845bb6dd7a87679"},
    {"golden health baseline file", -1,
     "806371cc4f9b015d49db4fc3eb33c95cb8d4083ecb3ef57df8679ac11a91fd06"},
    {"golden critical-path --dot", 0,
     "936b4d4145681069f7284e8b3f0129a604af20bad076898d0ae9e8a3f99d2bdc"},
    {"golden critical-path dot file", -1,
     "3abb62e56c58a238e71af7ae5dee643f755501f986f7dd388e2c4461f582c8ea"},
    {"chaos packets --switches --limit 3", 0,
     "8e4feb412f77e00ae4149a4bfb7581a476be978ba48145b3dfa7a42dfadfadb5"},
    {"chaos decisions", 0,
     "5ec0786a04db7da71a3f94b0d631b9131d46366ba0463cafd1f8ce286cd47d3d"},
    {"chaos health --emit-baseline", 0,
     "b14d2f28da62a915cc578386994e1dc4a440ad515db1b18ebef484bd7f4d5ae5"},
    {"chaos health --strict --baseline", 0,
     "aac55b5984356e29610300afdfedffb16d7a3f6f5b4dd27874970f6233b5d113"},
    {"chaos health baseline file", -1,
     "b1b921df407b8d6a6732214c9154a3efb57ae115b6e4bd728d629a88972b2b66"},
    {"chaos critical-path --dot", 0,
     "4f03d2ba46d1d80b1101e6c9e49013abb8391ff1ef4361c431e281215d78a758"},
    {"chaos critical-path dot file", -1,
     "76c5450f900479dc241d12ad8af6cf2ce4b6cad9c45a31da297650246eb982c3"},
};

struct Output {
  int exit_code = -1;
  std::string stdout_text;
};

/// Runs wgtt-report with `args` (stderr discarded) and captures stdout.
Output run_report(const std::string& args) {
  const std::string cmd =
      std::string(WGTT_REPORT_BIN) + " " + args + " 2>/dev/null";
  Output out;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.stdout_text.append(buf, n);
  }
  out.exit_code = WEXITSTATUS(::pclose(pipe));
  return out;
}

/// Every occurrence of each (path, token) pair's path replaced by its token.
using Tokens = std::vector<std::pair<std::string, std::string>>;
std::string redact(std::string text, const Tokens& tokens) {
  for (const auto& [path, token] : tokens) {
    for (std::size_t at = text.find(path); at != std::string::npos;
         at = text.find(path, at + token.size())) {
      text.replace(at, path.size(), token);
    }
  }
  return text;
}

const Pin* find_pin(std::string_view name) {
  for (const Pin& p : kPins) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void expect_pinned(std::string_view name, int exit_code,
                   const std::string& bytes) {
  const std::string sha = sha256_hex(bytes);
  const Pin* pin = find_pin(name);
  ASSERT_NE(pin, nullptr) << "no pin named \"" << name << "\"";
  EXPECT_EQ(exit_code, pin->exit_code) << name << ": exit code moved";
  EXPECT_EQ(sha, pin->sha256)
      << name << ": output drifted; if intentional, repin with the actual "
      << "hash.  Output:\n"
      << bytes;
}

/// Runs `args` and checks exit code and redacted stdout against pin `name`.
void expect_report(std::string_view name, const std::string& args,
                   const Tokens& tokens) {
  SCOPED_TRACE(args);
  const Output out = run_report(args);
  expect_pinned(name, out.exit_code, redact(out.stdout_text, tokens));
}

/// Checks the bytes of a file a subcommand wrote against pin `name`.
void expect_file(std::string_view name, const std::string& path) {
  std::string bytes;
  ASSERT_TRUE(read_text_file(path, bytes)) << name << ": " << path;
  expect_pinned(name, -1, bytes);
  std::remove(path.c_str());
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wgtt_report_" + info->name() + "_" + tag;
}

std::string baseline(const char* name) {
  return std::string(WGTT_BASELINE_DIR) + "/" + name;
}

/// fig13.json with the first run row's wall time raised to 9999 ms, which
/// breaks any per-row budget below that.
std::string write_slow_row_report() {
  std::string text;
  EXPECT_TRUE(read_text_file(baseline("fig13.json"), text));
  const std::size_t row = text.find("\"runs\":[");
  const std::size_t key = text.find("\"wall_ms\":", row);
  EXPECT_NE(key, std::string::npos);
  const std::size_t value = key + std::string_view("\"wall_ms\":").size();
  const std::size_t end = text.find_first_of(",}", value);
  text.replace(value, end - value, "9999");
  const std::string path = temp_path("slow_row.json");
  EXPECT_TRUE(write_text_file(path, text));
  return path;
}

/// The golden drive of trace_test.cpp with every JSONL stream on; `chaos`
/// adds the control-plane fault schedule of its chaos stream pins.
scenario::DriveResult observed_drive(bool chaos) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.enable_causal = true;
  cfg.testbed.enable_health = true;
  if (chaos) {
    cfg.testbed.faults =
        sim::FaultPlan::control_chaos(1.5, cfg.duration, 8, cfg.seed);
  }
  return scenario::run_drive(cfg);
}

/// Pins every stream subcommand's output on one drive's streams.
void expect_stream_reports(const std::string& drive, bool chaos) {
  const scenario::DriveResult r = observed_drive(chaos);
  const std::pair<const char*, const std::string*> streams[] = {
      {"packets", &r.packet_jsonl},
      {"decisions", &r.decision_jsonl},
      {"health", &r.health_jsonl},
      {"causal", &r.causal_jsonl},
  };
  Tokens tokens;
  for (const auto& [stream, bytes] : streams) {
    ASSERT_FALSE(bytes->empty()) << drive << " drive emitted no " << stream;
    const std::string path = temp_path(std::string(stream) + ".jsonl");
    ASSERT_TRUE(write_text_file(path, *bytes));
    tokens.emplace_back(path, std::string("<") + stream + ">");
  }
  const std::string packets = tokens[0].first;
  const std::string decisions = tokens[1].first;
  const std::string health = tokens[2].first;
  const std::string causal = tokens[3].first;
  const std::string health_baseline = temp_path("health_baseline.json");
  const std::string dot = temp_path("critical_path.dot");
  tokens.emplace_back(health_baseline, "<baseline>");
  tokens.emplace_back(dot, "<dot>");

  expect_report(drive + " packets --switches --limit 3",
                "packets " + packets + " --switches --limit 3", tokens);
  expect_report(drive + " decisions", "decisions " + decisions, tokens);
  expect_report(drive + " health --emit-baseline",
                "health " + health + " --emit-baseline " + health_baseline,
                tokens);
  expect_report(drive + " health --strict --baseline",
                "health --strict " + health + " --baseline=" + health_baseline,
                tokens);
  expect_file(drive + " health baseline file", health_baseline);
  expect_report(drive + " critical-path --dot",
                "critical-path " + causal + " --dot " + dot, tokens);
  expect_file(drive + " critical-path dot file", dot);
  for (const auto& [path, token] : tokens) std::remove(path.c_str());
}

TEST(ReportOutputTest, ShowPrintsPinnedTables) {
  const std::string fig13 = baseline("fig13.json");
  const std::string chaos = baseline("chaos.json");
  const Tokens tokens{{fig13, "<fig13>"}, {chaos, "<chaos>"}};
  expect_report("show fig13", "show " + fig13, tokens);
  expect_report("show --json fig13", "show --json " + fig13, tokens);
  expect_report("show chaos", "show " + chaos, tokens);
  expect_report("show --json chaos", "show " + chaos + " --json", tokens);
}

TEST(ReportOutputTest, DiffPrintsPinnedVerdicts) {
  const std::string fig13 = baseline("fig13.json");
  const std::string chaos = baseline("chaos.json");
  const std::string slow = write_slow_row_report();
  const Tokens tokens{{fig13, "<fig13>"}, {chaos, "<chaos>"}, {slow, "<slow>"}};
  expect_report("diff fig13 fig13", "diff " + fig13 + " " + fig13, tokens);
  expect_report("diff fig13 slow_row",
                "diff " + fig13 + " " + slow +
                    " --tolerance 100000 --soft --budget-ms 2000",
                tokens);
  expect_report("diff chaos chaos --soft",
                "diff --soft " + chaos + " " + chaos, tokens);
  std::remove(slow.c_str());
}

TEST(ReportOutputTest, GoldenDriveStreamReportsArePinned) {
  expect_stream_reports("golden", /*chaos=*/false);
}

TEST(ReportOutputTest, ChaosDriveStreamReportsArePinned) {
  expect_stream_reports("chaos", /*chaos=*/true);
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

TEST(ReportFlagTest, MalformedNumericFlagsExitTwo) {
  const std::string fig13 = baseline("fig13.json");
  const std::string slow = write_slow_row_report();
  // A well-formed budget trips on the 9999 ms row, in either spelling and
  // with flags before, between or after the two reports.
  for (const char* budget : {"--budget-ms 2000", "--budget-ms=2000"}) {
    SCOPED_TRACE(budget);
    EXPECT_EQ(run_report("diff " + fig13 + " " + slow +
                         " --tolerance 100000 --soft " + budget)
                  .exit_code,
              1);
    EXPECT_EQ(run_report(std::string("diff ") + budget + " " + fig13 +
                         " --soft " + slow + " --tolerance=100000")
                  .exit_code,
              1);
  }
  // Read as a numeric prefix, each of these would be a number: "two" a 0
  // budget, which switches the hard budget off (exit 0 over the 9999 ms
  // row), and "2O00" (letter O) a 2 ms budget.
  const std::string diff = "diff " + fig13 + " " + slow + " --soft ";
  for (const char* flags : {"--tolerance 100000 --budget-ms=two",
                            "--tolerance 100000 --budget-ms 2O00",
                            "--tolerance 100000 --budget-ms -2000",
                            "--tolerance 100000 --budget-ms=",
                            "--tolerance 100000 --budget-ms nan",
                            "--tolerance 100000 --budget-ms inf",
                            "--tolerance 1e5x", "--tolerance=-5",
                            "--tolerance 25%"}) {
    SCOPED_TRACE(flags);
    const Output out = run_report(diff + flags);
    EXPECT_EQ(out.exit_code, 2);
    EXPECT_EQ(out.stdout_text, "");
  }
  std::remove(slow.c_str());
}

TEST(ReportFlagTest, MalformedCountFlagsExitTwo) {
  const scenario::DriveResult r = observed_drive(/*chaos=*/false);
  const std::string packets = temp_path("packets.jsonl");
  const std::string causal = temp_path("causal.jsonl");
  ASSERT_TRUE(write_text_file(packets, r.packet_jsonl));
  ASSERT_TRUE(write_text_file(causal, r.causal_jsonl));
  EXPECT_EQ(run_report("packets " + packets + " --limit 3").exit_code, 0);
  EXPECT_EQ(run_report("critical-path --packets=3 " + causal).exit_code, 0);
  // Read as a numeric prefix, "-1" would wrap to SIZE_MAX and the others
  // would be their numeric prefix or 0.
  for (const char* flag : {"--limit -1", "--limit 3x", "--limit=",
                           "--limit 2.5", "--limit 99999999999999999999999"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_report("packets " + packets + " " + flag).exit_code, 2);
  }
  for (const char* flag : {"--packets -1", "--packets=five", "--packets 1e3"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_report("critical-path " + causal + " " + flag).exit_code, 2);
  }
  std::remove(packets.c_str());
  std::remove(causal.c_str());
}

}  // namespace
}  // namespace wgtt
