// Shared JSONL schema-header conformance suite.
//
// Every JSONL emitter in the stack — decision log, packet flight recorder,
// health engine, causal tracer — must open its stream with a
// {"kind":"schema","stream":...,"version":N} header, and `wgtt-report` must
// refuse (exit 2) a stream whose version it does not understand.  One
// parameterized test pins that contract for all four streams so a new
// emitter can't ship headerless and an old tool can't silently misread a
// newer stream.  Drives the real wgtt-report binary, like the diff suite.
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "scenario/experiment.h"
#include "util/json.h"

#ifndef WGTT_REPORT_BIN
#error "build must define WGTT_REPORT_BIN (path to the wgtt-report binary)"
#endif

namespace wgtt {
namespace {

struct StreamCase {
  const char* stream;                           // schema header stream name
  const char* subcommand;                       // wgtt-report reader
  std::string scenario::DriveResult::*field;    // where the drive puts it
};

/// One fixed-seed drive with every JSONL emitter enabled, shared across all
/// parameter instantiations (the streams are independent observers of the
/// same simulation).
const scenario::DriveResult& observed_drive() {
  static const scenario::DriveResult result = [] {
    scenario::DriveScenarioConfig cfg;
    cfg.system = scenario::SystemType::kWgtt;
    cfg.traffic = scenario::TrafficType::kTcpDownlink;
    cfg.speed_mph = 25.0;
    cfg.duration = Time::sec(2);
    cfg.seed = 7;
    cfg.testbed.enable_decision_log = true;
    cfg.testbed.enable_packet_log = true;
    cfg.testbed.enable_health = true;
    cfg.testbed.enable_causal = true;
    return scenario::run_drive(cfg);
  }();
  return result;
}

class SchemaHeaderTest : public ::testing::TestWithParam<StreamCase> {
 protected:
  std::string temp_path(const char* tag) const {
    return ::testing::TempDir() + "wgtt_schema_" + GetParam().subcommand +
           "_" + tag + ".jsonl";
  }

  int run_report(const std::string& file) const {
    const std::string cmd = std::string(WGTT_REPORT_BIN) + " " +
                            GetParam().subcommand + " " + file +
                            " > /dev/null 2>&1";
    return WEXITSTATUS(std::system(cmd.c_str()));
  }
};

TEST_P(SchemaHeaderTest, StreamOpensWithValidSchemaHeader) {
  const std::string& jsonl = observed_drive().*(GetParam().field);
  ASSERT_FALSE(jsonl.empty()) << GetParam().stream << " emitted nothing";

  const std::string first = jsonl.substr(0, jsonl.find('\n'));
  JsonValue header;
  std::string err;
  ASSERT_TRUE(json_parse(first, header, &err))
      << GetParam().stream << " header is not valid JSON: " << err;
  EXPECT_EQ(header.string_or("kind", ""), "schema")
      << GetParam().stream
      << " does not open with a {\"kind\":\"schema\"} header record";
  EXPECT_EQ(header.string_or("stream", ""), GetParam().stream)
      << "header names the wrong stream";
  EXPECT_GE(header.number_or("version", 0.0), 1.0)
      << "header carries no version, so no reader can check its schema";
}

TEST_P(SchemaHeaderTest, ReportReadsStreamAndRejectsUnknownVersion) {
  const std::string& jsonl = observed_drive().*(GetParam().field);
  ASSERT_FALSE(jsonl.empty());

  // The tool must accept what the simulator emitted today (0 ok, 1 is a
  // legitimate gate verdict for the health reader — anything but 2).
  const std::string good = temp_path("good");
  ASSERT_TRUE(write_text_file(good, jsonl));
  EXPECT_NE(run_report(good), 2)
      << GetParam().subcommand
      << " exited 2 (schema error) on the schema header its own emitter "
         "wrote, so reader and writer disagree on the stream's record format";

  // Bump the header's version far past anything this tool understands: the
  // reader must refuse with the schema exit code rather than guess.
  std::string doctored = jsonl;
  const std::size_t at = doctored.find("\"version\":");
  ASSERT_NE(at, std::string::npos);
  std::size_t digit = at + std::strlen("\"version\":");
  std::size_t end = digit;
  while (end < doctored.size() &&
         std::isdigit(static_cast<unsigned char>(doctored[end]))) {
    ++end;
  }
  ASSERT_GT(end, digit);
  doctored.replace(digit, end - digit, "999");
  const std::string bad = temp_path("bad");
  ASSERT_TRUE(write_text_file(bad, doctored));
  EXPECT_EQ(run_report(bad), 2)
      << GetParam().subcommand << " accepted schema version 999";
}

INSTANTIATE_TEST_SUITE_P(
    AllStreams, SchemaHeaderTest,
    ::testing::Values(
        StreamCase{"wgtt.decisions", "decisions",
                   &scenario::DriveResult::decision_jsonl},
        StreamCase{"wgtt.packets", "packets",
                   &scenario::DriveResult::packet_jsonl},
        StreamCase{"wgtt.health", "health",
                   &scenario::DriveResult::health_jsonl},
        StreamCase{"wgtt.causal", "critical-path",
                   &scenario::DriveResult::causal_jsonl}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      std::string name = info.param.subcommand;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace wgtt
