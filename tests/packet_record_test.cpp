// Per-packet flight-recorder suite (ctest label: packets).
//
// Locks down the packet-record determinism contract end to end: a fixed-seed
// drive with recording enabled must emit byte-identical JSONL from a repeat
// run and from run 0 of an 8-worker parallel sweep, every sampled packet's
// waterfall must be time-monotone, every drop/suppress record must carry a
// cause, and the controller's uplink de-duplication counter must match the
// dedup_suppress records one for one.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/experiment.h"
#include "scenario/sweep.h"
#include "util/json.h"
#include "util/jsonl.h"

namespace wgtt {
namespace {

/// The golden-trace scenario (trace_test.cpp) plus full packet recording.
scenario::DriveScenarioConfig recorded_config() {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.packet_sample = 1;
  return cfg;
}

std::vector<JsonValue> parse_jsonl(const std::string& jsonl) {
  std::vector<JsonValue> out;
  std::string error;
  EXPECT_TRUE(obs::read_jsonl(
      jsonl,
      [&](const JsonValue& v) {
        out.push_back(v);
        return true;
      },
      &error))
      << error;
  return out;
}

TEST(PacketRecordTest, ByteIdenticalAcrossRunsAndParallelSweep) {
  const auto cfg = recorded_config();
  const scenario::DriveResult first = scenario::run_drive(cfg);
  const scenario::DriveResult second = scenario::run_drive(cfg);
  ASSERT_GT(first.packet_records, 0u);
  ASSERT_FALSE(first.packet_jsonl.empty());
  EXPECT_EQ(first.packet_jsonl, second.packet_jsonl)
      << "repeat run produced a different packet log";
  EXPECT_EQ(first.packet_records, second.packet_records);

  // Same config as run 0 of an 8-worker sweep; the other seven runs vary
  // seed/system so the workers genuinely interleave different sims.
  std::vector<scenario::DriveScenarioConfig> configs{cfg};
  for (std::uint64_t seed = 8; seed < 15; ++seed) {
    scenario::DriveScenarioConfig other = recorded_config();
    other.seed = seed;
    if (seed % 3 == 0) other.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(other);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 8});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(first.packet_jsonl, outcome.runs[0].result.packet_jsonl)
      << "8-worker sweep produced a different packet log";
}

TEST(PacketRecordTest, OneLinePerRecordAndRequiredFields) {
  const scenario::DriveResult r = scenario::run_drive(recorded_config());
  std::size_t lines = 0;
  for (char ch : r.packet_jsonl) lines += ch == '\n';
  // One line per record plus the stream's schema header.
  EXPECT_EQ(lines, r.packet_records + 1);

  const std::vector<JsonValue> recs = parse_jsonl(r.packet_jsonl);
  ASSERT_EQ(recs.size(), r.packet_records + 1);
  ASSERT_TRUE(recs.front().is_object());
  EXPECT_EQ(recs.front().string_or("kind", ""), "schema");
  EXPECT_EQ(recs.front().string_or("stream", ""), "wgtt.packets");
  for (std::size_t i = 1; i < recs.size(); ++i) {
    const JsonValue& rec = recs[i];
    ASSERT_TRUE(rec.is_object());
    EXPECT_NE(rec.find("uid"), nullptr);
    EXPECT_NE(rec.find("t_us"), nullptr);
    EXPECT_NE(rec.find("hop"), nullptr);
    EXPECT_NE(rec.find("node"), nullptr);
    EXPECT_NE(rec.string_or("hop", "?"), "?");
  }
}

TEST(PacketRecordTest, WaterfallTimestampsMonotonePerPacket) {
  const scenario::DriveResult r = scenario::run_drive(recorded_config());
  std::map<std::uint64_t, double> last_t;
  std::size_t followed = 0;
  for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
    const auto uid = static_cast<std::uint64_t>(rec.number_or("uid", 0.0));
    if (uid == 0) continue;  // markers interleave freely
    const double t = rec.number_or("t_us", -1.0);
    auto [it, inserted] = last_t.try_emplace(uid, t);
    if (!inserted) {
      EXPECT_GE(t, it->second)
          << "uid " << uid << " went backwards at " << rec.string_or("hop", "?");
      it->second = t;
    }
    ++followed;
  }
  EXPECT_GT(last_t.size(), 10u) << "expected many sampled packets";
  EXPECT_GT(followed, last_t.size()) << "expected multi-hop waterfalls";
}

TEST(PacketRecordTest, EveryDropAndSuppressRecordCarriesACause) {
  const scenario::DriveResult r = scenario::run_drive(recorded_config());
  std::size_t terminal = 0;
  for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
    const std::string hop = rec.string_or("hop", "?");
    const bool is_terminal = hop == "transport_drop" || hop == "backhaul_drop" ||
                             hop == "ap_drop" || hop == "mac_drop" ||
                             hop == "dedup_suppress";
    if (!is_terminal) continue;
    ++terminal;
    EXPECT_NE(rec.string_or("cause", ""), "")
        << hop << " record without a cause";
  }
  EXPECT_GT(terminal, 0u) << "a 2 s drive should evict at least one packet";
}

TEST(PacketRecordTest, SwitchMarkersPairUpAndMatchTheSwitchLog) {
  const scenario::DriveResult r = scenario::run_drive(recorded_config());
  std::size_t starts = 0, dones = 0;
  for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
    if (static_cast<std::uint64_t>(rec.number_or("uid", 0.0)) != 0) continue;
    const std::string hop = rec.string_or("hop", "?");
    if (hop == "switch_start") ++starts;
    if (hop == "switch_done") {
      ++dones;
      EXPECT_GT(rec.number_or("gap_us", -1.0), 0.0);
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_LE(dones, starts);
  // switch_latencies_ms has one sample per completed switch.
  EXPECT_EQ(dones, r.switch_latencies_ms.size());
}

TEST(PacketRecordTest, DedupSuppressionsMatchControllerCountOnUplink) {
  // Multi-AP uplink UDP: every uplink datagram is heard (and tunneled) by
  // several APs, so the controller's src ++ IP-ID filter has real work.
  scenario::DriveScenarioConfig cfg = recorded_config();
  cfg.traffic = scenario::TrafficType::kUdpUplink;
  const scenario::DriveResult r = scenario::run_drive(cfg);
  std::size_t suppressed = 0;
  for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
    if (rec.string_or("hop", "?") == "dedup_suppress") ++suppressed;
  }
  EXPECT_GT(r.uplink_duplicates_removed, 0u)
      << "uplink run produced no duplicates to suppress";
  EXPECT_EQ(suppressed, r.uplink_duplicates_removed)
      << "flight recorder and controller disagree on suppressed duplicates";
}

TEST(PacketRecordTest, DropRecordsMatchTheHealthLedger) {
  // Every site that takes a packet out of the pipeline both counts it in the
  // health ledger and writes a drop record, so at full sampling the two
  // agree exactly.  These drives exercise the client uplink queue, the
  // baseline distribution's unassociated clients, and the baseline AP's
  // kernel-queue tail drop and reassociation flush.
  struct Drive {
    const char* name;
    scenario::SystemType system;
    scenario::TrafficType traffic;
  };
  const Drive drives[] = {
      {"wgtt_udp_uplink", scenario::SystemType::kWgtt,
       scenario::TrafficType::kUdpUplink},
      {"80211r_udp_downlink", scenario::SystemType::kEnhanced80211r,
       scenario::TrafficType::kUdpDownlink},
      {"80211r_udp_uplink", scenario::SystemType::kEnhanced80211r,
       scenario::TrafficType::kUdpUplink},
  };
  for (const Drive& d : drives) {
    SCOPED_TRACE(d.name);
    scenario::DriveScenarioConfig cfg;
    cfg.system = d.system;
    cfg.traffic = d.traffic;
    cfg.speed_mph = 25.0;
    cfg.seed = 42;
    cfg.testbed.enable_profiler = false;
    cfg.testbed.enable_packet_log = true;
    cfg.testbed.packet_sample = 1;
    cfg.testbed.enable_health = true;
    const scenario::DriveResult r = scenario::run_drive(cfg);
    std::uint64_t drop_records = 0;
    for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
      if (!rec.string_or("cause", "").empty()) ++drop_records;
    }
    double ledger_dropped = -1.0;
    for (const JsonValue& rec : parse_jsonl(r.health_jsonl)) {
      if (rec.string_or("kind", "") == "summary") {
        ledger_dropped = rec.number_or("dropped", -1.0);
      }
    }
    EXPECT_GT(drop_records, 0u);
    EXPECT_EQ(static_cast<double>(drop_records), ledger_dropped);
  }
}

TEST(PacketRecordTest, SamplingThinsRecordsDeterministically) {
  scenario::DriveScenarioConfig cfg = recorded_config();
  cfg.testbed.packet_sample = 8;
  const scenario::DriveResult sampled = scenario::run_drive(cfg);
  const scenario::DriveResult sampled2 = scenario::run_drive(cfg);
  const scenario::DriveResult full = scenario::run_drive(recorded_config());
  ASSERT_GT(sampled.packet_records, 0u);
  EXPECT_LT(sampled.packet_records, full.packet_records / 2);
  EXPECT_EQ(sampled.packet_jsonl, sampled2.packet_jsonl);
  // Markers survive any sampling rate (switch attribution depends on them).
  EXPECT_NE(sampled.packet_jsonl.find("\"hop\":\"switch_start\""),
            std::string::npos);
}

TEST(PacketRecordTest, RecorderOffLeavesResultEmpty) {
  scenario::DriveScenarioConfig cfg = recorded_config();
  cfg.testbed.enable_packet_log = false;
  const scenario::DriveResult r = scenario::run_drive(cfg);
  EXPECT_EQ(r.packet_records, 0u);
  EXPECT_TRUE(r.packet_jsonl.empty());
}

}  // namespace
}  // namespace wgtt
