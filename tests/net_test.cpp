// Unit tests for net: packet construction, tunneling, dedup keys, and the
// backhaul latency/ordering model.
#include <gtest/gtest.h>

#include "net/backhaul.h"
#include "net/flight_recorder.h"
#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "transport/udp_flow.h"
#include "util/rng.h"

namespace wgtt::net {
namespace {

Packet data_packet(NodeId src, NodeId dst, std::size_t size = 1500) {
  Packet p;
  p.type = PacketType::kData;
  p.src = src;
  p.dst = dst;
  p.size_bytes = size;
  return p;
}

TEST(PacketTest, UniqueUids) {
  auto a = make_packet(data_packet(1, 2));
  auto b = make_packet(data_packet(1, 2));
  EXPECT_NE(a->uid, b->uid);
}

TEST(PacketTest, NodeClassification) {
  EXPECT_TRUE(is_ap(1));
  EXPECT_TRUE(is_ap(8));
  EXPECT_FALSE(is_ap(kControllerId));
  EXPECT_TRUE(is_client(kClientBase));
  EXPECT_FALSE(is_client(kServerBase));
  EXPECT_FALSE(is_client(5));
}

TEST(PacketTest, DedupKeyCompositionMatchesPaper) {
  // 48-bit key: source address ++ IP-ID (§3.2.2).
  Packet p = data_packet(kClientBase, kServerBase);
  p.ip_id = 0xBEEF;
  const std::uint64_t key = dedup_key(p);
  EXPECT_EQ(key & 0xFFFF, 0xBEEFu);
  EXPECT_EQ(key >> 16, kClientBase);
}

TEST(PacketTest, DedupKeyDistinguishesSources) {
  Packet a = data_packet(kClientBase, kServerBase);
  Packet b = data_packet(kClientBase + 1, kServerBase);
  a.ip_id = b.ip_id = 7;
  EXPECT_NE(dedup_key(a), dedup_key(b));
}

TEST(PacketTest, PayloadRoundTrip) {
  struct Custom {
    int x;
  };
  Packet p = data_packet(1, 2);
  p.payload = Custom{42};
  auto pkt = make_packet(std::move(p));
  const Custom* c = payload_as<Custom>(*pkt);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->x, 42);
  EXPECT_EQ(payload_as<int>(*pkt), nullptr);  // type mismatch -> nullptr
}

TEST(TunnelTest, EncapAddsOverheadAndPreservesInner) {
  auto inner = make_packet(data_packet(kClientBase, kServerBase, 1000));
  TunneledPacket t = encapsulate(inner, 3, kControllerId);
  EXPECT_EQ(t.outer_src, 3u);
  EXPECT_EQ(t.outer_dst, kControllerId);
  EXPECT_EQ(t.wire_bytes, 1000 + kTunnelOverheadBytes);
  EXPECT_EQ(decapsulate(t)->uid, inner->uid);
  // Inner addressing unchanged — the AP must still see the client's L2/L3
  // destination (§3.1.3).
  EXPECT_EQ(decapsulate(t)->dst, kServerBase);
}

// ---------------------------------------------------------------------------
// Backhaul
// ---------------------------------------------------------------------------

class BackhaulTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  BackhaulConfig cfg;
  Rng rng{99};
};

TEST_F(BackhaulTest, DeliversToAttachedNode) {
  cfg.jitter = Time::zero();
  Backhaul bh(sched, cfg, rng);
  int got = 0;
  bh.attach(2, [&](const TunneledPacket&) { ++got; });
  bh.send(encapsulate(make_packet(data_packet(1, 2)), 1, 2));
  sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(bh.frames_sent(), 1u);
}

TEST_F(BackhaulTest, DropsToUnattachedNode) {
  Backhaul bh(sched, cfg, rng);
  bh.send(encapsulate(make_packet(data_packet(1, 2)), 1, 7));
  sched.run();
  EXPECT_EQ(bh.frames_dropped(), 1u);
  EXPECT_EQ(bh.frames_sent(), 0u);
}

TEST_F(BackhaulTest, LatencyIncludesSerialization) {
  cfg.jitter = Time::zero();
  cfg.base_latency = Time::us(100);
  cfg.link_rate_bps = 1e9;
  Backhaul bh(sched, cfg, rng);
  Time arrival;
  bh.attach(2, [&](const TunneledPacket&) { arrival = sched.now(); });
  auto inner = make_packet(data_packet(1, 2, 1000 - kTunnelOverheadBytes));
  bh.send(encapsulate(inner, 1, 2));  // 1000 bytes on the wire
  sched.run();
  // 100 us base + 8 us serialization of 1000 B at 1 Gb/s.
  EXPECT_EQ(arrival, Time::us(108));
}

TEST_F(BackhaulTest, FifoPerPairDespiteJitter) {
  cfg.jitter = Time::us(500);  // heavy jitter
  Backhaul bh(sched, cfg, rng);
  std::vector<std::uint64_t> order;
  bh.attach(2, [&](const TunneledPacket& f) { order.push_back(f.inner->uid); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 20; ++i) {
    auto pkt = make_packet(data_packet(1, 2, 100));
    sent.push_back(pkt->uid);
    bh.send(encapsulate(pkt, 1, 2));
  }
  sched.run();
  EXPECT_EQ(order, sent);
}

TEST_F(BackhaulTest, LossInjection) {
  cfg.loss_rate = 1.0;
  Backhaul bh(sched, cfg, rng);
  int got = 0;
  bh.attach(2, [&](const TunneledPacket&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    bh.send(encapsulate(make_packet(data_packet(1, 2)), 1, 2));
  }
  sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bh.frames_dropped(), 10u);
}

TEST_F(BackhaulTest, BytesAccounted) {
  cfg.jitter = Time::zero();
  Backhaul bh(sched, cfg, rng);
  bh.attach(2, [](const TunneledPacket&) {});
  bh.send(encapsulate(make_packet(data_packet(1, 2, 500)), 1, 2));
  sched.run();
  EXPECT_EQ(bh.bytes_sent(), 500 + kTunnelOverheadBytes);
}

// ---------------------------------------------------------------------------
// Dedup key vs the IP-ID counter
// ---------------------------------------------------------------------------

TEST(PacketTest, DedupKeyIpIdWraparound) {
  // The per-source IP-ID counter is 16 bits and wraps at 65535 -> 0, so the
  // 48-bit src ++ IP-ID key repeats after 65536 packets from one source —
  // which is exactly why the controller ages dedup entries out (§3.2.2).
  transport::IpIdAllocator ids;
  EXPECT_EQ(ids.next(kClientBase), 0u);
  for (int i = 1; i < 65535; ++i) ids.next(kClientBase);
  EXPECT_EQ(ids.next(kClientBase), 65535u);
  EXPECT_EQ(ids.next(kClientBase), 0u);  // wrapped

  Packet first = data_packet(kClientBase, kServerBase);
  first.ip_id = 0;
  Packet last = data_packet(kClientBase, kServerBase);
  last.ip_id = 65535;
  Packet wrapped = data_packet(kClientBase, kServerBase);
  wrapped.ip_id = 0;
  EXPECT_NE(dedup_key(first), dedup_key(last));
  EXPECT_EQ(dedup_key(first), dedup_key(wrapped));
}

TEST(PacketTest, DedupKeyDistinguishesIpIdsOfOneSource) {
  Packet a = data_packet(kClientBase, kServerBase);
  Packet b = data_packet(kClientBase, kServerBase);
  a.ip_id = 7;
  b.ip_id = 8;
  EXPECT_NE(dedup_key(a), dedup_key(b));
}

// ---------------------------------------------------------------------------
// Exhaustive PacketType coverage (describe / to_string)
// ---------------------------------------------------------------------------

TEST(PacketTest, ToStringCoversEveryPacketType) {
  for (std::size_t i = 0; i < kPacketTypeCount; ++i) {
    const auto t = static_cast<PacketType>(i);
    EXPECT_STRNE(to_string(t), "?") << "PacketType " << i << " unnamed";
  }
  EXPECT_STREQ(to_string(static_cast<PacketType>(kPacketTypeCount)), "?");
}

TEST(PacketTest, DescribeNamesEveryPacketType) {
  for (std::size_t i = 0; i < kPacketTypeCount; ++i) {
    Packet p = data_packet(kClientBase, kServerBase);
    p.type = static_cast<PacketType>(i);
    const std::string text = describe(p);
    EXPECT_NE(text.find(to_string(p.type)), std::string::npos)
        << "describe() output missing type name for PacketType " << i;
  }
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, HopNamesAreExhaustive) {
  for (std::size_t i = 0; i < kHopCount; ++i) {
    EXPECT_STRNE(to_string(static_cast<Hop>(i)), "?") << "Hop " << i;
  }
  EXPECT_STREQ(to_string(static_cast<Hop>(kHopCount)), "?");
}

TEST(FlightRecorderTest, DropCauseNamesAreExhaustive) {
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    EXPECT_STRNE(to_string(static_cast<DropCause>(i)), "?")
        << "DropCause " << i << " unnamed";
  }
  EXPECT_STREQ(to_string(static_cast<DropCause>(kDropCauseCount)), "?");
  EXPECT_STREQ(to_string(DropCause::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(DropCause::kNotAssociated), "not_associated");
}

TEST(FlightRecorderTest, JsonlShapeIsFixedFieldOrder) {
  FlightRecorder r;
  r.record(7, Time::us(1500), Hop::kCtrlFanout, 0, {{"ap", 3}, {"index", 12}});
  r.drop(7, Time::us(2500), Hop::kApDrop, 4, DropCause::kStale,
         {{"client", 100}});
  r.marker(Time::us(3000), Hop::kSwitchStart, 0, {{"client", 100}});
  EXPECT_EQ(r.records(), 3u);
  EXPECT_EQ(
      r.jsonl(),
      "{\"kind\":\"schema\",\"stream\":\"wgtt.packets\",\"version\":1}\n"
      "{\"uid\":7,\"t_us\":1500.000,\"hop\":\"ctrl_fanout\",\"node\":0,"
      "\"ap\":3,\"index\":12}\n"
      "{\"uid\":7,\"t_us\":2500.000,\"hop\":\"ap_drop\",\"node\":4,"
      "\"client\":100,\"cause\":\"stale\"}\n"
      "{\"uid\":0,\"t_us\":3000.000,\"hop\":\"switch_start\",\"node\":0,"
      "\"client\":100}\n");
}

TEST(FlightRecorderTest, SamplerIsSeededDeterministicAndKeepsMarkers) {
  FlightRecorder r(FlightRecorderConfig{42, 4});
  EXPECT_TRUE(r.sampled(0));  // markers always pass
  std::size_t hits = 0;
  for (std::uint64_t uid = 1; uid <= 4096; ++uid) {
    const bool s = r.sampled(uid);
    EXPECT_EQ(s, r.sampled(uid));  // stable per uid
    hits += s;
  }
  // ~1 in 4 of a well-mixed hash; generous bounds, no flakiness.
  EXPECT_GT(hits, 4096u / 8);
  EXPECT_LT(hits, 4096u / 2);
  // A different seed selects a different subset.
  FlightRecorder other(FlightRecorderConfig{43, 4});
  std::size_t differs = 0;
  for (std::uint64_t uid = 1; uid <= 4096; ++uid) {
    differs += r.sampled(uid) != other.sampled(uid);
  }
  EXPECT_GT(differs, 0u);
  // Unsampled records write nothing.
  FlightRecorder none(FlightRecorderConfig{42, 1 << 30});
  std::uint64_t skipped = 1;
  while (none.sampled(skipped)) ++skipped;
  none.record(skipped, Time::us(1), Hop::kMacTx, 1);
  EXPECT_EQ(none.records(), 0u);
  // Only the schema header — no packet records.
  EXPECT_EQ(none.jsonl(),
            "{\"kind\":\"schema\",\"stream\":\"wgtt.packets\",\"version\":1}\n");
}

TEST(FlightRecorderTest, ScopedInstallNestsAndNullKeepsCurrent) {
  FlightRecorder* before = obs::Context::current().recorder;
  FlightRecorder a, b;
  const obs::Context ca{.recorder = &a}, cb{.recorder = &b};
  {
    obs::ScopedContext sa(&ca);
    EXPECT_EQ(obs::Context::current().recorder, &a);
    {
      obs::ScopedContext keep(nullptr);
      EXPECT_EQ(obs::Context::current().recorder, &a);
      obs::ScopedContext sb(&cb);
      EXPECT_EQ(obs::Context::current().recorder, &b);
    }
    EXPECT_EQ(obs::Context::current().recorder, &a);
  }
  EXPECT_EQ(obs::Context::current().recorder, before);
}

TEST(PacketTest, ScopedUidAllocatorRestartsPerSim) {
  PacketUidAllocator sim_a, sim_b;
  {
    ScopedPacketUidAllocator scope_a(&sim_a);
    EXPECT_EQ(make_packet(data_packet(1, 2))->uid, 1u);
    EXPECT_EQ(make_packet(data_packet(1, 2))->uid, 2u);
    {
      ScopedPacketUidAllocator scope_b(&sim_b);
      EXPECT_EQ(make_packet(data_packet(1, 2))->uid, 1u);
    }
    EXPECT_EQ(make_packet(data_packet(1, 2))->uid, 3u);
  }
}

}  // namespace
}  // namespace wgtt::net
