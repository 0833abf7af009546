// Adversarial grammar tests for the three text formats the repo accepts
// from the outside world: handoff-policy specs ("name[:k=v,...]"), fault
// plans (the --faults clause grammar), and the hand-rolled JSON parser that
// re-loads bench reports.  Each parser must reject malformed, truncated,
// and overlong input with a precise error — never crash, loop, or read out
// of bounds — and canonical renderings must round-trip:
// parse(to_string(x)) == x.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/handoff_policy.h"
#include "sim/fault_plan.h"
#include "util/json.h"
#include "util/rng.h"

namespace wgtt {
namespace {

// ---------------------------------------------------------------------------
// util/json json_parse
// ---------------------------------------------------------------------------

bool json_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber: return a.as_number() == b.as_number();
    case JsonValue::Kind::kString: return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray: {
      if (a.as_array().size() != b.as_array().size()) return false;
      for (std::size_t i = 0; i < a.as_array().size(); ++i) {
        if (!json_equal(a.as_array()[i], b.as_array()[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.as_object().size() != b.as_object().size()) return false;
      auto ia = a.as_object().begin();
      auto ib = b.as_object().begin();
      for (; ia != a.as_object().end(); ++ia, ++ib) {
        if (ia->first != ib->first) return false;
        if (!json_equal(ia->second, ib->second)) return false;
      }
      return true;
    }
  }
  return false;
}

// Render a parsed value back through JsonWriter — the canonical rendering
// whose re-parse must reproduce the same tree.
void render(const JsonValue& v, JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: w.null(); break;
    case JsonValue::Kind::kBool: w.value(v.as_bool()); break;
    case JsonValue::Kind::kNumber: w.value(v.as_number()); break;
    case JsonValue::Kind::kString: w.value(v.as_string()); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.as_array()) render(e, w);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.as_object()) {
        w.key(k);
        render(e, w);
      }
      w.end_object();
      break;
  }
}

TEST(JsonGrammar, MalformedDocumentsRejectWithOffset) {
  const std::vector<std::string> bad = {
      "",          "{",        "[",           "}",          "]",
      "\"abc",     "{\"a\"",   "{\"a\":}",    "{\"a\":1,}", "[1,]",
      "[1 2]",     "tru",      "nul",         "falsey",     "abc",
      "--1",       "+",        "-",           "1e",         "1.2.3",
      "{1:2}",     "{\"a\" 1}", "'single'",   "1 x",        "   ",
      "{\"a\":1}{", "\x01",
  };
  for (const std::string& doc : bad) {
    JsonValue out;
    std::string error;
    EXPECT_FALSE(json_parse(doc, out, &error)) << "doc: " << doc;
    EXPECT_NE(error.find("offset"), std::string::npos)
        << "error lacks byte offset for doc: " << doc << " (" << error << ")";
  }
}

TEST(JsonGrammar, TruncatedDocumentsReject) {
  const std::string whole =
      "{\"runs\":[{\"label\":\"udp_25mph\",\"wall_ms\":120.5,\"ok\":true}]}";
  JsonValue out;
  ASSERT_TRUE(json_parse(whole, out, nullptr));
  // Every proper prefix must fail cleanly — none may crash or accept.
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(json_parse(whole.substr(0, cut), v, &error))
        << "prefix length " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonGrammar, HostileNestingIsDepthBoundedNotStackBound) {
  // Far beyond the parser's depth cap; must return "nesting too deep"
  // without touching the process stack proportionally.
  const std::string deep_array(100000, '[');
  const std::string deep_object = [] {
    std::string s;
    for (int i = 0; i < 50000; ++i) s += "{\"a\":";
    return s;
  }();
  for (const std::string& doc : {deep_array, deep_object}) {
    JsonValue out;
    std::string error;
    EXPECT_FALSE(json_parse(doc, out, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  }
  // At or under the cap, deep but legal nesting parses.
  std::string legal;
  for (int i = 0; i < 100; ++i) legal += '[';
  legal += '1';
  for (int i = 0; i < 100; ++i) legal += ']';
  JsonValue out;
  EXPECT_TRUE(json_parse(legal, out, nullptr));
}

TEST(JsonGrammar, StringEscapesAndSurrogates) {
  JsonValue out;
  std::string error;

  // Escapes decode; \u0000 yields a real embedded NUL.
  ASSERT_TRUE(json_parse("\"a\\n\\t\\\\\\\"\\u0041\\u0000b\"", out, nullptr));
  const std::string expect{"a\n\t\\\"A\0b", 8};
  EXPECT_EQ(out.as_string(), expect);

  // Surrogate pair -> 4-byte UTF-8.
  ASSERT_TRUE(json_parse("\"\\ud83d\\ude00\"", out, nullptr));
  EXPECT_EQ(out.as_string(), "\xF0\x9F\x98\x80");

  // Lone or malformed surrogates reject.
  for (const char* doc : {"\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
                          "\"\\ud800\\udb00\"", "\"\\uZZZZ\"", "\"\\u12\"",
                          "\"\\x41\"", "\"a\x01b\""}) {
    EXPECT_FALSE(json_parse(doc, out, &error)) << doc;
  }
}

TEST(JsonGrammar, OverlongInputsParseWithoutPathology) {
  // A large flat document exercises the allocation paths, not the stack.
  std::string doc = "[";
  for (int i = 0; i < 50000; ++i) {
    if (i) doc += ',';
    doc += std::to_string(i);
  }
  doc += ']';
  JsonValue out;
  ASSERT_TRUE(json_parse(doc, out, nullptr));
  ASSERT_EQ(out.as_array().size(), 50000u);
  EXPECT_EQ(out.as_array()[49999].as_number(), 49999.0);

  // A single long string value.
  const std::string big(1 << 20, 'x');
  ASSERT_TRUE(json_parse("\"" + big + "\"", out, nullptr));
  EXPECT_EQ(out.as_string().size(), big.size());
}

TEST(JsonGrammar, WriterOutputRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "fig13_speed_sweep");
  w.field("jobs", 8);
  w.field("wall_ms", 6221.75);
  w.field("ok", true);
  w.key("tags").begin_array();
  w.value("quoted \"inner\"").value("line\nbreak").value("unicode \u00e9");
  w.end_array();
  w.key("nested").begin_object();
  w.field("depth", 2).key("null_member").null();
  w.end_object();
  w.end_object();

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(json_parse(w.str(), parsed, &error)) << error;
  EXPECT_EQ(parsed.string_or("bench", ""), "fig13_speed_sweep");
  EXPECT_EQ(parsed.number_or("wall_ms", 0.0), 6221.75);
  ASSERT_NE(parsed.find("tags"), nullptr);
  EXPECT_EQ(parsed.find("tags")->as_array()[0].as_string(),
            "quoted \"inner\"");

  // parse(render(parse(doc))) == parse(doc): the canonical rendering is a
  // fixed point of the parser.
  JsonWriter w2;
  render(parsed, w2);
  JsonValue reparsed;
  ASSERT_TRUE(json_parse(w2.str(), reparsed, &error)) << error;
  EXPECT_TRUE(json_equal(parsed, reparsed));
}

// ---------------------------------------------------------------------------
// core::PolicySpec "name[:key=val,...]"
// ---------------------------------------------------------------------------

TEST(PolicySpecGrammar, KnownNamesRoundTrip) {
  for (const std::string& name : core::policy_names()) {
    core::PolicySpec spec;
    std::string err;
    ASSERT_TRUE(core::parse_policy_spec(name, spec, &err)) << err;
    EXPECT_EQ(spec.name, name);
    EXPECT_TRUE(spec.params.empty());
    // parse(to_string(x)) == x
    core::PolicySpec again;
    ASSERT_TRUE(core::parse_policy_spec(spec.to_string(), again, &err)) << err;
    EXPECT_EQ(again.name, spec.name);
    EXPECT_EQ(again.params, spec.params);
  }
}

TEST(PolicySpecGrammar, ParamsParseAndRoundTrip) {
  core::PolicySpec spec;
  std::string err;
  ASSERT_TRUE(core::parse_policy_spec(
      "predictive:horizon_ms=120,margin_db=1.5,alpha=0.25", spec, &err))
      << err;
  EXPECT_EQ(spec.name, "predictive");
  ASSERT_EQ(spec.params.size(), 3u);
  EXPECT_EQ(spec.param("horizon_ms", 0.0), 120.0);
  EXPECT_EQ(spec.param("margin_db", 0.0), 1.5);
  EXPECT_EQ(spec.param("alpha", 0.0), 0.25);
  EXPECT_TRUE(spec.has_param("alpha"));
  EXPECT_FALSE(spec.has_param("beta"));

  core::PolicySpec again;
  ASSERT_TRUE(core::parse_policy_spec(spec.to_string(), again, &err)) << err;
  EXPECT_EQ(again.name, spec.name);
  EXPECT_EQ(again.params, spec.params);
}

TEST(PolicySpecGrammar, MalformedSpecsRejectWithPreciseErrors) {
  struct Case {
    const char* text;
    const char* expect_in_error;
  };
  const std::vector<Case> cases = {
      {"", "unknown policy"},
      {"frobnicate", "unknown policy"},
      {":k=1", "unknown policy"},
      {"median_esnr:", "bad policy param"},
      {"median_esnr:=1", "bad policy param"},
      {"median_esnr:k", "bad policy param"},
      {"median_esnr:k=", "bad numeric value"},
      {"median_esnr:k=abc", "bad numeric value"},
      {"median_esnr:k=1,,j=2", "bad policy param"},
      {"bicast:k=1=2", "bad numeric value"},
      {"median_esnr:k=1,", "bad policy param"},
  };
  for (const Case& c : cases) {
    core::PolicySpec spec;
    std::string err;
    EXPECT_FALSE(core::parse_policy_spec(c.text, spec, &err))
        << "accepted: " << c.text;
    EXPECT_NE(err.find(c.expect_in_error), std::string::npos)
        << "spec '" << c.text << "' produced error: " << err;
  }
  // The unknown-name error teaches the caller the valid names.
  core::PolicySpec spec;
  std::string err;
  EXPECT_FALSE(core::parse_policy_spec("nope", spec, &err));
  for (const std::string& name : core::policy_names()) {
    EXPECT_NE(err.find(name), std::string::npos) << err;
  }
}

TEST(PolicySpecGrammar, OverlongInputsStayGraceful) {
  // A megabyte of garbage name: rejected, not crashed on.
  core::PolicySpec spec;
  std::string err;
  EXPECT_FALSE(core::parse_policy_spec(std::string(1 << 20, 'z'), spec, &err));

  // Thousands of parameters on a valid name: accepted, all retained.
  std::string text = "median_esnr:";
  for (int i = 0; i < 2000; ++i) {
    if (i) text += ',';
    text += "k" + std::to_string(i) + "=" + std::to_string(i);
  }
  ASSERT_TRUE(core::parse_policy_spec(text, spec, &err)) << err;
  EXPECT_EQ(spec.params.size(), 2000u);
  EXPECT_EQ(spec.param("k1999", -1.0), 1999.0);
}

// ---------------------------------------------------------------------------
// sim::FaultPlan "--faults" clause grammar
// ---------------------------------------------------------------------------

// Canonical spec rendering for round-trip checks; times are generated as
// whole microseconds so the us-suffixed rendering re-parses exactly.
std::string render_spec(const sim::FaultPlan& plan) {
  std::string out;
  for (const sim::FaultEvent& ev : plan.events) {
    if (!out.empty()) out += ';';
    out += sim::to_string(ev.kind);
    out += ":ap=" + std::to_string(ev.node);
    out += ",dst=" + std::to_string(ev.peer);
    out += ",at=" + std::to_string(ev.at.to_us()) + "us";
    out += ",for=" + std::to_string(ev.duration.to_us()) + "us";
    char buf[48];
    std::snprintf(buf, sizeof buf, ",rate=%.17g", ev.rate);
    out += buf;
    out += ",extra=" + std::to_string(ev.extra.to_us()) + "us";
  }
  return out;
}

TEST(FaultPlanGrammar, RandomPlansRoundTripThroughSpecGrammar) {
  Rng rng(0xFA17u);
  for (int trial = 0; trial < 50; ++trial) {
    sim::FaultPlan plan;
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n; ++i) {
      sim::FaultEvent ev;
      ev.kind = static_cast<sim::FaultKind>(
          rng.uniform_int(0, static_cast<std::int64_t>(sim::kFaultKindCount) - 1));
      ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      ev.peer = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
      ev.at = Time::us(static_cast<double>(rng.uniform_int(1, 30'000'000)));
      ev.duration = Time::us(static_cast<double>(rng.uniform_int(1, 5'000'000)));
      ev.rate = static_cast<double>(rng.uniform_int(1, 100)) / 100.0;
      ev.extra = Time::us(static_cast<double>(rng.uniform_int(1, 50'000)));
      plan.events.push_back(ev);
    }
    sim::FaultPlan reparsed;
    std::string error;
    ASSERT_TRUE(sim::FaultPlan::parse(render_spec(plan), reparsed, &error))
        << error;
    ASSERT_EQ(reparsed.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      const sim::FaultEvent& a = plan.events[i];
      const sim::FaultEvent& b = reparsed.events[i];
      EXPECT_EQ(a.kind, b.kind) << "event " << i;
      EXPECT_EQ(a.node, b.node) << "event " << i;
      EXPECT_EQ(a.peer, b.peer) << "event " << i;
      EXPECT_EQ(a.at.to_ns(), b.at.to_ns()) << "event " << i;
      EXPECT_EQ(a.duration.to_ns(), b.duration.to_ns()) << "event " << i;
      EXPECT_EQ(a.rate, b.rate) << "event " << i;
      EXPECT_EQ(a.extra.to_ns(), b.extra.to_ns()) << "event " << i;
    }
  }
}

TEST(FaultPlanGrammar, EmptySpecsYieldEmptyPlans) {
  for (const char* spec : {"", ";", ";;;"}) {
    sim::FaultPlan plan;
    std::string error;
    EXPECT_TRUE(sim::FaultPlan::parse(spec, plan, &error)) << error;
    EXPECT_TRUE(plan.empty());
  }
}

TEST(FaultPlanGrammar, MalformedClausesRejectWithPreciseErrors) {
  struct Case {
    const char* spec;
    const char* expect_in_error;
  };
  const std::vector<Case> cases = {
      {"ap_crash", "missing ':'"},
      {"meteor_strike:ap=1,at=1s", "unknown fault kind"},
      {"ap_crash:ap=1", "missing at="},
      {"ap_crash:at=1s", "missing ap=/src="},
      {"ap_crash:ap=1,at=5", "bad time"},
      {"ap_crash:ap=1,at=5m", "bad time"},
      {"ap_crash:ap=1,at=1s,for=xyzms", "bad time"},
      {"ap_crash:ap=1,at=1s,vigor=3", "unknown key"},
      {"ap_crash:ap 1,at=1s", "missing '='"},
      // rate defaults to 1.0, so only an explicit zero hits the missing-
      // rate check.
      {"link_drop:src=1,at=1s,rate=0", "missing rate="},
      {"link_drop:src=1,at=1s,rate=1.5", "rate must be in [0, 1]"},
      {"link_drop:src=1,at=1s,rate=-0.1", "rate must be in [0, 1]"},
      {"link_latency:src=1,at=1s", "missing extra="},
      {"link_latency:src=1,at=1s,extra=3", "bad time"},
      // Adversarial-backhaul kinds (control-plane hardening).
      {"msg_dup:src=1,at=1s,rate=0", "missing rate="},
      {"msg_dup:src=1,at=1s", "missing rate="},
      {"msg_dup:src=1,at=1s,rate=1.01", "rate must be in [0, 1]"},
      {"msg_dup:src=1,at=1s,rate=-1", "rate must be in [0, 1]"},
      {"msg_reorder:src=1,at=1s,extra=5ms,rate=0", "missing rate="},
      {"msg_reorder:src=1,at=1s,extra=5ms", "missing rate="},
      {"msg_reorder:src=1,at=1s,rate=0.5", "missing extra= (jitter bound)"},
      {"msg_reorder:src=1,at=1s,rate=0.5,extra=0us",
       "missing extra= (jitter bound)"},
      {"msg_reorder:src=1,at=1s,rate=2,extra=5ms", "rate must be in [0, 1]"},
      {"msg_reorder:src=1,at=1s,rate=0.5,extra=7", "bad time"},
      {"ctrl_crash:ap=0", "missing at="},
      {"ctrl_crash:at=800", "bad time"},
      {"ctrl_crash:at=1s,for=2x", "bad time"},
      {"ctrl_crash:at=1s,blast=5", "unknown key"},
  };
  for (const Case& c : cases) {
    sim::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(sim::FaultPlan::parse(c.spec, plan, &error))
        << "accepted: " << c.spec;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << "spec '" << c.spec << "' produced error: " << error;
  }
}

TEST(FaultPlanGrammar, ControlChaosKindsParseAndRoundTrip) {
  // ctrl_crash needs no node id (the controller is always node 0); the two
  // message-corruption kinds take the usual link syntax.
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse(
      "ctrl_crash:at=2s,for=300ms;"
      "msg_dup:src=1,dst=0,at=1s,for=2s,rate=0.3;"
      "msg_reorder:src=2,at=1500ms,for=1s,rate=0.4,extra=8ms",
      plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, sim::FaultKind::kCtrlCrash);
  EXPECT_EQ(plan.events[1].kind, sim::FaultKind::kMsgDup);
  EXPECT_EQ(plan.events[1].rate, 0.3);
  EXPECT_EQ(plan.events[2].kind, sim::FaultKind::kMsgReorder);
  EXPECT_EQ(plan.events[2].extra.to_ns(), Time::ms(8).to_ns());
  // parse(render(x)) == x through the shared canonical renderer.
  sim::FaultPlan again;
  ASSERT_TRUE(sim::FaultPlan::parse(render_spec(plan), again, &error))
      << error;
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(again.events[i].rate, plan.events[i].rate);
    EXPECT_EQ(again.events[i].extra.to_ns(), plan.events[i].extra.to_ns());
  }
  const std::string text = plan.describe();
  EXPECT_NE(text.find("ctrl_crash"), std::string::npos);
  EXPECT_NE(text.find("msg_dup"), std::string::npos);
  EXPECT_NE(text.find("msg_reorder"), std::string::npos);
}

TEST(FaultPlanGrammar, ControlChaosGeneratorHonoursKindMask) {
  using sim::FaultKind;
  const Time horizon = Time::sec(20);
  // Each single-kind mask yields only that kind; ctrl_crash plans pin the
  // victim to the controller.
  struct MaskCase {
    unsigned mask;
    FaultKind want;
  };
  for (const MaskCase& mc :
       {MaskCase{sim::FaultPlan::kChaosMsgDup, FaultKind::kMsgDup},
        MaskCase{sim::FaultPlan::kChaosMsgReorder, FaultKind::kMsgReorder},
        MaskCase{sim::FaultPlan::kChaosCtrlCrash, FaultKind::kCtrlCrash}}) {
    const sim::FaultPlan plan =
        sim::FaultPlan::control_chaos(1.0, horizon, 8, 7, mc.mask);
    ASSERT_FALSE(plan.empty());
    for (const sim::FaultEvent& ev : plan.events) {
      EXPECT_EQ(ev.kind, mc.want);
      if (ev.kind == FaultKind::kCtrlCrash) {
        EXPECT_EQ(ev.node, 0u);
      }
      EXPECT_GE(ev.at.to_ns(), (horizon * 0.10).to_ns());
      EXPECT_LE(ev.at.to_ns(), (horizon * 0.75).to_ns());
      EXPECT_GT(ev.duration.to_ns(), 0);
    }
  }
  // Same (seed, mask) reproduces the exact same schedule.
  const sim::FaultPlan a =
      sim::FaultPlan::control_chaos(1.0, horizon, 8, 11, sim::FaultPlan::kChaosControlAll);
  const sim::FaultPlan b =
      sim::FaultPlan::control_chaos(1.0, horizon, 8, 11, sim::FaultPlan::kChaosControlAll);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at.to_ns(), b.events[i].at.to_ns());
  }
}

TEST(FaultPlanGrammar, TruncatedSpecsNeverCrash) {
  const std::string whole =
      "ap_crash:ap=3,at=1s,for=500ms;link_drop:src=2,dst=0,at=2s,for=1s,"
      "rate=0.5;link_latency:src=4,at=3s,extra=10ms";
  sim::FaultPlan plan;
  ASSERT_TRUE(sim::FaultPlan::parse(whole, plan, nullptr));
  ASSERT_EQ(plan.events.size(), 3u);
  // Any prefix must either parse (clause boundary) or reject cleanly.
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    sim::FaultPlan p;
    std::string error;
    (void)sim::FaultPlan::parse(whole.substr(0, cut), p, &error);
  }
}

TEST(FaultPlanGrammar, OverlongSpecsStayGraceful) {
  // Thousands of clauses: accepted, all retained, linear behaviour.
  std::string spec;
  for (int i = 0; i < 4000; ++i) {
    if (i) spec += ';';
    spec += "csi_freeze:ap=" + std::to_string(1 + i % 16) + ",at=" +
            std::to_string(1 + i) + "ms,for=50ms";
  }
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse(spec, plan, &error)) << error;
  EXPECT_EQ(plan.events.size(), 4000u);

  // A megabyte of separator noise parses to an empty plan.
  sim::FaultPlan empty;
  EXPECT_TRUE(sim::FaultPlan::parse(std::string(1 << 20, ';'), empty, &error));
  EXPECT_TRUE(empty.empty());
}

TEST(FaultPlanGrammar, DescribeNamesEveryEvent) {
  sim::FaultPlan plan;
  ASSERT_TRUE(sim::FaultPlan::parse(
      "ap_crash:ap=3,at=1s,for=500ms;link_drop:src=2,at=2s,rate=0.5", plan,
      nullptr));
  const std::string text = plan.describe();
  EXPECT_NE(text.find("ap_crash"), std::string::npos);
  EXPECT_NE(text.find("link_drop"), std::string::npos);
  EXPECT_NE(text.find("rate=0.50"), std::string::npos);
  EXPECT_EQ(sim::FaultPlan{}.describe(), "no faults");
}

}  // namespace
}  // namespace wgtt
