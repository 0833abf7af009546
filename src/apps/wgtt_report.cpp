// wgtt-report: analyzer for the BENCH_*.json reports the sweep benches emit.
//
//   wgtt-report show FILE [--json]
//       Pretty-print one report: sweep header, per-run metrics table, the
//       fault-injection / controller-liveness counters (chaos sweeps only),
//       and the aggregated host-time profile (where simulator CPU went).
//       --json emits the same content as one machine-readable JSON object
//       on stdout instead of the human tables.
//
//   wgtt-report diff BASELINE CURRENT [--tolerance PCT] [--soft]
//                    [--budget-ms MS]
//       Compare two reports of the same bench.  Schema mismatches (different
//       bench id, run count, or run labels) always fail with exit 2.
//       Performance regressions — sweep wall time, per-run wall time, or an
//       aggregated profile section slower than baseline by more than the
//       tolerance (default 25 %) — fail with exit 1, or only warn when
//       --soft is given (CI runners are noisy; schema breaks are not).
//       --budget-ms MS adds a hard per-row wall-time budget: every run row
//       of CURRENT must finish within MS milliseconds.  Budget violations
//       fail with exit 1 even under --soft — the budget is an absolute
//       ceiling chosen with noise headroom, unlike the relative tolerance,
//       so exceeding it always means the hot path got slower.
//       Deterministic simulation outputs (goodput, switch counts) that drift
//       between same-seed reports are reported as warnings.
//
//   wgtt-report packets FILE [--limit N] [--switches]
//       Analyze a per-packet flight-recorder JSONL (the --packets output of
//       the benches): per-packet latency waterfalls, aggregate time-in-layer,
//       and a drop/duplicate autopsy table.  Chaos runs additionally get a
//       fault-window table: uid-0 fault_on/fault_off markers paired per
//       (node, kind, peer), each window credited with the fault_injected
//       drop records it caused.  With --switches, pairs the uid-0
//       switch_start/switch_done markers into switch windows — liveness
//       failovers are flagged reason=ap_suspect — and attributes every
//       packet whose lifecycle stalled across one.
//
//   wgtt-report critical-path FILE [--packets N] [--dot PATH]
//       Analyze a causal event-graph JSONL (the --causal output of the
//       benches): reconstruct the scheduler provenance DAG, extract the
//       critical path of every switch window (ctrl.switch_start to
//       ctrl.switch_done, matched per client+switch id), and print a
//       per-layer latency attribution whose segments sum *exactly* (the
//       simulated clock is integer nanoseconds) to the measured end-to-end
//       switch time — any mismatch exits 1.  Sampled packets with both
//       transport.send and transport.rx annotations get the same treatment:
//       the delivering event chain is walked backwards from the receive,
//       clamped at the send time, and the pre-chain remainder is charged to
//       queue_wait.  --dot PATH writes the union of the first few switch
//       critical paths as a Graphviz digraph.
//
//   wgtt-report decisions FILE
//       Summarize a controller decision-audit JSONL (the --decisions output
//       of the benches): record counts, per-outcome and per-reason tallies,
//       and the liveness event rollup.
//
//   wgtt-report health FILE [--strict] [--baseline FILE]
//                      [--emit-baseline FILE]
//       Analyze a runtime-health JSONL (the --health output of the benches):
//       the packet-conservation ledger, a per-series drift table
//       (least-squares slope per simulated hour over the trailing half of
//       the windows — a leak shows up as a stubbornly positive slope), the
//       watchdog violation rollup, and (schema-v2 fault-aware logs) the
//       convergence section: per-client outage windows, the longest outage,
//       and reconvergence time after the last fault cleared.  --strict
//       exits 1 on any error-severity violation or any outage still open at
//       the end of the run (an unconverged client).  --baseline compares
//       the ledger, the violation counts, and the drift slopes against a
//       committed baseline (exit 1 on mismatch); --emit-baseline writes
//       that baseline JSON.
//
// Flags go in any position, as --name V or --name=V.  A numeric flag whose
// whole value is not a non-negative number (an integer for --limit and
// --packets) is a usage error.
//
// All JSONL inputs may carry a {"kind":"schema","stream":...,"version":...}
// header line; a recognized header is validated (wrong stream or a version
// newer than this tool understands exits 2), a missing header is accepted
// for backward compatibility.
//
// Exit codes: 0 ok / warnings only, 1 performance regression or health-gate
// failure, 2 schema or usage error.
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/flight_recorder.h"
#include "sim/fault_plan.h"
#include "util/json.h"
#include "util/jsonl.h"

namespace {

using wgtt::JsonValue;

struct ProfileTotals {
  std::vector<std::pair<std::string, std::int64_t>> sections;  // sorted desc
  std::int64_t total_ns = 0;
};

// Sum each profile section's self_ns across all runs of a report.
ProfileTotals aggregate_profile(const JsonValue& report) {
  std::map<std::string, std::int64_t> acc;
  for (const JsonValue& run : report.find("runs")->as_array()) {
    const JsonValue* profile = run.find("profile");
    if (!profile) continue;
    const JsonValue* sections = profile->find("sections");
    if (!sections || !sections->is_object()) continue;
    for (const auto& [name, sec] : sections->as_object()) {
      acc[name] += static_cast<std::int64_t>(sec.number_or("self_ns", 0.0));
    }
  }
  ProfileTotals out;
  for (const auto& [name, ns] : acc) {
    out.sections.emplace_back(name, ns);
    out.total_ns += ns;
  }
  std::sort(out.sections.begin(), out.sections.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

// Sum the fault.*, controller.liveness.* and controller.protocol.* counters
// of every run's metrics snapshot: how much adversity a chaos sweep injected
// and how the controller coped.  Fault-free reports have none.
std::map<std::string, double> chaos_counters(const JsonValue& report) {
  std::map<std::string, double> chaos;
  for (const JsonValue& run : report.find("runs")->as_array()) {
    const JsonValue* metrics = run.find("metrics");
    if (!metrics) continue;
    const JsonValue* counters = metrics->find("counters");
    if (!counters || !counters->is_object()) continue;
    for (const auto& [name, v] : counters->as_object()) {
      if (!v.is_number()) continue;
      if (name.rfind("fault.", 0) == 0 ||
          name.rfind("controller.liveness.", 0) == 0 ||
          name.rfind("controller.protocol.", 0) == 0) {
        chaos[name] += v.as_number();
      }
    }
  }
  return chaos;
}

// Read a JSON object from `path`; prints the reason on failure.
bool load_json(const std::string& path, JsonValue& out) {
  std::string text;
  if (!wgtt::read_text_file(path, text)) {
    std::fprintf(stderr, "wgtt-report: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!wgtt::json_parse(text, out, &error) || !out.is_object()) {
    std::fprintf(stderr, "wgtt-report: %s: not a JSON object: %s\n",
                 path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool load_report(const std::string& path, JsonValue& out) {
  if (!load_json(path, out)) return false;
  if (!out.find("bench") || !out.find("runs") ||
      !out.find("runs")->is_array()) {
    std::fprintf(stderr,
                 "wgtt-report: %s: not a bench report (missing \"bench\" or "
                 "\"runs\")\n",
                 path.c_str());
    return false;
  }
  return true;
}

// Machine-readable mirror of cmd_show's human tables: one JSON object on
// stdout carrying the header fields, the per-run metric rows, the summed
// chaos counters, and the aggregated profile.  Scripts get a stable surface
// without scraping printf columns.
int cmd_show_json(const JsonValue& report) {
  wgtt::JsonWriter w;
  w.begin_object();
  w.field("bench", report.string_or("bench", "?"));
  w.field("title", report.string_or("title", ""));
  w.field("jobs", report.number_or("jobs", 0.0));
  w.field("wall_ms", report.number_or("wall_ms", 0.0));
  if (const JsonValue* summary = report.find("summary");
      summary && summary->is_object()) {
    w.key("summary").begin_object();
    for (const auto& [k, v] : summary->as_object()) {
      if (v.is_number()) w.field(k, v.as_number());
    }
    w.end_object();
  }
  w.key("runs").begin_array();
  for (const JsonValue& run : report.find("runs")->as_array()) {
    w.begin_object();
    w.field("label", run.string_or("label", "?"));
    w.field("policy", run.string_or("policy", ""));
    w.field("goodput_mbps", run.number_or("goodput_mbps", 0.0));
    w.field("udp_loss_rate", run.number_or("udp_loss_rate", 0.0));
    w.field("switching_accuracy", run.number_or("switching_accuracy", 0.0));
    w.field("switches", run.number_or("switches", 0.0));
    w.field("wall_ms", run.number_or("wall_ms", 0.0));
    w.end_object();
  }
  w.end_array();
  if (const auto chaos = chaos_counters(report); !chaos.empty()) {
    w.key("chaos").begin_object();
    for (const auto& [name, v] : chaos) w.field(name, v);
    w.end_object();
  }
  const ProfileTotals profile = aggregate_profile(report);
  if (!profile.sections.empty()) {
    w.key("profile").begin_object();
    w.field("total_ns", profile.total_ns);
    w.key("sections").begin_object();
    for (const auto& [name, ns] : profile.sections) w.field(name, ns);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int cmd_show(const std::string& path, bool json) {
  JsonValue report;
  if (!load_report(path, report)) return 2;
  if (json) return cmd_show_json(report);

  std::printf("bench:  %s\n", report.string_or("bench", "?").c_str());
  std::printf("title:  %s\n", report.string_or("title", "").c_str());
  std::printf("jobs:   %d    wall: %.1f ms\n",
              static_cast<int>(report.number_or("jobs", 0.0)),
              report.number_or("wall_ms", 0.0));
  if (const JsonValue* summary = report.find("summary");
      summary && summary->is_object() && !summary->as_object().empty()) {
    std::printf("summary:\n");
    for (const auto& [k, v] : summary->as_object()) {
      if (v.is_number()) std::printf("  %-32s %.4g\n", k.c_str(), v.as_number());
    }
  }

  const auto& runs = report.find("runs")->as_array();
  std::printf("\n%-28s %-22s %10s %8s %9s %9s %10s\n", "run", "policy",
              "goodput", "loss", "accuracy", "switches", "wall_ms");
  for (const JsonValue& run : runs) {
    std::printf("%-28s %-22s %10.2f %8.3f %9.3f %9d %10.1f\n",
                run.string_or("label", "?").c_str(),
                run.string_or("policy", "-").c_str(),
                run.number_or("goodput_mbps", 0.0),
                run.number_or("udp_loss_rate", 0.0),
                run.number_or("switching_accuracy", 0.0),
                static_cast<int>(run.number_or("switches", 0.0)),
                run.number_or("wall_ms", 0.0));
  }

  if (const auto chaos = chaos_counters(report); !chaos.empty()) {
    std::printf(
        "\nchaos (fault + liveness + protocol counters, summed over runs):\n");
    for (const auto& [name, v] : chaos) {
      std::printf("  %-36s %.0f\n", name.c_str(), v);
    }
  }

  const ProfileTotals profile = aggregate_profile(report);
  if (!profile.sections.empty()) {
    // Top-N by exclusive self-time: the tail sections are timer noise and
    // bury the hot ones in long reports.
    constexpr std::size_t kTopSections = 12;
    const std::size_t shown = std::min(profile.sections.size(), kTopSections);
    std::printf("\nprofile (host self-time, all runs, top %zu of %zu):\n",
                shown, profile.sections.size());
    std::printf("%-28s %12s %7s\n", "section", "self_ms", "share");
    const auto row = [&](const std::string& name, std::int64_t ns) {
      std::printf("%-28s %12.1f %6.1f%%\n", name.c_str(),
                  static_cast<double>(ns) / 1e6,
                  profile.total_ns > 0
                      ? 100.0 * static_cast<double>(ns) /
                            static_cast<double>(profile.total_ns)
                      : 0.0);
    };
    std::int64_t shown_ns = 0;
    for (std::size_t i = 0; i < shown; ++i) {
      row(profile.sections[i].first, profile.sections[i].second);
      shown_ns += profile.sections[i].second;
    }
    if (shown < profile.sections.size()) {
      row("+" + std::to_string(profile.sections.size() - shown) + " more",
          profile.total_ns - shown_ns);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// packets: flight-recorder JSONL analysis
// ---------------------------------------------------------------------------

// The integer fields of a record beyond the fixed ones its loader reads by
// name, in key order: flight-record extras and causal annotation args.
struct IntFields {
  std::vector<std::pair<std::string, std::int64_t>> fields;

  IntFields() = default;
  IntFields(const JsonValue& rec,
            std::initializer_list<std::string_view> fixed) {
    for (const auto& [k, v] : rec.as_object()) {
      if (!v.is_number() ||
          std::find(fixed.begin(), fixed.end(), k) != fixed.end()) {
        continue;
      }
      fields.emplace_back(k, static_cast<std::int64_t>(v.as_number()));
    }
  }

  std::int64_t get(std::string_view key, std::int64_t fallback) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return fallback;
  }
};

struct FlightRec {
  std::uint64_t uid = 0;
  double t_us = 0.0;
  std::string hop;
  std::int64_t node = 0;
  std::string cause;  // empty when none
  IntFields extras;
};

// Time charged per layer, in the caller's unit, and the intervals charged.
using LayerTally = std::map<std::string, std::pair<double, std::size_t>>;

// Print a tally as a layer table: total ms, share of the all-layer total,
// and the interval count headed `count_label`; `per_ms` is units per ms.
void print_layer_table(const LayerTally& layers, double per_ms,
                       const char* count_label) {
  double total = 0.0;
  for (const auto& [layer, acc] : layers) total += acc.first;
  std::printf("%-12s %14s %8s %10s\n", "layer", "total_ms", "share",
              count_label);
  for (const auto& [layer, acc] : layers) {
    std::printf("%-12s %14.3f %7.1f%% %10zu\n", layer.c_str(),
                acc.first / per_ms,
                total > 0 ? 100.0 * acc.first / total : 0.0, acc.second);
  }
}

// Map a hop name onto the simulator layer its latency is charged to.
const char* layer_of(const std::string& hop) {
  if (hop.rfind("transport_", 0) == 0) return "transport";
  if (hop.rfind("ctrl_", 0) == 0 || hop == "dedup_suppress") {
    return "controller";
  }
  if (hop.rfind("backhaul_", 0) == 0) return "backhaul";
  if (hop.rfind("ap_", 0) == 0) return "ap_queue";
  if (hop.rfind("mac_", 0) == 0) return "mac";
  if (hop.rfind("switch_", 0) == 0) return "switch";
  if (hop.rfind("fault_", 0) == 0) return "fault";
  return "?";
}

// Read the JSONL stream at `path`, refusing a schema header that names
// another stream or a version newer than `max_version`, and hand every other
// record to `on_record`.  Prints the reason and returns false on failure.
bool load_stream(const std::string& path, const char* stream, int max_version,
                 const std::function<void(const JsonValue&)>& on_record) {
  std::string text;
  if (!wgtt::read_text_file(path, text)) {
    std::fprintf(stderr, "wgtt-report: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  const bool ok = wgtt::obs::read_jsonl(
      text,
      [&](const JsonValue& v) {
        if (v.string_or("kind", "") != "schema") {
          on_record(v);
          return true;
        }
        error = wgtt::obs::schema_mismatch(v, stream, max_version);
        return error.empty();
      },
      &error);
  if (!ok) {
    std::fprintf(stderr, "wgtt-report: %s: %s\n", path.c_str(), error.c_str());
  }
  return ok;
}

bool load_packet_log(const std::string& path, std::vector<FlightRec>& out) {
  return load_stream(path, "wgtt.packets", 1, [&](const JsonValue& v) {
    FlightRec rec;
    rec.uid = static_cast<std::uint64_t>(v.number_or("uid", 0.0));
    rec.t_us = v.number_or("t_us", 0.0);
    rec.hop = v.string_or("hop", "?");
    rec.node = static_cast<std::int64_t>(v.number_or("node", 0.0));
    rec.cause = v.string_or("cause", "");
    rec.extras = IntFields(v, {"uid", "t_us", "hop", "node", "cause"});
    out.push_back(std::move(rec));
  });
}

struct SwitchWindow {
  double start_us = 0.0;
  double done_us = 0.0;
  std::int64_t client = -1;
  std::int64_t from = -1;
  std::int64_t to = -1;
  std::int64_t gap_us = 0;
  bool failover = false;  // liveness-driven (reason=ap_suspect) switch
  std::size_t stalled_packets = 0;
  double max_stall_us = 0.0;
};

struct FaultWindow {
  double on_us = 0.0;
  double off_us = -1.0;  // < 0: never cleared before the log ended
  std::int64_t node = -1;
  std::int64_t kind = -1;
  std::int64_t peer = 0;
  std::size_t drops = 0;  // fault_injected drop records inside the window
};

const char* fault_kind_name(std::int64_t kind) {
  const auto count = static_cast<std::int64_t>(wgtt::sim::kFaultKindCount);
  if (kind < 0 || kind >= count) return "?";
  return wgtt::sim::to_string(static_cast<wgtt::sim::FaultKind>(kind));
}

int cmd_packets(const std::string& path, std::size_t waterfall_limit,
                bool switches) {
  std::vector<FlightRec> recs;
  if (!load_packet_log(path, recs)) return 2;

  // Group per packet.  Records were appended in simulated-time order, so
  // each per-uid vector is already a time-ordered waterfall.
  std::map<std::uint64_t, std::vector<const FlightRec*>> packets;
  std::vector<const FlightRec*> markers;
  for (const FlightRec& r : recs) {
    if (r.uid == 0) {
      markers.push_back(&r);
    } else {
      packets[r.uid].push_back(&r);
    }
  }

  std::printf("packet log: %s\n", path.c_str());
  std::printf("records: %zu   packets: %zu   markers: %zu\n", recs.size(),
              packets.size(), markers.size());

  // --- aggregate time-in-layer -------------------------------------------
  // Each inter-record delta is charged to the layer of the *later* record:
  // the time it took the packet to reach that hop.
  LayerTally layer_us;
  std::map<std::string, std::size_t> by_cause;
  std::size_t drops = 0, dups = 0;
  for (const auto& [uid, hops] : packets) {
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (!hops[i]->cause.empty()) {
        ++by_cause[hops[i]->cause];
        hops[i]->cause == "duplicate" ? ++dups : ++drops;
      }
      if (i == 0) continue;
      auto& [us, n] = layer_us[layer_of(hops[i]->hop)];
      us += hops[i]->t_us - hops[i - 1]->t_us;
      ++n;
    }
  }
  if (!layer_us.empty()) {
    std::printf("\ntime in layer (inter-hop latency charged to the arriving "
                "layer):\n");
    print_layer_table(layer_us, 1e3, "hops");
  }

  // --- per-packet latency waterfalls -------------------------------------
  std::size_t shown = 0;
  for (const auto& [uid, hops] : packets) {
    if (shown >= waterfall_limit) break;
    ++shown;
    std::printf("\npacket uid %" PRIu64 " (%zu hops, %.3f ms end-to-end):\n",
                uid, hops.size(),
                (hops.back()->t_us - hops.front()->t_us) / 1e3);
    std::printf("  %12s %10s %-16s %5s  %s\n", "t_us", "dt_us", "hop", "node",
                "detail");
    double prev = hops.front()->t_us;
    for (const FlightRec* r : hops) {
      std::string detail;
      for (const auto& [k, v] : r->extras.fields) {
        if (!detail.empty()) detail += " ";
        detail += k + "=" + std::to_string(v);
      }
      if (!r->cause.empty()) {
        if (!detail.empty()) detail += " ";
        detail += "cause=" + r->cause;
      }
      std::printf("  %12.3f %10.3f %-16s %5" PRId64 "  %s\n", r->t_us,
                  r->t_us - prev, r->hop.c_str(), r->node, detail.c_str());
      prev = r->t_us;
    }
  }
  if (shown < packets.size()) {
    std::printf("\n(%zu more packets; raise --limit to print them)\n",
                packets.size() - shown);
  }

  // --- drop / duplicate autopsy ------------------------------------------
  std::printf("\nautopsy: %zu drop record(s), %zu duplicate record(s)\n",
              drops, dups);
  if (drops + dups > 0) {
    // Tally per cause, in the DropCause vocabulary's order.
    std::printf("%-16s %8s\n", "cause", "records");
    for (std::size_t i = 0; i < wgtt::net::kDropCauseCount; ++i) {
      const char* cause =
          wgtt::net::to_string(static_cast<wgtt::net::DropCause>(i));
      if (auto it = by_cause.find(cause); it != by_cause.end()) {
        std::printf("%-16s %8zu\n", cause, it->second);
      }
    }
    std::printf("\n");
    constexpr std::size_t kMaxAutopsyRows = 200;
    std::printf("%-10s %12s %-10s %-16s %5s  %s\n", "uid", "t_us", "layer",
                "hop", "node", "cause");
    std::size_t rows = 0;
    for (const FlightRec& r : recs) {
      if (r.uid == 0 || r.cause.empty()) continue;
      if (rows++ >= kMaxAutopsyRows) continue;
      std::printf("%-10" PRIu64 " %12.3f %-10s %-16s %5" PRId64 "  %s\n",
                  r.uid, r.t_us, layer_of(r.hop), r.hop.c_str(), r.node,
                  r.cause.c_str());
    }
    if (rows > kMaxAutopsyRows) {
      std::printf("(+%zu more autopsy rows)\n", rows - kMaxAutopsyRows);
    }
  }

  // --- fault windows -----------------------------------------------------
  // Chaos runs emit uid-0 fault_on/fault_off markers.  Pair them per
  // (node, kind, peer) and credit each window with the fault_injected drop
  // records landing inside it; fault-free logs skip the section entirely.
  std::vector<FaultWindow> faults;
  for (const FlightRec* m : markers) {
    if (m->hop == "fault_on") {
      FaultWindow w;
      w.on_us = m->t_us;
      w.node = m->node;
      w.kind = m->extras.get("kind", -1);
      w.peer = m->extras.get("peer", 0);
      faults.push_back(w);
    } else if (m->hop == "fault_off") {
      const std::int64_t kind = m->extras.get("kind", -1);
      const std::int64_t peer = m->extras.get("peer", 0);
      // Close the most recent still-open window of the same identity; the
      // injector never overlaps identical windows, so this is unambiguous.
      for (auto it = faults.rbegin(); it != faults.rend(); ++it) {
        if (it->off_us < 0.0 && it->node == m->node && it->kind == kind &&
            it->peer == peer) {
          it->off_us = m->t_us;
          break;
        }
      }
    }
  }
  if (!faults.empty()) {
    std::size_t fault_drops = 0;
    for (const FlightRec& r : recs) {
      if (r.uid == 0 || r.cause != "fault_injected") continue;
      ++fault_drops;
      for (FaultWindow& w : faults) {
        if (r.t_us >= w.on_us && (w.off_us < 0.0 || r.t_us < w.off_us)) {
          ++w.drops;  // earliest covering window claims the drop
          break;
        }
      }
    }
    std::printf("\nfault windows: %zu (%zu fault_injected drop record(s)):\n",
                faults.size(), fault_drops);
    std::printf("%12s %12s %-14s %5s %5s %7s\n", "on_us", "off_us", "kind",
                "node", "peer", "drops");
    for (const FaultWindow& w : faults) {
      char off[32];
      if (w.off_us < 0.0) {
        std::snprintf(off, sizeof(off), "%12s", "open");
      } else {
        std::snprintf(off, sizeof(off), "%12.3f", w.off_us);
      }
      std::printf("%12.3f %s %-14s %5" PRId64 " %5" PRId64 " %7zu\n", w.on_us,
                  off, fault_kind_name(w.kind), w.node, w.peer, w.drops);
    }
  }

  // --- switch-gap attribution --------------------------------------------
  if (switches) {
    std::vector<SwitchWindow> windows;
    std::map<std::int64_t, SwitchWindow> open;  // per client
    for (const FlightRec* m : markers) {
      const std::int64_t client = m->extras.get("client", -1);
      if (m->hop == "switch_start") {
        SwitchWindow w;
        w.start_us = m->t_us;
        w.client = client;
        w.from = m->extras.get("from", -1);
        w.to = m->extras.get("to", -1);
        w.failover = m->extras.get("failover", 0) != 0;
        open[client] = w;
      } else if (m->hop == "switch_done") {
        auto it = open.find(client);
        if (it == open.end()) continue;
        SwitchWindow w = it->second;
        open.erase(it);
        w.done_us = m->t_us;
        w.gap_us = m->extras.get("gap_us", 0);
        windows.push_back(w);
      }
    }
    // A packet "stalled across" a switch when the gap between two of its
    // consecutive records overlaps the switch window.
    for (SwitchWindow& w : windows) {
      for (const auto& [uid, hops] : packets) {
        double worst = 0.0;
        for (std::size_t i = 1; i < hops.size(); ++i) {
          const double lo = hops[i - 1]->t_us;
          const double hi = hops[i]->t_us;
          if (lo < w.done_us && hi > w.start_us) {
            worst = std::max(worst, hi - lo);
          }
        }
        if (worst > 0.0) {
          ++w.stalled_packets;
          w.max_stall_us = std::max(w.max_stall_us, worst);
        }
      }
    }
    std::printf("\nswitches: %zu completed window(s)%s\n", windows.size(),
                open.empty() ? "" : " (+unfinished)");
    if (!windows.empty()) {
      std::printf("%12s %12s %7s %5s %4s %4s %-10s %9s %13s\n", "start_us",
                  "done_us", "gap_us", "client", "from", "to", "reason",
                  "stalled", "max_stall_us");
      for (const SwitchWindow& w : windows) {
        std::printf("%12.3f %12.3f %7" PRId64 " %5" PRId64 " %4" PRId64
                    " %4" PRId64 " %-10s %9zu %13.3f\n",
                    w.start_us, w.done_us, w.gap_us, w.client, w.from, w.to,
                    w.failover ? "ap_suspect" : "esnr", w.stalled_packets,
                    w.max_stall_us);
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// health: runtime-health JSONL analysis and drift gate
// ---------------------------------------------------------------------------

struct HealthLog {
  std::vector<double> t_hours;  // window close times
  // Per-series window samples, aligned with t_hours: the ledger's in_flight
  // plus every gauge the run registered.
  std::map<std::string, std::vector<double>> series;
  // watchdog -> (severity, count); a watchdog that fired with both
  // severities keeps the worse one.
  std::map<std::string, std::pair<std::string, std::uint64_t>> watchdogs;
  // From the summary record (or accumulated if the log was truncated).
  std::uint64_t windows = 0, checks = 0, violations = 0, errors = 0;
  double sent = 0, copies = 0, delivered = 0, retired = 0, dropped = 0;
  double in_flight = 0;
  // Schema-v2 (fault-aware) records: client outage windows, the number of
  // fault edges, and when the last fault cleared.
  struct Outage {
    std::int64_t client = 0;
    double begin_us = 0.0, end_us = 0.0;
    bool open = false;
  };
  std::vector<Outage> outages;
  std::size_t fault_edges = 0;
  double last_clear_us = 0.0;
};

bool load_health_log(const std::string& path, HealthLog& out) {
  const bool ok = load_stream(path, "wgtt.health", 2, [&](const JsonValue& v) {
    const std::string kind = v.string_or("kind", "");
    if (kind == "outage") {
      HealthLog::Outage o;
      o.client = static_cast<std::int64_t>(v.number_or("client", 0.0));
      o.begin_us = v.number_or("begin_us", 0.0);
      o.end_us = v.number_or("end_us", 0.0);
      if (const JsonValue* b = v.find("open"); b && b->is_bool()) {
        o.open = b->as_bool();
      }
      out.outages.push_back(std::move(o));
    } else if (kind == "fault") {
      ++out.fault_edges;
      const JsonValue* active = v.find("active");
      if (!active || !active->is_bool() || !active->as_bool()) {
        out.last_clear_us =
            std::max(out.last_clear_us, v.number_or("t_us", 0.0));
      }
    } else if (kind == "window") {
      out.t_hours.push_back(v.number_or("t_us", 0.0) / 3.6e9);
      out.series["in_flight"].push_back(v.number_or("in_flight", 0.0));
      if (const JsonValue* g = v.find("gauges"); g && g->is_object()) {
        for (const auto& [name, val] : g->as_object()) {
          if (!val.is_number()) continue;
          auto& s = out.series[name];
          // Gauges registered mid-run backfill with their first sample so
          // every aligned series has t_hours.size() points.
          while (s.size() + 1 < out.t_hours.size()) s.push_back(val.as_number());
          s.push_back(val.as_number());
        }
      }
      ++out.windows;
    } else if (kind == "violation") {
      const std::string watchdog = v.string_or("watchdog", "?");
      const std::string severity = v.string_or("severity", "warn");
      auto& [worst, count] = out.watchdogs[watchdog];
      if (worst.empty() || severity == "error") worst = severity;
      ++count;
      ++out.violations;
      if (severity == "error") ++out.errors;
    } else if (kind == "summary") {
      out.windows = static_cast<std::uint64_t>(v.number_or("windows", 0.0));
      out.checks = static_cast<std::uint64_t>(v.number_or("checks", 0.0));
      out.violations =
          static_cast<std::uint64_t>(v.number_or("violations", 0.0));
      out.sent = v.number_or("sent", 0.0);
      out.copies = v.number_or("copies", 0.0);
      out.delivered = v.number_or("delivered", 0.0);
      out.retired = v.number_or("retired", 0.0);
      out.dropped = v.number_or("dropped", 0.0);
      out.in_flight = v.number_or("in_flight", 0.0);
    }
  });
  if (!ok) return false;
  if (out.t_hours.empty()) {
    std::fprintf(stderr, "wgtt-report: %s: no window records\n", path.c_str());
    return false;
  }
  return true;
}

// Least-squares slope (units per simulated hour) over the trailing half of
// the samples: the leading half is queue-fill warmup, and a leak is a slope
// that stays positive after the system should have plateaued.
double trailing_slope(const std::vector<double>& t, const std::vector<double>& y) {
  const std::size_t n = t.size();
  const std::size_t lo = n / 2;
  const std::size_t m = n - lo;
  if (m < 2) return 0.0;
  double st = 0, sy = 0, stt = 0, sty = 0;
  for (std::size_t i = lo; i < n; ++i) {
    st += t[i];
    sy += y[i];
    stt += t[i] * t[i];
    sty += t[i] * y[i];
  }
  const double denom = m * stt - st * st;
  if (std::fabs(denom) < 1e-12) return 0.0;
  return (m * sty - st * sy) / denom;
}

int cmd_health(const std::string& path, bool strict,
               const std::string& baseline_path,
               const std::string& emit_baseline_path) {
  HealthLog log;
  if (!load_health_log(path, log)) return 2;

  std::printf("health log: %s\n", path.c_str());
  std::printf("windows: %" PRIu64 "   checks: %" PRIu64
              "   violations: %" PRIu64 " (%" PRIu64 " error)\n",
              log.windows, log.checks, log.violations, log.errors);
  std::printf("ledger:  sent %.0f  copies %.0f  delivered %.0f  retired %.0f"
              "  dropped %.0f  in_flight %.0f\n",
              log.sent, log.copies, log.delivered, log.retired, log.dropped,
              log.in_flight);

  // --- drift table --------------------------------------------------------
  std::map<std::string, double> slopes;
  std::printf("\ndrift (slope per simulated hour, trailing half of %" PRIu64
              " windows):\n", log.windows);
  std::printf("%-24s %14s %14s  %s\n", "series", "final", "slope/hr",
              "trend");
  for (const auto& [name, samples] : log.series) {
    if (samples.size() != log.t_hours.size()) continue;  // never backfilled
    const double slope = trailing_slope(log.t_hours, samples);
    slopes[name] = slope;
    const double final_v = samples.back();
    // Purely informational: a series drifting faster than 25 % of its final
    // level per hour has not plateaued.  The gating comparison is against
    // the committed baseline below.
    const double scale = std::max(std::fabs(final_v), 1.0);
    const char* trend = std::fabs(slope) <= 0.25 * scale ? "flat" : "DRIFT";
    std::printf("%-24s %14.1f %14.1f  %s\n", name.c_str(), final_v, slope,
                trend);
  }

  // --- watchdog rollup ----------------------------------------------------
  if (log.watchdogs.empty()) {
    std::printf("\nwatchdogs: all green\n");
  } else {
    std::printf("\nwatchdog violations:\n");
    std::printf("%-24s %-8s %10s\n", "watchdog", "severity", "count");
    for (const auto& [name, sc] : log.watchdogs) {
      std::printf("%-24s %-8s %10" PRIu64 "\n", name.c_str(),
                  sc.first.c_str(), sc.second);
    }
  }

  // --- convergence (schema-v2 fault-aware logs only) ----------------------
  std::size_t open_outages = 0;
  if (!log.outages.empty() || log.fault_edges > 0) {
    double longest_us = 0.0;
    double last_end_us = 0.0;
    for (const auto& o : log.outages) {
      if (o.open) ++open_outages;
      longest_us = std::max(longest_us, o.end_us - o.begin_us);
      last_end_us = std::max(last_end_us, o.end_us);
    }
    std::printf("\nconvergence: %zu outage window(s), %zu still open\n",
                log.outages.size(), open_outages);
    if (!log.outages.empty()) {
      std::printf("%8s %14s %14s %12s %6s\n", "client", "begin_us", "end_us",
                  "length_ms", "open");
      for (const auto& o : log.outages) {
        std::printf("%8" PRId64 " %14.3f %14.3f %12.3f %6s\n", o.client,
                    o.begin_us, o.end_us, (o.end_us - o.begin_us) / 1e3,
                    o.open ? "OPEN" : "no");
      }
      std::printf("longest outage: %.3f ms\n", longest_us / 1e3);
    }
    if (log.last_clear_us > 0.0) {
      // Reconvergence: how long after the last fault cleared the last client
      // recovered.  Negative means every outage closed before the clear.
      std::printf("last fault clear: %.3f us", log.last_clear_us);
      if (!log.outages.empty()) {
        std::printf("   reconvergence: %.3f ms after clear",
                    (last_end_us - log.last_clear_us) / 1e3);
      }
      std::printf("\n");
    }
  }

  // --- baseline emit / compare -------------------------------------------
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"windows", log.windows}, {"checks", log.checks},
      {"violations", log.violations}, {"errors", log.errors}};
  const std::pair<const char*, double> ledger[] = {
      {"sent", log.sent}, {"copies", log.copies},
      {"delivered", log.delivered}, {"retired", log.retired},
      {"dropped", log.dropped}, {"in_flight", log.in_flight}};
  if (!emit_baseline_path.empty()) {
    wgtt::JsonWriter w;
    w.begin_object();
    w.field("stream", "wgtt.health");
    for (const auto& [name, n] : counts) w.field(name, n);
    w.key("ledger").begin_object();
    for (const auto& [name, v] : ledger) w.field(name, v);
    w.end_object();
    w.key("slopes").begin_object();
    for (const auto& [name, slope] : slopes) w.field(name, slope);
    w.end_object();
    w.end_object();
    if (!wgtt::write_text_file(emit_baseline_path, w.str() + "\n")) {
      std::fprintf(stderr, "wgtt-report: cannot write %s\n",
                   emit_baseline_path.c_str());
      return 2;
    }
    std::printf("\nbaseline written: %s\n", emit_baseline_path.c_str());
  }

  int gate_failures = 0;
  if (!baseline_path.empty()) {
    JsonValue base;
    if (!load_json(baseline_path, base)) return 2;
    std::printf("\nbaseline: %s\n", baseline_path.c_str());
    const auto check_exact = [&](const std::string& what, double want,
                                 double got) {
      if (want == got) return;
      std::printf("FAIL  %-24s %.0f (baseline %.0f)\n", what.c_str(), got,
                  want);
      ++gate_failures;
    };
    for (const auto& [name, n] : counts) {
      check_exact(name, base.number_or(name, 0.0), static_cast<double>(n));
    }
    if (const JsonValue* bl = base.find("ledger"); bl && bl->is_object()) {
      for (const auto& [name, v] : ledger) {
        check_exact("ledger." + std::string(name), bl->number_or(name, 0.0),
                    v);
      }
    }
    if (const JsonValue* bs = base.find("slopes"); bs && bs->is_object()) {
      for (const auto& [name, want] : bs->as_object()) {
        if (!want.is_number()) continue;
        auto it = slopes.find(name);
        if (it == slopes.end()) {
          std::printf("FAIL  slope %-18s missing from log\n", name.c_str());
          ++gate_failures;
          continue;
        }
        // The runs are deterministic, so slopes reproduce bit-for-bit on
        // one toolchain; 1 % relative headroom absorbs cross-compiler FP.
        const double w = want.as_number();
        const double tol = std::max(0.01 * std::fabs(w), 1e-9);
        if (std::fabs(it->second - w) > tol) {
          std::printf("FAIL  slope %-18s %.3f (baseline %.3f)\n", name.c_str(),
                      it->second, w);
          ++gate_failures;
        }
      }
    }
    if (gate_failures == 0) std::printf("baseline: ok\n");
  }

  if (gate_failures > 0) {
    std::printf("result: %d baseline mismatch(es)\n", gate_failures);
    return 1;
  }
  if (strict && log.errors > 0) {
    std::printf("result: STRICT FAIL — %" PRIu64
                " error-severity violation(s)\n", log.errors);
    return 1;
  }
  if (strict && open_outages > 0) {
    std::printf("result: STRICT FAIL — %zu client(s) never reconverged "
                "(outage window still open at end of run)\n", open_outages);
    return 1;
  }
  std::printf("result: ok\n");
  return 0;
}

// ---------------------------------------------------------------------------
// critical-path: causal event-graph analysis
// ---------------------------------------------------------------------------

// The causal JSONL carries two record shapes (util/causal.h):
//   edge        {"ev":N,"parent":P,"at_us":T}   scheduled-at provenance
//   annotation  {"ev":N,"site":"...","t_us":T, ...int args}
// Times are microsecond strings with 3 decimals rendered from the integer-ns
// simulated clock, so converting back via llround(us * 1000) is exact.
struct CausalEvent {
  std::uint64_t parent = 0;
  std::int64_t at_ns = 0;  // execution time (schedule target == dispatch time)
  std::int32_t site = -1;  // first annotation site, index into CausalGraph
};

struct CausalAnnotation {
  std::uint64_t ev = 0;
  std::int64_t t_ns = 0;
  std::int32_t site = -1;
  IntFields args;
};

struct CausalGraph {
  std::unordered_map<std::uint64_t, CausalEvent> events;
  std::vector<std::string> sites;  // interned site names
  std::vector<CausalAnnotation> annotations;

  const char* site_name(std::int32_t idx) const {
    return idx < 0 ? "sched" : sites[static_cast<std::size_t>(idx)].c_str();
  }
  // The event that scheduled `ev`; 0 for a root or an event never logged.
  std::uint64_t parent(std::uint64_t ev) const {
    auto it = events.find(ev);
    return it == events.end() ? 0 : it->second.parent;
  }
};

std::int64_t parse_us_ns(const JsonValue& v, const char* key) {
  return static_cast<std::int64_t>(std::llround(v.number_or(key, 0.0) * 1e3));
}

bool load_causal_log(const std::string& path, CausalGraph& g) {
  std::map<std::string, std::int32_t> interned;
  return load_stream(path, "wgtt.causal", 1, [&](const JsonValue& v) {
    const std::uint64_t ev =
        static_cast<std::uint64_t>(v.number_or("ev", 0.0));
    if (const JsonValue* site = v.find("site")) {
      CausalAnnotation a;
      a.ev = ev;
      a.t_ns = parse_us_ns(v, "t_us");
      const std::string name = site->is_string() ? site->as_string() : "?";
      auto [it, inserted] =
          interned.try_emplace(name, static_cast<std::int32_t>(g.sites.size()));
      if (inserted) g.sites.push_back(name);
      a.site = it->second;
      a.args = IntFields(v, {"ev", "site", "t_us"});
      // First annotation of a dispatching event labels its critical-path
      // segment (later annotations of the same event ran inline after it).
      CausalEvent& e = g.events[ev];
      if (e.site < 0) e.site = a.site;
      g.annotations.push_back(std::move(a));
    } else {
      CausalEvent& e = g.events[ev];
      e.parent = static_cast<std::uint64_t>(v.number_or("parent", 0.0));
      e.at_ns = parse_us_ns(v, "at_us");
    }
  });
}

// Map an annotation site onto the layer its critical-path segment is charged
// to.  The segment (parent -> child) is labeled by the *child* event's site:
// the child is the work the parent caused, so its duration belongs to the
// layer that scheduled it.
const char* layer_of_site(const std::string& site) {
  if (site == "ap.ioctl") return "driver";
  if (site == "ap.stop" || site == "ap.start" || site == "ap.activate") {
    return "ap_ctrl";
  }
  if (site.rfind("ap.", 0) == 0) return "ap_queue";
  if (site.rfind("ctrl.", 0) == 0) return "controller";
  if (site.rfind("backhaul.", 0) == 0) return "backhaul";
  if (site.rfind("mac.", 0) == 0) return "mac";
  if (site.rfind("transport.", 0) == 0) return "transport";
  return "sched";
}

// Charge each segment of `chain` (newest event first) to `tally`: oldest
// first, every event's execution time minus its predecessor's, starting
// from `t0`.  The first segment goes to `first_layer` when given, else to
// the layer of the event's site.  Returns the segments' sum, which
// telescopes to the last event's time minus `t0`.
std::int64_t telescope(const CausalGraph& g,
                       const std::vector<std::uint64_t>& chain,
                       std::int64_t t0, LayerTally& tally,
                       const char* first_layer = nullptr) {
  std::int64_t sum = 0;
  std::int64_t prev = t0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const CausalEvent& e = g.events.at(*it);
    const std::int64_t seg = e.at_ns - prev;
    const bool first = it == chain.rbegin() && first_layer != nullptr;
    auto& [ns, n] =
        tally[first ? first_layer : layer_of_site(g.site_name(e.site))];
    ns += static_cast<double>(seg);
    ++n;
    sum += seg;
    prev = e.at_ns;
  }
  return sum;
}

struct CausalSwitch {
  std::uint64_t start_ev = 0;
  std::uint64_t done_ev = 0;
  std::int64_t t_start_ns = 0;
  std::int64_t t_done_ns = 0;
  std::int64_t client = -1;
  std::int64_t from = -1;
  std::int64_t to = -1;
  std::int64_t retx = 0;
  bool failover = false;
  std::vector<std::uint64_t> chain;  // done_ev back to (excluding) start_ev
  bool complete = false;             // parent walk reached start_ev
  bool exact = false;                // segments sum to t_done - t_start
};

int cmd_critical_path(const std::string& path, std::size_t packet_limit,
                      const std::string& dot_path) {
  CausalGraph g;
  if (!load_causal_log(path, g)) return 2;

  std::printf("causal log: %s\n", path.c_str());
  std::printf("events: %zu   annotations: %zu   sites: %zu\n", g.events.size(),
              g.annotations.size(), g.sites.size());

  // --- pair switch windows per (client, switch id) -------------------------
  std::vector<CausalSwitch> switches;
  std::size_t complete = 0;
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> open;
  for (const CausalAnnotation& a : g.annotations) {
    const std::string& site = g.sites[static_cast<std::size_t>(a.site)];
    if (site == "ctrl.switch_start") {
      CausalSwitch s;
      s.start_ev = a.ev;
      s.t_start_ns = a.t_ns;
      s.client = a.args.get("client", -1);
      s.from = a.args.get("from", -1);
      s.to = a.args.get("to", -1);
      s.failover = a.args.get("failover", 0) != 0;
      open[{s.client, a.args.get("switch", -1)}] = switches.size();
      switches.push_back(s);
    } else if (site == "ctrl.switch_done") {
      auto it = open.find({a.args.get("client", -1), a.args.get("switch", -1)});
      if (it == open.end()) continue;
      CausalSwitch& s = switches[it->second];
      s.done_ev = a.ev;
      s.t_done_ns = a.t_ns;
      s.retx = a.args.get("retx", 0);
      s.complete = true;
      ++complete;
      open.erase(it);
    }
  }

  // --- walk each window's provenance chain and telescope the segments -----
  // Every event executes at the time it was scheduled for (at_ns), and
  // ctrl.switch_done runs inline inside the ack-delivery event, so the chain
  //   start_ev -> ... -> done_ev
  // telescopes: sum(at(child) - at(parent)) == t_done - t_start exactly.
  LayerTally layer_ns;
  std::size_t walked = 0, exact = 0;
  for (CausalSwitch& s : switches) {
    if (!s.complete) continue;
    bool ok = true;
    for (std::uint64_t cur = s.done_ev; cur != s.start_ev;
         cur = g.parent(cur)) {
      if (cur == 0 || s.chain.size() >= 1u << 20) {
        ok = false;
        break;
      }
      s.chain.push_back(cur);
    }
    if (!ok) {
      s.chain.clear();
      continue;
    }
    ++walked;
    s.exact = telescope(g, s.chain, s.t_start_ns, layer_ns) ==
              s.t_done_ns - s.t_start_ns;
    if (s.exact) ++exact;
  }

  std::printf("\nswitch windows: %zu complete (of %zu started), "
              "%zu walked, %zu exact\n",
              complete, switches.size(), walked, exact);
  if (walked > 0) {
    std::printf("%12s %10s %6s %4s %4s %5s %4s %-9s %6s %s\n", "start_us",
                "e2e_ms", "client", "from", "to", "hops", "retx", "reason",
                "exact", "");
    constexpr std::size_t kMaxRows = 40;
    std::size_t rows = 0;
    for (const CausalSwitch& s : switches) {
      if (s.chain.empty()) continue;
      if (rows++ >= kMaxRows) continue;
      std::printf("%12.3f %10.3f %6" PRId64 " %4" PRId64 " %4" PRId64
                  " %5zu %4" PRId64 " %-9s %6s\n",
                  static_cast<double>(s.t_start_ns) / 1e3,
                  static_cast<double>(s.t_done_ns - s.t_start_ns) / 1e6,
                  s.client, s.from, s.to, s.chain.size(), s.retx,
                  s.failover ? "failover" : "esnr", s.exact ? "yes" : "NO");
    }
    if (rows > kMaxRows) {
      std::printf("(+%zu more switch windows)\n", rows - kMaxRows);
    }

    std::printf("\nswitch latency attribution (segment labeled by the layer "
                "that scheduled it):\n");
    print_layer_table(layer_ns, 1e6, "segments");
  }

  // --- sampled-packet attribution -----------------------------------------
  // A packet's receive runs inside the delivering chain's event (a MAC
  // exchange completion, an ack delivery...), which was NOT scheduled by the
  // packet's own send — so the backwards walk ascends the deliverer's
  // provenance and is clamped at the send time: everything earlier is time
  // the packet waited for that chain to reach it, charged to queue_wait.
  std::map<std::uint64_t, const CausalAnnotation*> sends, rxs;
  for (const CausalAnnotation& a : g.annotations) {
    const std::string& site = g.sites[static_cast<std::size_t>(a.site)];
    const std::int64_t uid = a.args.get("uid", -1);
    if (uid <= 0) continue;
    if (site == "transport.send") {
      sends.try_emplace(static_cast<std::uint64_t>(uid), &a);
    } else if (site == "transport.rx") {
      rxs.try_emplace(static_cast<std::uint64_t>(uid), &a);
    }
  }
  LayerTally pkt_layer_ns;
  std::size_t pkt_walked = 0, pkt_exact = 0;
  std::int64_t pkt_e2e_ns = 0;
  struct PacketRow {
    std::uint64_t uid;
    std::int64_t e2e_ns;
    std::int64_t wait_ns;
    std::size_t hops;
  };
  std::vector<PacketRow> rows;
  for (const auto& [uid, rx] : rxs) {
    auto sit = sends.find(uid);
    if (sit == sends.end()) continue;
    const std::int64_t t_send = sit->second->t_ns;
    const std::int64_t t_rx = rx->t_ns;
    if (t_rx <= t_send) continue;
    // Chain of delivering events that executed after the send, newest first.
    std::vector<std::uint64_t> chain{rx->ev};
    for (std::uint64_t p = g.parent(rx->ev); p != 0 && chain.size() <= 1u << 20;
         p = g.parent(p)) {
      auto it = g.events.find(p);
      if (it == g.events.end() || it->second.at_ns <= t_send) break;
      chain.push_back(p);
    }
    ++pkt_walked;
    // The receive annotation time is the last chain event's execution time,
    // so the telescoped sum lands exactly on the measured end-to-end.
    const std::int64_t sum =
        telescope(g, chain, t_send, pkt_layer_ns, "queue_wait");
    if (sum == t_rx - t_send) ++pkt_exact;
    pkt_e2e_ns += t_rx - t_send;
    if (rows.size() < packet_limit) {
      const std::int64_t wait_ns = g.events.at(chain.back()).at_ns - t_send;
      rows.push_back({uid, t_rx - t_send, wait_ns, chain.size()});
    }
  }
  if (pkt_walked > 0) {
    std::printf("\nsampled packets: %zu delivered (send+rx annotated), "
                "%zu exact, mean e2e %.3f ms\n",
                pkt_walked, pkt_exact,
                static_cast<double>(pkt_e2e_ns) /
                    static_cast<double>(pkt_walked) / 1e6);
    if (!rows.empty()) {
      std::printf("%-12s %10s %12s %6s\n", "uid", "e2e_ms", "wait_ms",
                  "hops");
      for (const PacketRow& r : rows) {
        std::printf("%-12" PRIu64 " %10.3f %12.3f %6zu\n", r.uid,
                    static_cast<double>(r.e2e_ns) / 1e6,
                    static_cast<double>(r.wait_ns) / 1e6, r.hops);
      }
    }
    std::printf("packet latency attribution (queue_wait = time before the "
                "delivering chain started):\n");
    print_layer_table(pkt_layer_ns, 1e6, "segments");
  }

  // --- DOT subgraph --------------------------------------------------------
  if (!dot_path.empty()) {
    constexpr std::size_t kDotWindows = 5;
    std::string dot = "digraph causal {\n  rankdir=LR;\n  node [shape=box, "
                      "fontsize=10];\n";
    std::size_t emitted = 0;
    for (const CausalSwitch& s : switches) {
      if (s.chain.empty()) continue;
      if (emitted >= kDotWindows) break;
      ++emitted;
      std::uint64_t prev_ev = s.start_ev;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "  n%" PRIu64 " [label=\"ev %" PRIu64
                    "\\nctrl.switch_start\\n%.3f ms\", style=bold];\n",
                    s.start_ev, s.start_ev,
                    static_cast<double>(s.t_start_ns) / 1e6);
      dot += buf;
      for (auto it = s.chain.rbegin(); it != s.chain.rend(); ++it) {
        const CausalEvent& e = g.events[*it];
        std::snprintf(buf, sizeof(buf),
                      "  n%" PRIu64 " [label=\"ev %" PRIu64
                      "\\n%s\\n%.3f ms\"];\n  n%" PRIu64 " -> n%" PRIu64
                      ";\n",
                      *it, *it, g.site_name(e.site),
                      static_cast<double>(e.at_ns) / 1e6, prev_ev, *it);
        dot += buf;
        prev_ev = *it;
      }
    }
    dot += "}\n";
    if (!wgtt::write_text_file(dot_path, dot)) {
      std::fprintf(stderr, "wgtt-report: cannot write %s\n", dot_path.c_str());
      return 2;
    }
    std::printf("\ndot: %s (%zu window(s))\n", dot_path.c_str(), emitted);
  }

  if (walked < complete || exact < walked || pkt_exact < pkt_walked) {
    std::printf("result: ATTRIBUTION MISMATCH — %zu/%zu windows walked, "
                "%zu exact; %zu/%zu packets exact\n",
                walked, complete, exact, pkt_exact, pkt_walked);
    return 1;
  }
  std::printf("result: ok (%zu switch window(s), %zu sampled packet(s), all "
              "attributions exact)\n",
              walked, pkt_walked);
  return 0;
}

// ---------------------------------------------------------------------------
// decisions: controller decision-audit JSONL summary
// ---------------------------------------------------------------------------

int cmd_decisions(const std::string& path) {
  std::map<std::string, std::size_t> outcomes, reasons, liveness;
  std::size_t records = 0, liveness_records = 0;
  double last_t_us = 0.0;
  const bool ok =
      load_stream(path, "wgtt.decisions", 2, [&](const JsonValue& v) {
        last_t_us = v.number_or("t_us", last_t_us);
        if (v.string_or("kind", "") == "liveness") {
          ++liveness_records;
          ++liveness[v.string_or("event", "?")];
          return;
        }
        ++records;
        ++outcomes[v.string_or("outcome", "?")];
        ++reasons[v.string_or("reason", "?")];
      });
  if (!ok) return 2;
  std::printf("decision log: %s\n", path.c_str());
  std::printf("decisions: %zu   liveness events: %zu   horizon: %.3f s\n",
              records, liveness_records, last_t_us / 1e6);
  const auto print_counts = [](const char* what, const auto& counts) {
    std::printf("\n%-20s %10s\n", what, "count");
    for (const auto& [k, n] : counts) {
      std::printf("%-20s %10zu\n", k.c_str(), n);
    }
  };
  if (!outcomes.empty()) {
    print_counts("outcome", outcomes);
    print_counts("reason", reasons);
  }
  if (!liveness.empty()) print_counts("liveness event", liveness);
  return 0;
}

struct DiffState {
  double tolerance_pct = 25.0;
  double budget_ms = 0.0;  // <= 0: no per-row budget
  bool soft = false;
  int regressions = 0;
  int warnings = 0;

  // Hard per-row wall-time budget: an absolute ceiling on CURRENT rows,
  // deliberately immune to --soft.  The relative check above answers "did
  // this get slower than it was?"; the budget answers "is this still as
  // fast as the optimized hot path promises?", and a soft run must not be
  // able to wave that away.
  void check_budget(const std::string& what, double cur) {
    if (budget_ms <= 0.0) return;
    if (cur <= budget_ms) return;
    std::printf("FAIL  %-40s %10.2f ms over hard budget %.2f ms\n",
                what.c_str(), cur, budget_ms);
    ++regressions;
  }

  // A wall-time (or section-time) comparison: regression when current
  // exceeds baseline by more than the tolerance.  Sub-millisecond baselines
  // are pure scheduling noise and only ever warn.
  void check_time(const std::string& what, double base, double cur) {
    if (base <= 0.0) return;
    const double ratio = cur / base;
    const bool over = ratio > 1.0 + tolerance_pct / 100.0;
    if (!over) return;
    const bool noise_floor = base < 1.0;
    if (noise_floor) {
      std::printf("WARN  %-40s %10.2f -> %10.2f ms (%.2fx, below noise "
                  "floor)\n",
                  what.c_str(), base, cur, ratio);
      ++warnings;
      return;
    }
    std::printf("%s  %-40s %10.2f -> %10.2f ms (%.2fx > %.0f%% tolerance)\n",
                soft ? "WARN" : "FAIL", what.c_str(), base, cur, ratio,
                tolerance_pct);
    if (soft) {
      ++warnings;
    } else {
      ++regressions;
    }
  }

  void warn_drift(const std::string& what, double base, double cur) {
    std::printf("WARN  %-40s %g -> %g (same-seed metric drift)\n",
                what.c_str(), base, cur);
    ++warnings;
  }
};

int cmd_diff(const std::string& base_path, const std::string& cur_path,
             DiffState st) {
  JsonValue base, cur;
  if (!load_report(base_path, base) || !load_report(cur_path, cur)) return 2;

  // --- schema gate: the reports must describe the same sweep --------------
  const std::string base_bench = base.string_or("bench", "");
  const std::string cur_bench = cur.string_or("bench", "");
  if (base_bench != cur_bench) {
    std::fprintf(stderr,
                 "wgtt-report: bench id mismatch: \"%s\" vs \"%s\"\n",
                 base_bench.c_str(), cur_bench.c_str());
    return 2;
  }
  const auto& base_runs = base.find("runs")->as_array();
  const auto& cur_runs = cur.find("runs")->as_array();
  if (base_runs.size() != cur_runs.size()) {
    std::fprintf(stderr, "wgtt-report: run count mismatch: %zu vs %zu\n",
                 base_runs.size(), cur_runs.size());
    return 2;
  }
  for (std::size_t i = 0; i < base_runs.size(); ++i) {
    const std::string bl = base_runs[i].string_or("label", "");
    const std::string cl = cur_runs[i].string_or("label", "");
    if (bl != cl) {
      std::fprintf(stderr,
                   "wgtt-report: run %zu label mismatch: \"%s\" vs \"%s\"\n",
                   i, bl.c_str(), cl.c_str());
      return 2;
    }
    // Comparing runs produced by different handoff policies is apples to
    // oranges: goodput/switch deltas would be policy differences, not
    // regressions.  (Pre-policy reports lack the field; "" matches "".)
    const std::string bp = base_runs[i].string_or("policy", "");
    const std::string cp = cur_runs[i].string_or("policy", "");
    if (bp != cp) {
      std::fprintf(
          stderr,
          "wgtt-report: run \"%s\" policy mismatch: \"%s\" vs \"%s\"\n",
          bl.c_str(), bp.c_str(), cp.c_str());
      return 2;
    }
  }

  std::printf("diff %s: %s -> %s (tolerance %.0f%%%s", base_bench.c_str(),
              base_path.c_str(), cur_path.c_str(), st.tolerance_pct,
              st.soft ? ", soft" : "");
  if (st.budget_ms > 0.0) {
    std::printf(", hard budget %.0f ms/row", st.budget_ms);
  }
  std::printf(")\n");

  // --- deterministic outputs: same seed should mean same numbers ----------
  for (std::size_t i = 0; i < base_runs.size(); ++i) {
    const std::string label = base_runs[i].string_or("label", "?");
    const double bg = base_runs[i].number_or("goodput_mbps", 0.0);
    const double cg = cur_runs[i].number_or("goodput_mbps", 0.0);
    if (std::fabs(cg - bg) > 0.01 * std::max(std::fabs(bg), 1e-9)) {
      st.warn_drift(label + " goodput_mbps", bg, cg);
    }
    const double bs = base_runs[i].number_or("switches", 0.0);
    const double cs = cur_runs[i].number_or("switches", 0.0);
    if (bs != cs) st.warn_drift(label + " switches", bs, cs);
  }

  // --- performance: sweep wall, per-run wall, profile sections ------------
  st.check_time("sweep wall_ms", base.number_or("wall_ms", 0.0),
                cur.number_or("wall_ms", 0.0));
  for (std::size_t i = 0; i < base_runs.size(); ++i) {
    st.check_time(base_runs[i].string_or("label", "?") + " wall_ms",
                  base_runs[i].number_or("wall_ms", 0.0),
                  cur_runs[i].number_or("wall_ms", 0.0));
    st.check_budget(cur_runs[i].string_or("label", "?") + " wall_ms",
                    cur_runs[i].number_or("wall_ms", 0.0));
  }

  const ProfileTotals base_prof = aggregate_profile(base);
  const ProfileTotals cur_prof = aggregate_profile(cur);
  for (const auto& [name, base_ns] : base_prof.sections) {
    // Sections under 1 % of the baseline total are timer noise; skip them.
    if (base_prof.total_ns <= 0 || base_ns * 100 < base_prof.total_ns) {
      continue;
    }
    std::int64_t cur_ns = 0;
    for (const auto& [cn, cv] : cur_prof.sections) {
      if (cn == name) {
        cur_ns = cv;
        break;
      }
    }
    st.check_time("profile " + name, static_cast<double>(base_ns) / 1e6,
                  static_cast<double>(cur_ns) / 1e6);
  }

  if (st.regressions > 0) {
    std::printf("result: %d regression(s), %d warning(s)\n", st.regressions,
                st.warnings);
    return 1;
  }
  std::printf("result: ok (%d warning(s))\n", st.warnings);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: wgtt-report show FILE [--json]\n"
      "       wgtt-report diff BASELINE CURRENT [--tolerance PCT] [--soft]\n"
      "                        [--budget-ms MS]\n"
      "       wgtt-report packets FILE [--limit N] [--switches]\n"
      "       wgtt-report critical-path FILE [--packets N] [--dot PATH]\n"
      "       wgtt-report decisions FILE\n"
      "       wgtt-report health FILE [--strict] [--baseline FILE]\n"
      "                          [--emit-baseline FILE]\n"
      "\n"
      "exit codes: 0 ok, 1 regression/health-gate failure, 2 schema/usage "
      "error\n");
  return 2;
}

// The whole of `text` as a flag value: any text, a finite number >= 0, or a
// non-negative integer count.
bool parse_value(const std::string& text, std::string& out) {
  out = text;
  return true;
}

bool parse_value(const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && stop == end && std::isfinite(out) && out >= 0.0;
}

bool parse_value(const std::string& text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && stop == end;
}

// One flag a subcommand accepts: `--name` alone for a switch (bool target),
// else `--name V` or `--name=V`.
struct Flag {
  std::string_view name;
  std::variant<bool*, std::string*, double*, std::size_t*> target;
};

// Split one subcommand's arguments into `flags`, in any position, and
// exactly `want` positional arguments.  False (a usage error) on an unknown
// flag, a missing or malformed value, or a wrong positional count.
bool parse_args(const std::vector<std::string>& args, std::size_t want,
                std::initializer_list<Flag> flags,
                std::vector<std::string>& positional) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = std::string_view(arg).substr(2, eq - 2);
    const Flag* flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) return false;
    const bool ok = std::visit(
        [&](auto* out) {
          if constexpr (std::is_same_v<decltype(out), bool*>) {
            *out = true;
            return eq == std::string::npos;
          } else {
            if (eq == std::string::npos && i + 1 == args.size()) return false;
            return parse_value(
                eq == std::string::npos ? args[++i] : arg.substr(eq + 1), *out);
          }
        },
        flag->target);
    if (!ok) return false;
  }
  return positional.size() == want;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  std::vector<std::string> paths;
  if (cmd == "show") {
    bool json = false;
    if (!parse_args(args, 1, {{"json", &json}}, paths)) return usage();
    return cmd_show(paths[0], json);
  }
  if (cmd == "diff") {
    DiffState st;
    if (!parse_args(args, 2,
                    {{"soft", &st.soft},
                     {"tolerance", &st.tolerance_pct},
                     {"budget-ms", &st.budget_ms}},
                    paths)) {
      return usage();
    }
    return cmd_diff(paths[0], paths[1], st);
  }
  if (cmd == "packets") {
    std::size_t limit = 5;
    bool switches = false;
    if (!parse_args(args, 1, {{"limit", &limit}, {"switches", &switches}},
                    paths)) {
      return usage();
    }
    return cmd_packets(paths[0], limit, switches);
  }
  if (cmd == "critical-path") {
    std::size_t packet_limit = 5;
    std::string dot;
    if (!parse_args(args, 1, {{"packets", &packet_limit}, {"dot", &dot}},
                    paths)) {
      return usage();
    }
    return cmd_critical_path(paths[0], packet_limit, dot);
  }
  if (cmd == "decisions") {
    if (!parse_args(args, 1, {}, paths)) return usage();
    return cmd_decisions(paths[0]);
  }
  if (cmd == "health") {
    bool strict = false;
    std::string baseline, emit_baseline;
    if (!parse_args(args, 1,
                    {{"strict", &strict},
                     {"baseline", &baseline},
                     {"emit-baseline", &emit_baseline}},
                    paths)) {
      return usage();
    }
    return cmd_health(paths[0], strict, baseline, emit_baseline);
  }
  return usage();
}
