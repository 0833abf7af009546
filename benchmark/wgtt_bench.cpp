// wgtt_bench: the repository benchmark program.
//
// Runs one workload — a fixed batch of drive-through simulations generated
// from --seed — through the simulator's public API (scenario::SweepRunner
// and a few layer entry points), checks every drive's outputs, and prints
// each metric by name with its unit.  The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  end-to-end metrics, measured with the host profiler off;
//   --trace 1  per-layer metrics from a separate profiled run plus layer
//              probes; spans around every setup pass, drive and probe are
//              kept in memory and written to TRACE_<workload>.jsonl in the
//              working directory at exit.
//
// Usage: wgtt_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//                   [--quick]
// --quick shortens every horizon to a single pass (run.sh --selftest).
// Exit status: 0 when every drive passed its checks, 1 otherwise (after
// printing every metric), 2 on a usage error.  See README.md.

#include <alloca.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/ap_selector.h"
#include "core/dedup.h"
#include "mac/airtime.h"
#include "mac/ampdu.h"
#include "net/packet.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "scenario/sweep.h"
#include "scenario/testbed.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::benchmark {
namespace {

using scenario::DriveResult;
using scenario::DriveScenarioConfig;
using Batch = std::vector<DriveScenarioConfig>;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// Linear interpolation between order statistics; q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof v);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// ---------------------------------------------------------------------------
// Spans: recorded only in the traced run, written out when it ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  std::uint64_t open(std::string_view name, std::string_view layer,
                     std::uint64_t parent, long drive) {
    spans_.push_back({spans_.size() + 1, parent, std::string(name),
                      std::string(layer), now_ns() - origin_, 0, drive});
    return spans_.back().id;
  }
  void close(std::uint64_t id) { spans_[id - 1].end_ns = now_ns() - origin_; }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"drive\":";
      if (s.drive < 0) {
        out << "null";
      } else {
        out << s.drive;
      }
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    std::string layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long drive;
  };
  std::int64_t origin_ = now_ns();
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, std::string_view layer,
             std::uint64_t parent, long drive = -1)
      : log_(log), id_(log ? log->open(name, layer, parent, drive) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Workloads.  Every input that varies is drawn from --seed through Rng
// forks: drive i's seed is root.fork(i), a chaos schedule's seed is
// root.fork("chaos").fork(i).
// ---------------------------------------------------------------------------

std::uint64_t drive_seed(const Rng& root, std::size_t i) {
  return root.fork(i).next_u64();
}

// Paper Fig. 13: 7 speeds x TCP/UDP x WGTT/Enhanced 802.11r on the 8-AP
// testbed, one client per drive, each a full transit.
Batch speed_sweep(const Rng& root, bool quick) {
  Batch batch;
  for (double mph : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 35.0}) {
    for (auto traffic : {scenario::TrafficType::kTcpDownlink,
                         scenario::TrafficType::kUdpDownlink}) {
      for (auto system : {scenario::SystemType::kWgtt,
                          scenario::SystemType::kEnhanced80211r}) {
        DriveScenarioConfig cfg;
        cfg.speed_mph = mph;
        cfg.traffic = traffic;
        cfg.system = system;
        cfg.seed = drive_seed(root, batch.size());
        if (quick) cfg.duration = Time::sec(1);
        batch.push_back(cfg);
      }
    }
  }
  return batch;
}

// 32 APs at 7.5 m, 4 clients 45 m apart at 25 mph, UDP downlink 15 Mb/s:
// 128 AP-client links, so per-link and per-candidate costs dominate.
Batch corridor(const Rng& root, bool quick) {
  DriveScenarioConfig cfg;
  cfg.testbed.ap_x.clear();
  for (int i = 0; i < 32; ++i) cfg.testbed.ap_x.push_back(7.5 * i);
  cfg.num_clients = 4;
  cfg.pattern = scenario::MultiClientPattern::kFollowing;
  cfg.following_gap_m = 45.0;
  cfg.speed_mph = 25.0;
  cfg.traffic = scenario::TrafficType::kUdpDownlink;
  cfg.udp_offered_mbps = 15.0;
  cfg.seed = drive_seed(root, 0);
  if (quick) cfg.duration = Time::sec(1);
  return {cfg};
}

// 4 parked clients per drive (run_drive parks every 0 mph client at the
// deployment midpoint, so the 20 m gap does not separate them), 32 drives
// of 4 simulated seconds, alternating TCP and UDP.  The channel's
// distance-keyed memos absorb CSI synthesis; scheduler, MAC, queue stacks
// and packet pool dominate.  A parked client's goodput is fixed by its one
// static fading realisation, so the batch is many short drives: 128
// clients keep the mean goodput within a few percent across seeds.
Batch parked(const Rng& root, bool quick) {
  Batch batch;
  for (std::size_t i = 0, n = quick ? 4 : 32; i < n; ++i) {
    DriveScenarioConfig cfg;
    cfg.num_clients = 4;
    cfg.pattern = scenario::MultiClientPattern::kFollowing;
    cfg.following_gap_m = 20.0;
    cfg.speed_mph = 0.0;
    cfg.traffic = i % 2 == 0 ? scenario::TrafficType::kTcpDownlink
                             : scenario::TrafficType::kUdpDownlink;
    cfg.duration = Time::sec(4);
    cfg.seed = drive_seed(root, i);
    batch.push_back(cfg);
  }
  return batch;
}

// FaultPlan::control_chaos (msg_dup, msg_reorder, ctrl_crash, msg_dup +
// msg_reorder) x 8 schedules at 25 mph, alternating TCP and UDP, with all
// five observer streams on and held in memory.  The fourth mode leaves out
// ctrl_crash and the link kinds: mixing ctrl_crash with msg_dup or
// msg_reorder, or adding link_drop, leaves a client with two active APs on
// about 1 in 200 schedule sets (README.md, "Known failure").  Shorter
// horizons leave too little convergence headroom after the last fault (a
// 3 s horizon strands clients), so --quick keeps the full batch.
Batch chaos_observed(const Rng& root, bool /*quick*/) {
  constexpr unsigned kMasks[] = {
      sim::FaultPlan::kChaosMsgDup, sim::FaultPlan::kChaosMsgReorder,
      sim::FaultPlan::kChaosCtrlCrash,
      sim::FaultPlan::kChaosMsgDup | sim::FaultPlan::kChaosMsgReorder};
  const Time horizon = Time::sec(6);
  const Rng chaos = root.fork("chaos");
  Batch batch;
  for (unsigned mask : kMasks) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::size_t i = batch.size();
      DriveScenarioConfig cfg;
      cfg.speed_mph = 25.0;
      cfg.duration = horizon;
      cfg.traffic = i % 2 == 0 ? scenario::TrafficType::kTcpDownlink
                               : scenario::TrafficType::kUdpDownlink;
      cfg.seed = drive_seed(root, i);
      scenario::TestbedConfig& tb = cfg.testbed;
      tb.enable_decision_log = true;
      tb.enable_telemetry = true;
      tb.enable_packet_log = true;
      tb.packet_sample = 1;
      tb.enable_causal = true;
      tb.causal_sample = 1;
      tb.enable_health = true;
      tb.faults = sim::FaultPlan::control_chaos(
          1.5, horizon, static_cast<std::uint32_t>(tb.ap_x.size()),
          chaos.fork(i).next_u64(), mask);
      batch.push_back(cfg);
    }
  }
  return batch;
}

struct Workload {
  std::string_view name;
  Batch (*make)(const Rng& root, bool quick);
  /// Health/convergence verdicts apply (the observer streams are on).
  bool chaos;
};

constexpr Workload kWorkloads[] = {
    {"speed_sweep", speed_sweep, false},
    {"corridor", corridor, false},
    {"parked", parked, false},
    {"chaos_observed", chaos_observed, true},
};

/// Fingerprint of the generated inputs (selftest: a new seed must change it).
std::uint64_t inputs_fingerprint(const Batch& batch) {
  std::uint64_t h = kFnvBasis;
  for (const auto& cfg : batch) {
    h = fnv_value(h, cfg.seed);
    const std::string faults = cfg.testbed.faults.describe();
    h = fnv(h, faults.data(), faults.size());
  }
  return h;
}

// TestbedConfig::enable_profiler defaults to true.  Every workload batch is
// built with it off; only the traced run's profiled passes turn it on.
Batch with_profiler(Batch batch, bool on) {
  for (auto& cfg : batch) cfg.testbed.enable_profiler = on;
  return batch;
}

Batch without_observers(Batch batch) {
  for (auto& cfg : batch) {
    scenario::TestbedConfig& tb = cfg.testbed;
    tb.enable_decision_log = false;
    tb.enable_telemetry = false;
    tb.enable_packet_log = false;
    tb.enable_causal = false;
    tb.enable_health = false;
  }
  return batch;
}

// Zero-horizon copies: build every testbed, overlay, client and app, run
// no simulated time, collect.
Batch setup_only(Batch batch) {
  for (auto& cfg : batch) cfg.duration = Time::ns(1);
  return batch;
}

// ---------------------------------------------------------------------------
// Per-drive checks
// ---------------------------------------------------------------------------

std::uint64_t counter(const metrics::Snapshot& snap, std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// The simulated outcome of one drive.  A pure speed-up leaves it
/// bit-identical; so do the profiler, the thread count and (apart from the
/// events they schedule themselves) the observer streams.
struct Digest {
  std::uint64_t sim = kFnvBasis;  // per-client goodput + switch latencies
  std::size_t switches = 0;
  std::uint64_t events = 0;

  bool same_sim(const Digest& o) const {
    return sim == o.sim && switches == o.switches;
  }
  bool operator==(const Digest&) const = default;
};

Digest digest(const DriveResult& r) {
  Digest d;
  for (const auto& c : r.clients) d.sim = fnv_value(d.sim, c.goodput_mbps);
  for (double ms : r.switch_latencies_ms) d.sim = fnv_value(d.sim, ms);
  d.switches = r.switches.size();
  d.events = counter(r.metrics, "sim.events_dispatched");
  return d;
}

/// Empty when the drive passed; otherwise why it failed.
std::string drive_problem(const DriveResult& r, bool chaos) {
  if (const auto drops = counter(r.metrics, "net.flow_router_drops")) {
    return std::to_string(drops) + " flow-router drops";
  }
  if (chaos && (r.health_errors > 0 || r.unconverged_clients > 0 ||
                !r.dual_active_clients.empty())) {
    return std::to_string(r.health_errors) + " health errors, " +
           std::to_string(r.unconverged_clients) + " unconverged, " +
           std::to_string(r.dual_active_clients.size()) + " dual-active";
  }
  return {};
}

struct Pass {
  double wall_s = 0.0;  // inside SweepRunner::run only
  bool threw = false;
  std::vector<Digest> digests;
  std::vector<bool> ok;
  std::vector<double> drive_ms;
  std::uint64_t events = 0;
};

using Inspect = std::function<void(std::size_t drive, const DriveResult&)>;

// SweepRunner takes the batch this many drives at a time, so a pass holds at
// most this many drives' results (observer streams included) at once.
constexpr std::size_t kChunk = 8;

/// One pass over the batch through SweepRunner.  With a span log the runner
/// takes one drive at a time, each inside a "run_drive" span.
Pass run_pass(const Batch& batch, std::size_t jobs, bool chaos,
              SpanLog* spans = nullptr, std::uint64_t parent = 0,
              const Inspect& inspect = {}) {
  const scenario::SweepRunner runner(scenario::SweepOptions{jobs});
  const std::size_t chunk = spans == nullptr ? kChunk : 1;
  Pass pass;
  for (std::size_t at = 0; at < batch.size(); at += chunk) {
    const Batch part(batch.begin() + static_cast<std::ptrdiff_t>(at),
                     batch.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(batch.size(), at + chunk)));
    scenario::SweepOutcome out;
    try {
      const ScopedSpan span(spans, "run_drive", "scenario", parent,
                            static_cast<long>(at));
      const std::int64_t t0 = now_ns();
      out = runner.run(part);
      pass.wall_s += seconds_since(t0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wgtt_bench: drive threw: %s\n", e.what());
      pass.threw = true;
      return pass;
    }
    for (std::size_t j = 0; j < out.runs.size(); ++j) {
      const std::size_t i = at + j;
      const DriveResult& r = out.runs[j].result;
      const std::string problem = drive_problem(r, chaos);
      if (!problem.empty()) {
        std::fprintf(stderr, "wgtt_bench: drive %zu (seed %llu) failed: %s\n",
                     i, static_cast<unsigned long long>(batch[i].seed),
                     problem.c_str());
      }
      pass.digests.push_back(digest(r));
      pass.ok.push_back(problem.empty());
      pass.drive_ms.push_back(out.runs[j].wall_ms);
      pass.events += pass.digests.back().events;
      if (inspect) inspect(i, r);
    }
  }
  return pass;
}

/// Attempted / failed drive counts across every pass of the run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// `ref` (when given) is the digest every drive must reproduce; with
  /// `sim_only` the event count may differ (observer streams schedule
  /// their own events).
  void count(const Pass& pass, std::size_t drives,
             const std::vector<Digest>* ref = nullptr, bool sim_only = false) {
    attempted += drives;
    if (pass.threw) {
      failed += drives;
      return;
    }
    for (std::size_t i = 0; i < drives; ++i) {
      bool good = pass.ok[i];
      if (ref != nullptr && i < ref->size()) {
        good = good && (sim_only ? pass.digests[i].same_sim((*ref)[i])
                                 : pass.digests[i] == (*ref)[i]);
      }
      if (!good) ++failed;
    }
  }
};

// ---------------------------------------------------------------------------
// Aggregates over the drives of one pass
// ---------------------------------------------------------------------------

/// Paper-fidelity statistics over the WGTT drives of a pass.  Parked
/// (0 mph) drives count only when every drive of the batch is parked: a
/// parked client's goodput is one static fading draw, 0.05 to 10 Mb/s, and
/// two of them moved speed_sweep's mean by up to 17 % between seeds.
struct Fidelity {
  explicit Fidelity(const Batch& batch)
      : batch_(batch),
        all_parked_(std::all_of(batch.begin(), batch.end(), [](const auto& c) {
          return c.speed_mph <= 0.0;
        })) {}

  double goodput_sum = 0.0;
  double accuracy_sum = 0.0;
  std::size_t clients = 0;
  std::vector<double> switch_ms;

  void add(std::size_t drive, const DriveResult& r) {
    const DriveScenarioConfig& cfg = batch_[drive];
    if (cfg.system != scenario::SystemType::kWgtt) return;
    if (cfg.speed_mph <= 0.0 && !all_parked_) return;
    for (const auto& c : r.clients) {
      goodput_sum += c.goodput_mbps;
      accuracy_sum += c.switching_accuracy;
      ++clients;
    }
    switch_ms.insert(switch_ms.end(), r.switch_latencies_ms.begin(),
                     r.switch_latencies_ms.end());
  }

 private:
  const Batch& batch_;
  bool all_parked_;
};

/// Bucket-merged histogram; quantile() mirrors metrics::Histogram.
struct MergedHistogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;

  void add(const metrics::HistogramSnapshot& h) {
    if (h.count == 0) return;
    if (buckets.empty()) {
      bounds = h.bounds;
      buckets.assign(h.buckets.size(), 0);
      min = h.min;
      max = h.max;
    }
    for (std::size_t i = 0; i < buckets.size() && i < h.buckets.size(); ++i) {
      buckets[i] += h.buckets[i];
    }
    min = std::min(min, h.min);
    max = std::max(max, h.max);
    count += h.count;
  }

  double quantile(double q) const {
    if (count == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(count))));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (cum + buckets[i] < rank) {
        cum += buckets[i];
        continue;
      }
      const double lo = std::max(i == 0 ? min : bounds[i - 1], min);
      const double hi =
          std::max(lo, std::min(i < bounds.size() ? bounds[i] : max, max));
      return lo + (hi - lo) * static_cast<double>(rank - cum) /
                      static_cast<double>(buckets[i]);
    }
    return max;
  }
};

/// Counters, histograms and profile sections summed over drives.
struct LayerTotals {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, MergedHistogram, std::less<>> histograms;
  std::map<std::string, prof::ProfileSnapshot::Entry, std::less<>> sections;
  std::int64_t profiled_ns = 0;

  void add(const DriveResult& r) {
    for (const auto& [name, v] : r.metrics.counters) counters[name] += v;
    for (const auto& h : r.metrics.histograms) histograms[h.name].add(h);
    for (const auto& e : r.profile.sections) {
      auto& s = sections[e.name];
      s.calls += e.calls;
      s.self_ns += e.self_ns;
    }
    profiled_ns += r.profile.total_ns();
  }
  std::uint64_t counter(std::string_view name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double quantile(std::string_view name, double q) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second.quantile(q);
  }
};

/// Bytes each observer stream produced over the drives of a pass.
struct StreamBytes {
  double decisions = 0, telemetry = 0, packets = 0, causal = 0, health = 0;

  void add(const DriveResult& r) {
    decisions += static_cast<double>(r.decision_jsonl.size());
    if (!r.telemetry.empty()) {
      telemetry += static_cast<double>(r.telemetry.to_csv().size());
    }
    packets += static_cast<double>(r.packet_jsonl.size());
    causal += static_cast<double>(r.causal_jsonl.size());
    health += static_cast<double>(r.health_jsonl.size());
  }
};

// ---------------------------------------------------------------------------
// Layer probes: timed calls into public layer entry points, on inputs taken
// from the workload (its AP layout, clients, trajectory, measured queue
// depth / cancel ratio / MCS) with a simulated time that advances.
// ---------------------------------------------------------------------------

double g_sink = 0.0;  // keeps every probe's result observable

struct ProbeInputs {
  DriveScenarioConfig cfg;  // the workload's representative drive
  double queue_depth = 1.0;
  double cancel_ratio = 0.0;
  unsigned mcs = 0;
};

class Prober {
 public:
  Prober(SpanLog* spans, std::uint64_t parent, bool quick)
      : spans_(spans), parent_(parent), reps_(quick ? 1 : 5),
        scale_(quick ? 0.05 : 1.0) {}

  std::size_t ops(std::size_t full) const {
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        static_cast<double>(full) * scale_));
  }

  /// Median ns per operation over reps timed batches (after one untimed).
  double time(std::string_view name, std::string_view layer, std::size_t ops,
              const std::function<void()>& batch) const {
    const ScopedSpan span(spans_, name, layer, parent_);
    batch();
    std::vector<double> per_op;
    for (int r = 0; r < reps_; ++r) {
      const std::int64_t t0 = now_ns();
      batch();
      per_op.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(ops));
    }
    return median(per_op);
  }

 private:
  SpanLog* spans_;
  std::uint64_t parent_;
  int reps_;
  double scale_;
};

// Hold model: each dispatched event schedules its successor, keeping the
// queue at the workload's depth; a cancel_ratio share of dispatches also
// schedules and cancels an extra event.
struct HoldModel {
  sim::Scheduler sched;
  Rng rng{11};
  double cancel_ratio = 0.0;
  std::size_t budget = 0;
  std::size_t fired = 0;

  Time delay() { return Time::us(rng.uniform(1.0, 1000.0)); }
  void arm() { sched.schedule(delay(), [this] { fire(); }); }
  void fire() {
    ++fired;
    if (budget == 0) return;
    --budget;
    arm();
    if (rng.bernoulli(cancel_ratio)) {
      sched.cancel(sched.schedule(delay(), [this] { fire(); }));
    }
  }
};

void run_probes(const ProbeInputs& in, const Prober& p,
                std::map<std::string, double>& out) {
  {
    const auto depth = static_cast<std::size_t>(
        std::max(1.0, std::round(in.queue_depth)));
    const std::size_t events = p.ops(200000);
    out["sim.probe.event_ns"] =
        p.time("sim.probe.event_ns", "sim", events + depth, [&] {
          HoldModel hold;
          hold.cancel_ratio = std::min(in.cancel_ratio, 1.0);
          hold.budget = events;
          for (std::size_t i = 0; i < depth; ++i) hold.arm();
          hold.sched.run();
          g_sink += static_cast<double>(hold.fired);
        });
  }

  // Channel, PHY and selector probes share one testbed built from the
  // workload's drive: its AP layout, client count and trajectories.
  std::vector<phy::Csi> csis;
  std::vector<std::vector<std::pair<net::NodeId, double>>> rounds;
  constexpr double kRoundUs = 2000.0;  // CSI report period per hearing AP
  {
    scenario::TestbedConfig tb = in.cfg.testbed;
    tb.seed = in.cfg.seed;
    tb.enable_metrics = false;
    tb.enable_profiler = false;
    tb.faults = {};
    tb.enable_decision_log = tb.enable_telemetry = tb.enable_packet_log =
        tb.enable_causal = tb.enable_health = false;
    scenario::Testbed bed(tb);
    scenario::WgttNetwork net(bed, in.cfg.wgtt);
    std::vector<net::NodeId> clients;
    for (std::size_t i = 0; i < in.cfg.num_clients; ++i) {
      clients.push_back(net.add_client(bed.drive_mobility(
          in.cfg.speed_mph, 15.0, 0.0, +1,
          in.cfg.following_gap_m * static_cast<double>(i))));
    }
    const Time horizon = in.cfg.duration > Time::zero()
                             ? in.cfg.duration
                             : bed.transit_duration(in.cfg.speed_mph) +
                                   in.cfg.app_start;
    constexpr std::size_t kInstants = 1024;
    std::vector<Time> times;
    for (std::size_t k = 0; k < kInstants; ++k) {
      times.push_back(horizon * ((static_cast<double>(k) + 0.5) / kInstants));
    }
    const channel::ChannelModel& ch = bed.channel();
    const std::vector<net::NodeId>& aps = ch.ap_ids();
    const std::size_t links = aps.size() * clients.size();
    // Query i visits every link at one instant before time advances.
    auto link_at = [&](std::size_t i, auto&& fn) {
      const std::size_t l = i % links;
      fn(aps[l % aps.size()], clients[l / aps.size()],
         times[(i / links) % kInstants]);
    };

    const std::size_t n_esnr = p.ops(60000);
    out["channel.probe.selection_esnr_ns"] =
        p.time("channel.probe.selection_esnr_ns", "channel", n_esnr, [&] {
          double acc = 0.0;
          for (std::size_t i = 0; i < n_esnr; ++i) {
            link_at(i, [&](net::NodeId ap, net::NodeId c, Time t) {
              acc += ch.downlink_selection_esnr_db(ap, c, t);
            });
          }
          g_sink += acc;
        });
    const std::size_t n_csi = p.ops(40000);
    out["channel.probe.uplink_csi_ns"] =
        p.time("channel.probe.uplink_csi_ns", "channel", n_csi, [&] {
          double acc = 0.0;
          for (std::size_t i = 0; i < n_csi; ++i) {
            link_at(i, [&](net::NodeId ap, net::NodeId c, Time t) {
              acc += ch.uplink_csi(ap, c, t).subcarrier_snr_db[0];
            });
          }
          g_sink += acc;
        });
    const std::size_t n_cand = p.ops(200000);
    std::vector<net::NodeId> cand;
    out["channel.probe.candidate_aps_ns"] =
        p.time("channel.probe.candidate_aps_ns", "channel", n_cand, [&] {
          std::size_t acc = 0;
          for (std::size_t i = 0; i < n_cand; ++i) {
            ch.candidate_aps(clients[i % clients.size()],
                             times[(i / clients.size()) % kInstants], cand);
            acc += cand.size();
          }
          g_sink += static_cast<double>(acc);
        });

    for (std::size_t i = 0; i < 256; ++i) {
      link_at(i * 7, [&](net::NodeId ap, net::NodeId c, Time t) {
        csis.push_back(ch.uplink_csi(ap, c, t));
      });
    }
    // CSI reports reaching the controller for the first client: one per
    // round from every AP whose selection ESNR clears 0 dB.
    for (std::size_t k = 0; k < 1024; ++k) {
      const Time t = Time::us(kRoundUs * static_cast<double>(k));
      auto& round = rounds.emplace_back();
      for (net::NodeId ap : aps) {
        const double esnr = ch.downlink_selection_esnr_db(ap, clients[0], t);
        if (esnr > 0.0) round.emplace_back(ap, esnr);
      }
      if (round.empty()) round.emplace_back(aps[0], 0.0);
    }
  }

  const phy::McsInfo mcs =
      phy::mcs_table()[std::min<std::size_t>(in.mcs, phy::kNumMcs - 1)];
  const std::size_t n_phy = p.ops(100000);
  out["phy.probe.esnr_ns"] = p.time("phy.probe.esnr_ns", "phy", n_phy, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_phy; ++i) {
      acc += phy::effective_snr_db(csis[i % csis.size()], mcs.modulation);
    }
    g_sink += acc;
  });

  {
    const mac::AirtimeCalculator airtime;
    const mac::AmpduAggregator agg(airtime);
    std::vector<net::PacketPtr> pkts;
    for (int i = 0; i < 64; ++i) {
      net::Packet pkt;
      pkt.size_bytes = 1460;
      pkt.seq = static_cast<std::uint64_t>(i);
      pkts.push_back(net::make_packet(std::move(pkt)));
    }
    const std::size_t n_ampdu = p.ops(100000);
    out["mac.probe.ampdu_build_ns"] =
        p.time("mac.probe.ampdu_build_ns", "mac", n_ampdu, [&] {
          std::deque<mac::Mpdu> queue;
          std::uint16_t seq = 0;
          std::size_t acc = 0;
          for (std::size_t i = 0; i < n_ampdu; ++i) {
            if (queue.empty()) {
              for (const auto& pkt : pkts) {
                queue.push_back(
                    {pkt, static_cast<std::uint16_t>(seq++ & 0x0FFF), 0});
              }
            }
            acc += mac::AmpduAggregator::total_bytes(agg.build(queue, mcs));
          }
          g_sink += static_cast<double>(acc);
        });
  }

  {
    net::PacketUidAllocator uids;
    const net::ScopedPacketUidAllocator uid_scope(&uids);
    net::PacketPool pool;
    const net::ScopedPacketPool pool_scope(&pool);
    const std::size_t n_pkt = p.ops(1000000);
    out["net.probe.packet_make_ns"] =
        p.time("net.probe.packet_make_ns", "net", n_pkt, [&] {
          net::PacketPtr window[64];
          std::uint64_t acc = 0;
          for (std::size_t i = 0; i < n_pkt; ++i) {
            net::Packet pkt;
            pkt.size_bytes = 1460;
            pkt.seq = i;
            window[i % 64] = net::make_packet(std::move(pkt));
            acc += window[i % 64]->uid & 1;
          }
          g_sink += static_cast<double>(acc);
        });
  }

  std::size_t n_sel = 0;
  for (std::size_t k = 0, target = p.ops(200000); n_sel < target; ++k) {
    n_sel += rounds[k % rounds.size()].size();
  }
  // As the controller does per CSI report: add, prune the window, select.
  out["core.probe.selector_ns"] =
      p.time("core.probe.selector_ns", "core", n_sel, [&] {
        core::MedianEsnrSelector sel;
        std::uint64_t acc = 0;
        for (std::size_t k = 0, done = 0; done < n_sel; ++k) {
          const Time t = Time::us(kRoundUs * static_cast<double>(k));
          for (const auto& [ap, esnr] : rounds[k % rounds.size()]) {
            sel.add_reading(ap, t, esnr);
            sel.prune(t);
            acc += sel.select(t);
            ++done;
          }
        }
        g_sink += static_cast<double>(acc);
      });

  // Every uplink packet reaches the controller through two APs.
  const std::size_t n_dedup = p.ops(400000);
  out["core.probe.dedup_ns"] =
      p.time("core.probe.dedup_ns", "core", n_dedup, [&] {
        core::Deduplicator dedup;
        std::size_t acc = 0;
        for (std::size_t i = 0; i < n_dedup; ++i) {
          net::Packet pkt;
          pkt.src = net::kClientBase +
                    static_cast<net::NodeId>((i / 2) % in.cfg.num_clients);
          pkt.ip_id = static_cast<std::uint16_t>(i / 2);
          acc += dedup.is_duplicate(
              pkt, Time::ns(static_cast<std::int64_t>(i / 2) * 100000));
        }
        g_sink += static_cast<double>(acc);
      });
}

// ---------------------------------------------------------------------------
// Metrics: declared names and units (they match BENCHMARK.json; run.sh
// --selftest checks that).
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},          {"ns_per_event", "ns"},
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"goodput_mbps", "Mb/s"}, {"accuracy_pct", "%"},
      {"switch_ms_p50", "sim_ms"}, {"switch_ms_p90", "sim_ms"},
  };
  return defs;
}

constexpr const char* kSections[] = {"sim.dispatch",    "channel.csi",
                                     "mac.exchange",    "core.csi_report",
                                     "core.selection",  "phy.rate_select"};

// Registry counters reported per layer, summed over the drives of a pass.
struct CounterDef {
  const char* name;
  const char* source;  // metrics-registry counter
  const char* unit;
};
constexpr CounterDef kCounters[] = {
    {"sim.events_dispatched", "sim.events_dispatched", "count"},
    {"sim.events_cancelled", "sim.events_cancelled", "count"},
    {"mac.block_ack_rollups", "mac.block_ack_rollups", "count"},
    {"net.backhaul_bytes", "net.backhaul_bytes", "bytes"},
    {"core.switches_completed", "core.switches_completed", "count"},
    {"core.dedup_hits", "core.dedup_hits", "count"},
    {"controller.protocol.dup_suppressed", "controller.protocol.dup_suppressed",
     "count"},
    {"controller.protocol.stale_rejected", "controller.protocol.stale_rejected",
     "count"},
    {"controller.protocol.retries", "controller.protocol.retries", "count"},
    {"controller.protocol.resyncs", "controller.protocol.resyncs", "count"},
    {"transport.tcp_retx", "transport.tcp_retransmissions", "count"},
    {"transport.tcp_timeouts", "transport.tcp_timeouts", "count"},
};

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.probe.event_ns", "ns"},
        {"channel.probe.selection_esnr_ns", "ns"},
        {"channel.probe.uplink_csi_ns", "ns"},
        {"channel.probe.candidate_aps_ns", "ns"},
        {"phy.probe.esnr_ns", "ns"},
        {"mac.probe.ampdu_build_ns", "ns"},
        {"net.probe.packet_make_ns", "ns"},
        {"core.probe.selector_ns", "ns"},
        {"core.probe.dedup_ns", "ns"},
    };
    for (const char* s : kSections) {
      d.push_back({std::string(s) + ".self_ms", "ms"});
      d.push_back({std::string(s) + ".calls", "count"});
      d.push_back({std::string(s) + ".share_pct", "%"});
    }
    d.push_back({"scenario.unattributed_pct", "%"});
    for (const CounterDef& c : kCounters) d.push_back({c.name, c.unit});
    d.push_back({"sim.queue_depth.p99", "events"});
    d.push_back({"mac.ampdu_mpdus.p50", "mpdus"});
    d.push_back({"core.queue_stack_backlog.p99", "packets"});
    d.push_back({"obs.profiler_overhead_pct", "%"});
    d.push_back({"obs.observer_overhead_pct", "%"});
    for (const char* s : {"decisions", "telemetry", "packets", "causal",
                          "health"}) {
      d.push_back({std::string("obs.stream_bytes.") + s, "bytes"});
    }
    d.push_back({"scenario.drive_ms_p50", "ms"});
    d.push_back({"scenario.sweep_speedup_2jobs", "x"});
    return d;
  }();
  return defs;
}

using Values = std::map<std::string, double>;
using Notes = std::map<std::string, std::string>;

std::string timing_note(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "median of n=%zu, q1 %.6g, q3 %.6g",
                v.size(), percentile(v, 0.25), percentile(v, 0.75));
  return buf;
}

// Runs fn with the stack moved down by `offset` bytes.  Set-up time depends
// on where the stack sits within a 4 KiB page: one process in four drew a
// placement that made every set-up sample ~1.5x slower.  Spreading the
// samples over the page makes their median describe the typical placement.
__attribute__((noinline)) void with_stack_offset(
    std::size_t offset, const std::function<void()>& fn) {
  volatile char* pad = static_cast<char*>(alloca(offset + 1));
  pad[0] = 0;
  fn();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

struct Run {
  const Args& args;
  const Batch batch;
  SpanLog* spans;
  std::uint64_t root_span;
  Tally tally;
  Values values;
  Notes notes;

  bool chaos() const { return args.workload->chaos; }
  std::size_t drives() const { return batch.size(); }

  /// setup_s samples: zero-horizon passes over the whole batch, each
  /// sample the mean of enough passes to last about 10 ms.  Only a pass
  /// that throws enters the tally.
  std::vector<double> setup_passes() {
    const Batch setup = setup_only(batch);
    auto setup_pass = [&] {
      if (run_pass(setup, 1, false).threw) {
        tally.attempted += drives();
        tally.failed += drives();
      }
    };
    const std::int64_t t0 = now_ns();
    setup_pass();
    const auto reps = static_cast<std::size_t>(
        std::clamp(0.01 / seconds_since(t0), 1.0, 1000.0));
    std::vector<double> walls;
    const int n = args.quick ? 3 : 21;
    for (int i = 0; i < n; ++i) {
      const ScopedSpan span(spans, "setup_sample", "scenario", root_span);
      with_stack_offset(static_cast<std::size_t>(i) * 4096 / n, [&] {
        const std::int64_t t1 = now_ns();
        for (std::size_t r = 0; r < reps; ++r) setup_pass();
        walls.push_back(seconds_since(t1) / static_cast<double>(reps));
      });
    }
    return walls;
  }

  Pass pass(const Batch& b, std::size_t jobs, const std::vector<Digest>* ref,
            bool sim_only = false, const Inspect& inspect = {},
            bool traced = false) {
    const ScopedSpan span(spans, traced ? "traced_pass" : "pass", "scenario",
                          root_span);
    Pass p = run_pass(b, jobs, chaos(), traced ? spans : nullptr, span.id(),
                      inspect);
    tally.count(p, drives(), ref, sim_only);
    return p;
  }

  // --trace 0: the end-to-end metrics, profiler off.
  void timed() {
    Fidelity fid(batch);
    const Pass warm = pass(batch, 1, nullptr, false,
                           [&](std::size_t i, const DriveResult& r) {
                             fid.add(i, r);
                           });
    const std::vector<double> setup = setup_passes();
    std::vector<double> walls;
    const std::int64_t t0 = now_ns();
    do {
      walls.push_back(pass(batch, 1, &warm.digests).wall_s);
    } while (!args.quick &&
             (walls.size() < 3 || seconds_since(t0) < args.seconds));
    const double wall = median(walls);
    values["wall_s"] = wall;
    notes["wall_s"] = timing_note(walls) + " timed passes";
    values["ns_per_event"] =
        warm.events > 0 ? wall * 1e9 / static_cast<double>(warm.events) : 0.0;
    notes["ns_per_event"] =
        "median pass wall / " + std::to_string(warm.events) + " events";
    values["setup_s"] = median(setup);
    notes["setup_s"] = timing_note(setup) + " zero-horizon samples";
    values["peak_rss_mb"] = peak_rss_mb();
    const double n = static_cast<double>(std::max<std::size_t>(fid.clients, 1));
    values["goodput_mbps"] = fid.goodput_sum / n;
    values["accuracy_pct"] = 100.0 * fid.accuracy_sum / n;
    values["switch_ms_p50"] = percentile(fid.switch_ms, 0.5);
    values["switch_ms_p90"] = percentile(fid.switch_ms, 0.9);
    const std::string over =
        "over " + std::to_string(fid.clients) + " WGTT clients";
    notes["goodput_mbps"] = notes["accuracy_pct"] = over;
    notes["switch_ms_p50"] = notes["switch_ms_p90"] =
        "simulated, over " + std::to_string(fid.switch_ms.size()) +
        " WGTT switches";
  }

  // --trace 1: a profiled run beside an unprofiled one, layer probes, and
  // the jobs=2 and observers-off reruns.
  void traced() {
    LayerTotals totals;
    StreamBytes streams;
    const Pass warm = pass(batch, 1, nullptr, false,
                           [&](std::size_t, const DriveResult& r) {
                             totals.add(r);
                             streams.add(r);
                           });
    setup_passes();
    const Batch profiled = with_profiler(batch, true);
    LayerTotals profile;
    std::vector<double> plain_walls, traced_walls, drive_ms;
    const std::int64_t t0 = now_ns();
    do {
      const Pass plain = pass(batch, 1, &warm.digests);
      plain_walls.push_back(plain.wall_s);
      drive_ms.insert(drive_ms.end(), plain.drive_ms.begin(),
                      plain.drive_ms.end());
      traced_walls.push_back(
          pass(profiled, 1, &warm.digests, false,
               [&](std::size_t, const DriveResult& r) { profile.add(r); },
               true)
              .wall_s);
    } while (!args.quick && seconds_since(t0) < args.seconds);

    ProbeInputs in;
    in.cfg = batch[batch.size() / 2];
    in.queue_depth = totals.quantile("sim.queue_depth", 0.5);
    const auto dispatched = totals.counter("sim.events_dispatched");
    in.cancel_ratio =
        dispatched > 0 ? static_cast<double>(
                             totals.counter("sim.events_cancelled")) /
                             static_cast<double>(dispatched)
                       : 0.0;
    in.mcs = static_cast<unsigned>(totals.quantile("phy.mcs_index", 0.5));
    {
      const ScopedSpan span(spans, "probes", "benchmark", root_span);
      run_probes(in, Prober(spans, span.id(), args.quick), values);
    }

    const std::size_t jobs2 = std::min<std::size_t>(
        2, std::max(1u, std::thread::hardware_concurrency()));
    const Pass two = pass(batch, jobs2, &warm.digests);
    const double plain = median(plain_walls);
    values["scenario.sweep_speedup_2jobs"] =
        two.wall_s > 0.0 ? plain / two.wall_s : 0.0;
    notes["scenario.sweep_speedup_2jobs"] =
        "median 1-job pass / one " + std::to_string(jobs2) + "-job pass";

    double observer_pct = 0.0;
    if (chaos()) {
      const Pass quiet =
          pass(without_observers(batch), 1, &warm.digests, true);
      observer_pct = quiet.wall_s > 0.0 ? 100.0 * (plain / quiet.wall_s - 1.0)
                                        : 0.0;
      notes["obs.observer_overhead_pct"] =
          "median observed pass vs one streams-off pass";
    } else {
      notes["obs.observer_overhead_pct"] = "streams off in this workload";
    }
    values["obs.observer_overhead_pct"] = observer_pct;
    values["obs.stream_bytes.decisions"] = streams.decisions;
    values["obs.stream_bytes.telemetry"] = streams.telemetry;
    values["obs.stream_bytes.packets"] = streams.packets;
    values["obs.stream_bytes.causal"] = streams.causal;
    values["obs.stream_bytes.health"] = streams.health;

    const double traced_wall = median(traced_walls);
    values["obs.profiler_overhead_pct"] =
        plain > 0.0 ? 100.0 * (traced_wall / plain - 1.0) : 0.0;
    notes["obs.profiler_overhead_pct"] =
        "median profiled pass vs median plain pass, n=" +
        std::to_string(traced_walls.size()) + " each";
    values["scenario.drive_ms_p50"] = median(drive_ms);
    notes["scenario.drive_ms_p50"] = timing_note(drive_ms) + " drives";

    // Profile sections: per profiled pass, shares of the profiled wall.
    const double passes = static_cast<double>(traced_walls.size());
    double profiled_wall_ns = 0.0;
    for (double w : traced_walls) profiled_wall_ns += w * 1e9;
    for (const char* s : kSections) {
      const auto it = profile.sections.find(s);
      const bool seen = it != profile.sections.end();
      const double self_ns =
          seen ? static_cast<double>(it->second.self_ns) : 0.0;
      const double calls = seen ? static_cast<double>(it->second.calls) : 0.0;
      values[std::string(s) + ".self_ms"] = self_ns / passes / 1e6;
      values[std::string(s) + ".calls"] = calls / passes;
      values[std::string(s) + ".share_pct"] =
          profiled_wall_ns > 0.0 ? 100.0 * self_ns / profiled_wall_ns : 0.0;
    }
    values["scenario.unattributed_pct"] =
        profiled_wall_ns > 0.0
            ? 100.0 * (profiled_wall_ns -
                       static_cast<double>(profile.profiled_ns)) /
                  profiled_wall_ns
            : 0.0;
    for (const CounterDef& c : kCounters) {
      values[c.name] = static_cast<double>(totals.counter(c.source));
    }
    values["sim.queue_depth.p99"] = totals.quantile("sim.queue_depth", 0.99);
    values["mac.ampdu_mpdus.p50"] = totals.quantile("mac.ampdu_mpdus", 0.5);
    values["core.queue_stack_backlog.p99"] =
        totals.quantile("core.queue_stack_backlog", 0.99);
  }
};

void print_usage() {
  std::fprintf(stderr,
               "usage: wgtt_bench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick]\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (w.name == name) a.workload = &w;
      }
      if (a.workload == nullptr) return false;
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(a.seconds >= 0.0)) return false;
    } else if (arg == "--trace" && has_value) {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return a.workload != nullptr;
}

int main_impl(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    print_usage();
    return 2;
  }
  const std::string name(args.workload->name);
  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;
  Run run{args,
          with_profiler(args.workload->make(Rng(args.seed), args.quick), false),
          spans, 0, {}, {}, {}};
  std::printf("workload %s  seed %llu  drives %zu  inputs %016llx  %s\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              run.drives(),
              static_cast<unsigned long long>(inputs_fingerprint(run.batch)),
              args.trace ? "traced (per-layer metrics)"
                         : "untraced (end-to-end metrics)");
  std::fflush(stdout);
  {
    const ScopedSpan top(spans, "benchmark", "benchmark", 0);
    run.root_span = top.id();
    if (args.trace) {
      run.traced();
    } else {
      run.timed();
    }
  }

  const auto& defs = args.trace ? per_layer_defs() : end_to_end_defs();
  for (const MetricDef& m : defs) {
    const double v = run.values.count(m.name) ? run.values.at(m.name) : 0.0;
    std::printf("  %-38s %16.6f %-7s %s\n", m.name.c_str(), v, m.unit.c_str(),
                run.notes.count(m.name) ? run.notes.at(m.name).c_str() : "");
  }
  const Tally& t = run.tally;
  std::printf("  %-38s %16.6f %-7s %zu of %zu drives\n", "failed_frac",
              t.attempted ? static_cast<double>(t.failed) /
                                static_cast<double>(t.attempted)
                          : 0.0,
              "ratio", t.failed, t.attempted);
  if (spans != nullptr) {
    const std::string path = "TRACE_" + name + ".jsonl";
    if (!log.write(path)) {
      std::fprintf(stderr, "wgtt_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  spans written to %s  (probe sink %.3g)\n", path.c_str(),
                g_sink);
  }

  std::string json = "{\"correct\": ";
  json += t.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    double v = run.values.count(m.name) ? run.values.at(m.name) : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return t.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wgtt::benchmark

int main(int argc, char** argv) {
  return wgtt::benchmark::main_impl(argc, argv);
}
