// Deterministic infrastructure fault injection.
//
// A FaultInjector turns a sim::FaultPlan into scheduled onset/clear events
// on the simulated clock and answers point queries from the components that
// honour faults: the Backhaul asks link(a, b) per frame, WgttAp asks
// ap_down()/csi_mode() and subscribes to crash transitions, the controller
// checks for an installed injector to arm its liveness machinery.
//
// Thread-scoped like LogSink, and kept out of obs::Context because it
// changes behaviour rather than observing it: the Testbed owns at most one
// injector, installs it as the constructing thread's current injector, and
// every component caches `current()` once at construction.  With no
// FaultPlan configured no injector exists, `current()` is null everywhere,
// and not one scheduler event, RNG draw, metric instrument, or trace byte
// differs from a build without this subsystem.
//
// Determinism: all fault randomness (drop-burst coins, garbage CSI values)
// comes from the injector's own RNG stream, forked from the sim seed under
// a dedicated tag, so enabling faults never perturbs the channel / MAC /
// backhaul streams and the same (plan, seed) always replays byte-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "obs/context.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace wgtt::metrics {
class Counter;
class Gauge;
}  // namespace wgtt::metrics

namespace wgtt::net {

/// How an AP's CSI pipeline is currently lying (sim::FaultKind kCsiFreeze /
/// kCsiGarbage).  Garbage wins when both windows overlap.
enum class CsiFaultMode : std::uint8_t { kNormal, kFreeze, kGarbage };

/// Net effect of every fault window currently open on one backhaul link.
struct LinkImpairment {
  bool blocked = false;          // partition: deliver nothing
  double drop_rate = 0.0;        // drop burst: per-frame loss probability
  Time extra_latency;            // latency spike: added one-way delay
  double dup_rate = 0.0;         // msg_dup: control-frame copy probability
  double reorder_rate = 0.0;     // msg_reorder: per-frame jitter probability
  Time reorder_jitter;           // msg_reorder: max added delay (FIFO bypass)
  bool impaired() const {
    return blocked || drop_rate > 0.0 || extra_latency > Time::zero() ||
           dup_rate > 0.0 || reorder_rate > 0.0;
  }
};

class FaultInjector {
 public:
  /// Schedules every plan event (onset and, for finite windows, clear) on
  /// `sched` immediately.  `rng` must be a stream dedicated to faults.
  FaultInjector(sim::Scheduler& sched, sim::FaultPlan plan, Rng rng);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The injector the calling thread's current simulation consults, or
  /// nullptr when fault injection is off (the default).
  static FaultInjector* current();

  bool ap_down(NodeId ap) const;
  /// ctrl_crash windows open on the controller (kControllerId books).
  bool ctrl_down() const { return ap_down(kControllerId); }
  CsiFaultMode csi_mode(NodeId ap) const;
  /// Combined impairment on the (undirected) link between `a` and `b`.
  LinkImpairment link(NodeId a, NodeId b) const;

  /// One Bernoulli draw from the fault stream (drop bursts).
  bool coin(double p) { return rng_.bernoulli(p); }
  /// The fault RNG stream (garbage CSI synthesis).
  Rng& rng() { return rng_; }

  /// Subscribe to crash/recover transitions of one AP; `cb(true)` fires at
  /// onset (purge queues, silence the radio), `cb(false)` at recovery.
  /// Subscribing with ap == kControllerId observes ctrl_crash windows.
  void on_ap_fault(NodeId ap, std::function<void(bool down)> cb);

  /// Onset events applied so far (fault.injected metric mirror).
  std::uint64_t faults_applied() const { return faults_applied_; }
  /// Fault windows currently open.
  std::size_t active_faults() const { return active_; }
  const sim::FaultPlan& plan() const { return plan_; }

 private:
  struct ApState {
    int down = 0;
    int freeze = 0;
    int garbage = 0;
  };
  struct LinkState {
    int blocked = 0;
    double drop_rate = 0.0;
    std::int64_t extra_ns = 0;
    double dup_rate = 0.0;
    double reorder_rate = 0.0;
    std::int64_t reorder_jitter_ns = 0;
  };
  static std::pair<NodeId, NodeId> link_key(NodeId a, NodeId b);

  void apply(const sim::FaultEvent& ev, bool onset);
  void observe(const sim::FaultEvent& ev, bool onset);

  sim::Scheduler& sched_;
  sim::FaultPlan plan_;
  Rng rng_;
  std::map<NodeId, ApState> aps_;
  std::map<std::pair<NodeId, NodeId>, LinkState> links_;
  std::multimap<NodeId, std::function<void(bool)>> ap_callbacks_;
  std::uint64_t faults_applied_ = 0;
  std::size_t active_ = 0;

  obs::Context obs_ = obs::Context::current();
  metrics::Counter* m_injected_ = nullptr;
  metrics::Counter* m_cleared_ = nullptr;
  metrics::Gauge* m_active_ = nullptr;
  std::vector<metrics::Counter*> m_by_kind_;  // indexed by FaultKind
};

/// Install `inj` as the calling thread's current fault injector for this
/// object's lifetime (RAII; nests).  Passing nullptr keeps the current one.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* inj);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* installed_ = nullptr;
  FaultInjector* previous_ = nullptr;
};

}  // namespace wgtt::net
