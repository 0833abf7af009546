// Deterministic infrastructure fault schedules.
//
// A FaultPlan is a declarative list of infrastructure faults — AP crashes,
// backhaul drop bursts / latency spikes / partitions, CSI staleness or
// corruption — each pinned to a window on the *simulated* clock.  The plan
// is plain data (no scheduler or RNG state) so it lives in TestbedConfig by
// value and copies across sweep threads; net::FaultInjector turns it into
// scheduled onset/clear events at Testbed construction.
//
// An empty plan is the common case and must stay free: Testbed only
// constructs an injector when the plan is non-empty, so fault-free runs are
// bitwise-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace wgtt::sim {

enum class FaultKind : std::uint8_t {
  kApCrash,      // AP down: queues purged, radio silent, no heartbeats
  kLinkDrop,     // backhaul link drops frames with probability `rate`
  kLinkLatency,  // backhaul link adds `extra` one-way latency
  kPartition,    // backhaul link delivers nothing
  kCsiFreeze,    // AP keeps reporting CSI but the measurement is stale
  kCsiGarbage,   // AP reports CSI with random subcarrier SNRs
  kMsgDup,       // backhaul link duplicates control frames with prob `rate`
  kMsgReorder,   // control frames gain uniform extra delay in (0, `extra`],
                 // bypassing the per-link FIFO guarantee (reordering)
  kCtrlCrash,    // controller down: control state lost, warm restart + resync
};

constexpr std::size_t kFaultKindCount = 9;

/// Kinds the legacy chaos() generator draws from.  Frozen at the PR-5 set:
/// enlarging the draw range would silently reshuffle every existing chaos
/// plan (and its committed baselines) for a given seed.  The control-plane
/// kinds are reachable only through explicit specs and control_chaos().
constexpr std::size_t kClassicChaosKindCount = 6;

const char* to_string(FaultKind k);

/// One fault window [at, at + duration).  `node` is the faulted AP (or one
/// backhaul endpoint for link kinds); `peer` is the other link endpoint
/// (0 = the controller).  Link impairments are symmetric: they apply to
/// frames in both directions.  A non-positive duration means the fault
/// never clears.
struct FaultEvent {
  FaultKind kind = FaultKind::kApCrash;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  Time at;
  Time duration;
  double rate = 1.0;  // kLinkDrop: per-frame drop probability
  Time extra;         // kLinkLatency: added one-way latency
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Parse the `--faults=SPEC` grammar (EXPERIMENTS.md "Chaos sweeps"):
  ///
  ///   SPEC   := clause (';' clause)*
  ///   clause := KIND ':' key '=' value (',' key '=' value)*
  ///   KIND   := ap_crash | link_drop | link_latency | partition |
  ///             csi_freeze | csi_garbage | msg_dup | msg_reorder |
  ///             ctrl_crash
  ///   keys   := ap (node id) | src | dst | at | for | rate | extra
  ///   times  := <number> suffixed us | ms | s
  ///
  /// e.g. "ap_crash:ap=3,at=1s,for=500ms;link_drop:src=2,at=2s,for=1s,rate=0.5"
  /// Every value must parse whole: a node id is an unsigned integer that
  /// fits in 32 bits, a rate a finite number in [0, 1], a time a finite
  /// number that fits Time.  at= must be >= 0; a non-positive for= means the
  /// fault never clears.  ctrl_crash targets the controller, so its node id
  /// is optional; ap_crash, csi_freeze and csi_garbage reject node 0 (the
  /// controller).  msg_dup requires rate= and msg_reorder requires rate=
  /// and extra= (jitter bound).  Returns false (and sets *error, naming the
  /// offending clause, if given) on a malformed spec.
  static bool parse(std::string_view spec, FaultPlan& out,
                    std::string* error = nullptr);

  /// A deterministic pseudo-random plan: roughly `intensity` faults per
  /// simulated second over [15%, 85%] of `horizon`, drawn from a dedicated
  /// RNG stream so the same (intensity, horizon, n_aps, seed) always yields
  /// the same plan.  intensity <= 0 yields an empty plan.  Draws only the
  /// classic PR-5 kinds (see kClassicChaosKindCount).
  static FaultPlan chaos(double intensity, Time horizon, std::uint32_t n_aps,
                         std::uint64_t seed);

  /// Bitmask selecting which kinds control_chaos() may draw.
  enum : unsigned {
    kChaosMsgDup = 1u << 0,
    kChaosMsgReorder = 1u << 1,
    kChaosCtrlCrash = 1u << 2,
    kChaosLinkDrop = 1u << 3,
    kChaosLinkLatency = 1u << 4,
    kChaosControlAll = (1u << 5) - 1,
  };

  /// The protocol fuzzer's schedule generator: a deterministic adversarial
  /// control-plane plan of roughly `intensity` faults per simulated second
  /// drawn from the kinds enabled in `kind_mask`, windows confined to
  /// [10%, 75%] of `horizon` so every fault clears with convergence
  /// headroom before the run ends.  Its own RNG stream ("control-chaos")
  /// keeps it independent of chaos() for the same seed.
  static FaultPlan control_chaos(double intensity, Time horizon,
                                 std::uint32_t n_aps, std::uint64_t seed,
                                 unsigned kind_mask = kChaosControlAll);

  /// Human-readable one-per-line summary for bench/CLI output.
  std::string describe() const;
};

}  // namespace wgtt::sim
