// Per-packet flight recorder (JSONL lifecycle provenance).
//
// The paper's headline claims are per-packet claims — zero downlink loss
// across a sub-25 ms switch gap, uplink de-duplication on src ++ IP-ID,
// cyclic-index replay on handover — but metrics, traces, telemetry, and the
// decision log are all aggregate views.  The FlightRecorder closes that gap:
// it records every lifecycle hop of a sampled set of data packets, keyed by
// Packet::uid, from the transport send through controller fan-out, backhaul,
// the per-AP cyclic/kernel/NIC queue stages, and each MAC transmission
// attempt, down to delivery, drop, or dedup suppression.  Each record is
// stamped with the simulated clock and the acting node id, so a packet's
// records line up with trace spans and decision-log entries by t_us.
//
// One JSON object per line, hand-serialized with a fixed field order and
// pure-integer timestamp formatting (the tracer's), so a fixed-seed run
// emits byte-identical output on any platform, any thread count.  Hop sites
// reach it through obs::Context (obs/context.h), never directly.
//
// Sampling: a seeded uid-hash selects 1-in-N data packets, so long sweeps
// can afford full-lifecycle records without drowning in output.  Marker
// records (uid 0: switch start/done, stack activation) are always written —
// they are what `wgtt-report packets --switches` attributes packet stalls to.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.h"
#include "util/jsonl.h"
#include "util/time.h"

namespace wgtt::net {

/// Lifecycle hop taxonomy.  Order groups the layers: transport, controller,
/// backhaul, AP queue stack, MAC, then the uid-0 marker events.
enum class Hop : std::uint8_t {
  kTransportSend,  // transport layer emitted the packet (TCP seg/ack, UDP)
  kTransportRx,    // transport layer consumed it at the far end
  kTransportDrop,  // delivered to a flow nobody registered (miswired run)
  kCtrlFanout,     // controller stamped the cyclic index + sent one AP a copy
                   // (its drops: the wired side's downlink ingress)
  kCtrlUplink,     // controller forwarded a de-duplicated uplink packet
  kDedupSuppress,  // controller suppressed a duplicate (48-bit src++IP-ID)
  kBackhaulTx,     // tunneled frame entered the wired backhaul
  kBackhaulRx,     // tunneled frame delivered by the backhaul
  kBackhaulDrop,   // backhaul loss or unattached destination
  kApEnqueue,      // AP inserted the packet into its cyclic queue
  kApNic,          // packet crossed the kernel -> NIC boundary (seq stamped)
  kApDrop,         // AP-side discard (stale lap, flush, unknown client, full)
  kMacTx,          // one MPDU transmission attempt inside an A-MPDU
  kMacAck,         // MPDU covered by the (merged) Block ACK
  kMacRequeue,     // MPDU failed, re-queued for another attempt
  kMacDrop,        // MPDU abandoned (retry limit, quench, flush, full queue)
  kMacRx,          // MPDU decoded at the receiving radio
  kApActivate,     // marker: stack activated at start(c, k)
  kSwitchStart,    // marker: controller initiated a switch
  kSwitchDone,     // marker: switch ack received, new AP active
  kFaultOn,        // marker: a FaultInjector window opened on this node/link
  kFaultOff,       // marker: the fault window closed
};
constexpr std::size_t kHopCount = 22;

const char* to_string(Hop h);

/// Why a packet left the pipeline before delivery.  Drop/suppress hops carry
/// exactly one of these — a compile-time enum (not a free-form string) so a
/// new drop site cannot ship without a cause and `wgtt-report packets` can
/// enumerate the full autopsy vocabulary.
enum class DropCause : std::uint8_t {
  kNoFlowHandler,  // delivered to a flow nobody registered (miswired run)
  kUnattached,     // backhaul destination has no handler attached
  kLoss,           // backhaul random loss (BackhaulConfig::loss_rate)
  kDuplicate,      // controller dedup suppressed an uplink copy
  kStale,          // cyclic-queue packet older than max_packet_age
  kKernelFlush,    // kernel queue flushed on stack deactivation
  kUnknownClient,  // AP received a downlink for a client it never saw
  kHandoverFlush,  // queue flushed when the client moved to another AP
  kQuench,         // in-flight exchange abandoned after a handover flush
  kRetryLimit,     // MPDU exhausted its MAC retry budget
  kFaultInjected,  // destroyed by an injected infrastructure fault
  kQueueFull,      // tail-dropped at a full queue (client radio, baseline AP)
  kNotAssociated,  // no association to deliver through (client not yet
                   // associated, distribution without a bridge entry)
};
constexpr std::size_t kDropCauseCount = 13;

const char* to_string(DropCause c);

struct FlightRecorderConfig {
  std::uint64_t seed = 1;    // sampler seed (the Testbed passes its sim seed)
  std::uint32_t sample = 1;  // record 1-in-N data packets (1 = every packet)
};

/// JSONL schema version emitted as the stream's header line
/// ({"kind":"schema","stream":"wgtt.packets","version":N}); wgtt-report
/// refuses packet logs whose version it does not understand (exit 2).
constexpr int kPacketLogSchemaVersion = 1;

/// True for the packet types the recorder follows: transport payloads.
/// Control-plane packets (stop/start/CSI/...) are visible through markers
/// and the trace instead.
inline bool flight_recorded(PacketType t) {
  return t == PacketType::kData || t == PacketType::kTcpAck;
}

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The shared seeded uid sampler (obs::uid_sampled) at this recorder's
  /// (seed, sample).
  bool sampled(std::uint64_t uid) const {
    return obs::uid_sampled(uid, cfg_.seed, cfg_.sample);
  }

  /// Append one lifecycle record for `uid` (no-op unless sampled).  For
  /// drop/suppress hops use drop() instead — it makes the cause mandatory.
  void record(std::uint64_t uid, Time t, Hop hop, NodeId node,
              obs::Fields args = {});

  /// Append a terminal record for `uid` with a mandatory cause.  Every site
  /// that removes a packet from the pipeline (transport/backhaul/AP/MAC
  /// drops, dedup suppression) must go through this overload.
  void drop(std::uint64_t uid, Time t, Hop hop, NodeId node, DropCause cause,
            obs::Fields args = {});

  /// Append a uid-0 marker record (switch/activation events); never sampled
  /// away, so switch attribution works at any sampling rate.
  void marker(Time t, Hop hop, NodeId node, obs::Fields args = {});

  std::size_t records() const { return records_; }
  /// The accumulated JSONL document (one '\n'-terminated object per line),
  /// joined into one string: a copy, made once at hand-off.
  std::string jsonl() const { return out_.str(); }
  /// Its size in bytes, without joining it.
  std::size_t jsonl_bytes() const { return out_.size(); }
  const FlightRecorderConfig& config() const { return cfg_; }

 private:
  void append(std::uint64_t uid, Time t, Hop hop, NodeId node,
              obs::Fields args, const char* cause);

  FlightRecorderConfig cfg_;
  obs::Document out_;
  std::size_t records_ = 0;
};

}  // namespace wgtt::net
