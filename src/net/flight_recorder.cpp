#include "net/flight_recorder.h"

namespace wgtt::net {

const char* to_string(Hop h) {
  switch (h) {
    case Hop::kTransportSend: return "transport_send";
    case Hop::kTransportRx: return "transport_rx";
    case Hop::kTransportDrop: return "transport_drop";
    case Hop::kCtrlFanout: return "ctrl_fanout";
    case Hop::kCtrlUplink: return "ctrl_uplink";
    case Hop::kDedupSuppress: return "dedup_suppress";
    case Hop::kBackhaulTx: return "backhaul_tx";
    case Hop::kBackhaulRx: return "backhaul_rx";
    case Hop::kBackhaulDrop: return "backhaul_drop";
    case Hop::kApEnqueue: return "ap_enqueue";
    case Hop::kApNic: return "ap_nic";
    case Hop::kApDrop: return "ap_drop";
    case Hop::kMacTx: return "mac_tx";
    case Hop::kMacAck: return "mac_ack";
    case Hop::kMacRequeue: return "mac_requeue";
    case Hop::kMacDrop: return "mac_drop";
    case Hop::kMacRx: return "mac_rx";
    case Hop::kApActivate: return "ap_activate";
    case Hop::kSwitchStart: return "switch_start";
    case Hop::kSwitchDone: return "switch_done";
    case Hop::kFaultOn: return "fault_on";
    case Hop::kFaultOff: return "fault_off";
  }
  return "?";
}

const char* to_string(DropCause c) {
  switch (c) {
    case DropCause::kNoFlowHandler: return "no_flow_handler";
    case DropCause::kUnattached: return "unattached";
    case DropCause::kLoss: return "loss";
    case DropCause::kDuplicate: return "duplicate";
    case DropCause::kStale: return "stale";
    case DropCause::kKernelFlush: return "kernel_flush";
    case DropCause::kUnknownClient: return "unknown_client";
    case DropCause::kHandoverFlush: return "handover_flush";
    case DropCause::kQuench: return "quench";
    case DropCause::kRetryLimit: return "retry_limit";
    case DropCause::kFaultInjected: return "fault_injected";
    case DropCause::kQueueFull: return "queue_full";
    case DropCause::kNotAssociated: return "not_associated";
  }
  return "?";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg)
    : cfg_(cfg), out_("wgtt.packets", kPacketLogSchemaVersion) {}

void FlightRecorder::record(std::uint64_t uid, Time t, Hop hop, NodeId node,
                            obs::Fields args) {
  append(uid, t, hop, node, args, nullptr);
}

void FlightRecorder::drop(std::uint64_t uid, Time t, Hop hop, NodeId node,
                          DropCause cause, obs::Fields args) {
  append(uid, t, hop, node, args, to_string(cause));
}

void FlightRecorder::append(std::uint64_t uid, Time t, Hop hop, NodeId node,
                            obs::Fields args, const char* cause) {
  if (!sampled(uid)) return;
  // Hand-rolled serialization with a fixed field order and integer-only
  // number formatting (the decision log's recipe) — every byte deterministic.
  obs::Line line(out_);
  line.lit("{\"uid\":")
      .num(uid)
      .lit(",\"t_us\":")
      .ts(t)
      .lit(",\"hop\":\"")
      .str(to_string(hop))
      .lit("\",\"node\":")
      .num(node)
      .fields(args);
  if (cause != nullptr) line.lit(",\"cause\":\"").str(cause).ch('"');
  line.lit("}\n");
  ++records_;
}

void FlightRecorder::marker(Time t, Hop hop, NodeId node, obs::Fields args) {
  append(0, t, hop, node, args, nullptr);
}

}  // namespace wgtt::net
