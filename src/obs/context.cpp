#include "obs/context.h"

namespace wgtt::obs {

namespace {

thread_local const Context* t_current_context = nullptr;

/// Causal annotation site of each per-packet hop ("<layer>.<event>").
const char* causal_site(net::Hop h) {
  switch (h) {
    case net::Hop::kTransportSend: return "transport.send";
    case net::Hop::kTransportRx: return "transport.rx";
    case net::Hop::kCtrlFanout: return "ctrl.fanout";
    case net::Hop::kCtrlUplink: return "ctrl.uplink";
    case net::Hop::kBackhaulTx: return "backhaul.tx";
    case net::Hop::kBackhaulRx: return "backhaul.rx";
    case net::Hop::kApEnqueue: return "ap.enqueue";
    case net::Hop::kApNic: return "ap.nic";
    case net::Hop::kMacTx: return "mac.tx";
    case net::Hop::kMacAck: return "mac.ack";
    case net::Hop::kMacRequeue: return "mac.requeue";
    default: return nullptr;
  }
}

/// Packets whose hops get causal annotations: the sampled data packets and
/// the switch-protocol control messages (always — they are the switch
/// critical path).  CSI reports, heartbeats and the other chatty control
/// types stay edge-only, keeping the stream proportional to the interesting
/// traffic.
bool causal_annotated(const net::Packet& p, const CausalTracer& causal) {
  switch (p.type) {
    case net::PacketType::kStop:
    case net::PacketType::kStart:
    case net::PacketType::kSwitchAck:
      return true;
    default:
      return net::flight_recorded(p.type) && causal.sampled(p.uid);
  }
}

}  // namespace

const Context& Context::current() {
  static const Context kAllOff;
  return t_current_context != nullptr ? *t_current_context : kAllOff;
}

void Context::emit(const net::Packet& p, Time t, net::Hop hop,
                   net::NodeId node, Ledger ledger,
                   const net::DropCause* cause, Fields record,
                   const Fields* causal_fields) const {
  if (net::flight_recorded(p.type)) {
    count(ledger, 1);
    if (recorder != nullptr) {
      if (cause != nullptr) {
        recorder->drop(p.uid, t, hop, node, *cause, record);
      } else {
        recorder->record(p.uid, t, hop, node, record);
      }
    }
  }
  if (causal != nullptr && causal_fields != nullptr &&
      causal_annotated(p, *causal)) {
    causal->annotate_packet(causal_site(hop), p.uid, *causal_fields);
  }
}

ScopedContext::ScopedContext(const Context* ctx) {
  if (ctx == nullptr) return;
  installed_ = ctx;
  previous_ = t_current_context;
  t_current_context = ctx;
}

ScopedContext::~ScopedContext() {
  if (installed_ != nullptr) t_current_context = previous_;
}

}  // namespace wgtt::obs
