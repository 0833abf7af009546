#include "net/backhaul.h"

#include <algorithm>

namespace wgtt::net {

Backhaul::Backhaul(sim::Scheduler& sched, BackhaulConfig cfg, Rng rng)
    : sched_(sched), cfg_(cfg), rng_(rng) {
  if (auto* reg = obs_.metrics) {
    m_latency_us_ = &reg->histogram(
        "net.backhaul_latency_us", metrics::exponential_buckets(25.0, 2.0, 10));
    m_bytes_ = &reg->counter("net.backhaul_bytes");
  }
  injector_ = FaultInjector::current();
}

void Backhaul::attach(NodeId node, DeliverFn on_receive) {
  nodes_[node] = std::move(on_receive);
}

Time Backhaul::delivery_delay(std::size_t bytes) {
  const double serialization_s =
      static_cast<double>(bytes) * 8.0 / cfg_.link_rate_bps;
  Time d = cfg_.base_latency + Time::sec(serialization_s);
  if (cfg_.jitter > Time::zero()) {
    d += Time::ns(rng_.uniform_int(0, cfg_.jitter.to_ns()));
  }
  return d;
}

void Backhaul::send(TunneledPacket frame) {
  auto it = nodes_.find(frame.outer_dst);
  // Note the evaluation order matches the original short-circuit: the loss
  // coin is only tossed for attached destinations (RNG stream unchanged).
  bool dropped = false;
  DropCause drop_cause = DropCause::kUnattached;
  if (it == nodes_.end()) {
    dropped = true;
    drop_cause = DropCause::kUnattached;
  } else if (cfg_.loss_rate > 0.0 && rng_.bernoulli(cfg_.loss_rate)) {
    dropped = true;
    drop_cause = DropCause::kLoss;
  }
  // Injected link faults come last so they never perturb the loss-coin
  // stream, and their coins come from the injector's own RNG.
  LinkImpairment fault;
  if (!dropped && injector_ != nullptr) {
    fault = injector_->link(frame.outer_src, frame.outer_dst);
    if (fault.blocked ||
        (fault.drop_rate > 0.0 && injector_->coin(fault.drop_rate))) {
      dropped = true;
      drop_cause = DropCause::kFaultInjected;
    }
  }
  if (dropped) {
    ++frames_dropped_;
    if (frame.inner != nullptr) {
      obs_.drop(*frame.inner, sched_.now(), Hop::kBackhaulDrop, frame.outer_src,
                drop_cause, {{"dst", frame.outer_dst}});
    }
    return;
  }
  ++frames_sent_;
  bytes_sent_ += frame.wire_bytes;

  // Fault-injected latency spikes stack on top of the normal delay model
  // (after delivery_delay so the jitter draw is undisturbed).
  Time arrival =
      sched_.now() + delivery_delay(frame.wire_bytes) + fault.extra_latency;
  // msg_reorder: a coin-selected control frame gains bounded extra delay and
  // bypasses the FIFO book, so frames sent after it may overtake it — the
  // in-order guarantee the switch protocol otherwise enjoys is broken for
  // exactly these frames.  Data stays FIFO: TCP reordering is modelled at
  // the MAC, not here.
  const bool ctrl = frame.inner != nullptr && !flight_recorded(frame.inner->type);
  bool reordered = false;
  if (ctrl && fault.reorder_rate > 0.0 && injector_->coin(fault.reorder_rate)) {
    reordered = true;
    arrival += Time::ns(
        injector_->rng().uniform_int(1, std::max<std::int64_t>(
                                            1, fault.reorder_jitter.to_ns())));
  }
  if (!reordered) {
    // FIFO per (src, dst): never deliver earlier than a previously sent
    // frame.
    auto key = std::make_pair(frame.outer_src, frame.outer_dst);
    auto [prev, inserted] = last_delivery_.try_emplace(key, arrival);
    if (!inserted) {
      arrival = std::max(arrival, prev->second);
      prev->second = arrival;
    }
  }

  if (m_latency_us_) {
    m_latency_us_->record((arrival - sched_.now()).to_us());
    m_bytes_->add(frame.wire_bytes);
  }
  if (frame.inner != nullptr) {
    obs_.hop(*frame.inner, sched_.now(), Hop::kBackhaulTx, frame.outer_src,
             obs::Ledger::kNone,
             {{"dst", frame.outer_dst},
              {"bytes", static_cast<std::int64_t>(frame.wire_bytes)}},
             {{"src", frame.outer_src}, {"dst", frame.outer_dst}});
  }
  // msg_dup: schedule a second, slightly later delivery of the same control
  // frame (same uid, same ctrl_seq — exactly what a duplicating switch
  // fabric produces).  The copy also bypasses the FIFO book.
  if (ctrl && fault.dup_rate > 0.0 && injector_->coin(fault.dup_rate)) {
    const Time dup_arrival =
        arrival + Time::ns(injector_->rng().uniform_int(1, Time::ms(1).to_ns()));
    DeliverFn& dup_deliver = it->second;
    TunneledPacket copy = frame;
    sched_.schedule_at(dup_arrival,
                       [&dup_deliver, copy = std::move(copy)]() {
                         dup_deliver(copy);
                       });
  }
  DeliverFn& deliver = it->second;
  sched_.schedule_at(arrival, [this, &deliver, frame = std::move(frame)]() {
    if (frame.inner != nullptr) {
      obs_.hop(*frame.inner, sched_.now(), Hop::kBackhaulRx, frame.outer_dst,
               obs::Ledger::kNone, {{"src", frame.outer_src}},
               {{"src", frame.outer_src}, {"dst", frame.outer_dst}});
    }
    deliver(frame);
  });
}

}  // namespace wgtt::net
