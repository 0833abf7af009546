#include "core/ap_queue_stack.h"

namespace wgtt::core {

ApQueueStack::ApQueueStack(sim::Scheduler& sched, mac::WifiDevice& device,
                           net::NodeId client, QueueStackConfig cfg)
    : sched_(sched), device_(device), client_(client), cfg_(cfg) {
  if (auto* reg = obs_.metrics) {
    m_backlog_ = &reg->histogram(
        "core.queue_stack_backlog", metrics::exponential_buckets(1.0, 2.0, 13));
    m_activations_ = &reg->counter("core.queue_stack_activations");
  }
  device_.set_refill_handler(client_, [this]() { pump(); });
}

std::optional<std::pair<std::uint32_t, net::PacketPtr>>
ApQueueStack::pop_fresh() {
  while (auto item = cyclic_.pop()) {
    if (sched_.now() - item->second->created <= cfg_.max_packet_age) {
      return item;
    }
    ++stale_dropped_;
    obs_.drop(*item->second, sched_.now(), net::Hop::kApDrop, device_.id(),
              net::DropCause::kStale,
              {{"client", client_}, {"index", item->first}});
  }
  return std::nullopt;
}

void ApQueueStack::note_ring_evictions() {
  // The cyclic ring destroys packets on its own in two places: insert()
  // overwrites a slot the index space lapped, and set_head() discards slots
  // another AP already delivered.  Both are benign custody ends for this
  // AP's fan-out copy, so the ledger retires (not drops) the delta.
  const std::uint64_t evicted = cyclic_.overruns() + cyclic_.discarded();
  obs_.count(obs::Ledger::kRetired, evicted - ring_evictions_seen_);
  ring_evictions_seen_ = evicted;
}

void ApQueueStack::on_downlink(std::uint32_t index, net::PacketPtr pkt) {
  obs_.hop(*pkt, sched_.now(), net::Hop::kApEnqueue, device_.id(),
           obs::Ledger::kNone, {{"client", client_}, {"index", index}},
           {{"ap", device_.id()}, {"client", client_}});
  cyclic_.insert(index, std::move(pkt));
  note_ring_evictions();
  if (active_) pump();
}

void ApQueueStack::activate(std::uint32_t start_index) {
  cyclic_.set_head(start_index);
  note_ring_evictions();
  active_ = true;
  if (m_activations_) m_activations_->add();
  if (m_backlog_) m_backlog_->record(static_cast<double>(total_backlog()));
  if (obs_.tracer) {
    obs_.tracer->instant("core", "stack_activate", sched_.now(),
                         static_cast<std::int64_t>(device_.id()),
                         {{"client", static_cast<double>(client_)},
                          {"start_index", static_cast<double>(start_index)},
                          {"backlog", static_cast<double>(total_backlog())}});
  }
  const auto backlog = static_cast<std::int64_t>(total_backlog());
  obs_.marker(sched_.now(), net::Hop::kApActivate, device_.id(),
              {{"client", client_},
               {"start_index", start_index},
               {"backlog", backlog}});
  obs_.annotate("ap.activate", {{"ap", device_.id()},
                                {"client", client_},
                                {"backlog", backlog}});
  pump();
}

std::uint32_t ApQueueStack::deactivate(bool requeue_kernel) {
  active_ = false;
  const std::uint32_t k = next_nic_index();
  if (m_backlog_) m_backlog_->record(static_cast<double>(total_backlog()));
  if (obs_.tracer) {
    obs_.tracer->instant("core", "stack_deactivate", sched_.now(),
                         static_cast<std::int64_t>(device_.id()),
                         {{"client", static_cast<double>(client_)},
                          {"k", static_cast<double>(k)},
                          {"backlog", static_cast<double>(total_backlog())}});
  }
  if (requeue_kernel) {
    // Quench path (start-first overlap styles): this AP remains a live
    // fallback in the shared BSSID, so the kernel stage rewinds instead of
    // flushing — the packets return to their cyclic slots and the head
    // returns to k.  A later start-first resume from this AP's own head
    // then lands exactly on its true first-unsent index, which is what
    // makes the next overlap window retransmit the same packets the
    // incumbent is sending (the deliberate bicast duplication).
    for (auto& [index, pkt] : kernel_) cyclic_.insert(index, std::move(pkt));
    kernel_.clear();
    cyclic_.set_head(k);
    note_ring_evictions();
    return k;
  }
  // Flush the kernel stage back into oblivion: the next AP's cyclic queue
  // already holds these packets, so local copies would only be duplicates.
  kernel_flushed_ += kernel_.size();
  for (const auto& [index, pkt] : kernel_) {
    obs_.drop(*pkt, sched_.now(), net::Hop::kApDrop, device_.id(),
              net::DropCause::kKernelFlush,
              {{"client", client_}, {"index", index}});
  }
  kernel_.clear();
  // NIC queue is left alone: the hardware keeps draining it over the air.
  return k;
}

std::size_t ApQueueStack::purge(net::DropCause cause) {
  std::size_t purged = 0;
  // Kernel stage: record and drop in place.
  for (const auto& [index, pkt] : kernel_) {
    ++purged;
    obs_.drop(*pkt, sched_.now(), net::Hop::kApDrop, device_.id(), cause,
              {{"client", client_}, {"index", index}});
  }
  kernel_.clear();
  // Cyclic stage: drain through pop() so occupancy bookkeeping stays right.
  while (auto item = cyclic_.pop()) {
    ++purged;
    obs_.drop(*item->second, sched_.now(), net::Hop::kApDrop, device_.id(),
              cause, {{"client", client_}, {"index", item->first}});
  }
  cyclic_.clear();
  active_ = false;
  purged_ += purged;
  if (obs_.tracer) {
    obs_.tracer->instant("core", "stack_purge", sched_.now(),
                         static_cast<std::int64_t>(device_.id()),
                         {{"client", static_cast<double>(client_)},
                          {"purged", static_cast<double>(purged)}});
  }
  return purged;
}

std::uint32_t ApQueueStack::next_nic_index() const {
  if (!kernel_.empty()) return kernel_.front().first;
  return cyclic_.head();
}

void ApQueueStack::pump() {
  if (!active_) return;
  // Stage 1: cyclic -> kernel.
  while (kernel_.size() < cfg_.kernel_queue_limit) {
    auto item = pop_fresh();
    if (!item) break;
    kernel_.push_back(std::move(*item));
  }
  // Stage 2: kernel -> NIC.  The 802.11 sequence number is the packet's
  // 12-bit cyclic index (the WGTT block-ACK integration).
  while (!kernel_.empty() && device_.has_room(client_)) {
    auto& [index, pkt] = kernel_.front();
    const auto seq = static_cast<std::uint16_t>(index & (net::kIndexSpace - 1));
    const net::Packet* sent = pkt.get();  // kept alive by the NIC queue
    if (!device_.enqueue(client_, std::move(pkt), seq)) break;
    obs_.hop(*sent, sched_.now(), net::Hop::kApNic, device_.id(),
             obs::Ledger::kNone, {{"client", client_}, {"seq", seq}},
             {{"ap", device_.id()}, {"client", client_}});
    kernel_.pop_front();
    // Top up the kernel stage as it drains.
    if (auto item = pop_fresh()) kernel_.push_back(std::move(*item));
  }
}

}  // namespace wgtt::core
