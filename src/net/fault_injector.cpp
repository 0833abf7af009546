#include "net/fault_injector.h"

#include <string>

#include "util/health.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace wgtt::net {
namespace {

thread_local FaultInjector* t_current_fault_injector = nullptr;

}  // namespace

FaultInjector::FaultInjector(sim::Scheduler& sched, sim::FaultPlan plan,
                             Rng rng)
    : sched_(sched), plan_(std::move(plan)), rng_(rng) {
  if (auto* reg = obs_.metrics) {
    m_injected_ = &reg->counter("fault.injected");
    m_cleared_ = &reg->counter("fault.cleared");
    m_active_ = &reg->gauge("fault.active");
    m_by_kind_.resize(sim::kFaultKindCount);
    for (std::size_t k = 0; k < sim::kFaultKindCount; ++k) {
      m_by_kind_[k] = &reg->counter(
          std::string("fault.") + to_string(static_cast<sim::FaultKind>(k)));
    }
  }
  for (const sim::FaultEvent& ev : plan_.events) {
    sched_.schedule_at(ev.at, [this, &ev] { apply(ev, true); });
    if (ev.duration > Time::zero()) {
      sched_.schedule_at(ev.at + ev.duration, [this, &ev] { apply(ev, false); });
    }
  }
}

FaultInjector* FaultInjector::current() { return t_current_fault_injector; }

std::pair<NodeId, NodeId> FaultInjector::link_key(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

bool FaultInjector::ap_down(NodeId ap) const {
  const auto it = aps_.find(ap);
  return it != aps_.end() && it->second.down > 0;
}

CsiFaultMode FaultInjector::csi_mode(NodeId ap) const {
  const auto it = aps_.find(ap);
  if (it == aps_.end()) return CsiFaultMode::kNormal;
  if (it->second.garbage > 0) return CsiFaultMode::kGarbage;
  if (it->second.freeze > 0) return CsiFaultMode::kFreeze;
  return CsiFaultMode::kNormal;
}

LinkImpairment FaultInjector::link(NodeId a, NodeId b) const {
  LinkImpairment imp;
  const auto it = links_.find(link_key(a, b));
  if (it == links_.end()) return imp;
  imp.blocked = it->second.blocked > 0;
  imp.drop_rate = it->second.drop_rate > 1.0 ? 1.0 : it->second.drop_rate;
  imp.extra_latency = Time::ns(it->second.extra_ns);
  imp.dup_rate = it->second.dup_rate > 1.0 ? 1.0 : it->second.dup_rate;
  imp.reorder_rate =
      it->second.reorder_rate > 1.0 ? 1.0 : it->second.reorder_rate;
  imp.reorder_jitter = Time::ns(it->second.reorder_jitter_ns);
  return imp;
}

void FaultInjector::on_ap_fault(NodeId ap, std::function<void(bool)> cb) {
  ap_callbacks_.emplace(ap, std::move(cb));
}

void FaultInjector::apply(const sim::FaultEvent& ev, bool onset) {
  const int delta = onset ? 1 : -1;
  bool crash_transition = false;
  switch (ev.kind) {
    case sim::FaultKind::kApCrash: {
      ApState& st = aps_[ev.node];
      const bool was_down = st.down > 0;
      st.down += delta;
      crash_transition = was_down != (st.down > 0);
      break;
    }
    case sim::FaultKind::kCsiFreeze:
      aps_[ev.node].freeze += delta;
      break;
    case sim::FaultKind::kCsiGarbage:
      aps_[ev.node].garbage += delta;
      break;
    case sim::FaultKind::kPartition:
      links_[link_key(ev.node, ev.peer)].blocked += delta;
      break;
    case sim::FaultKind::kLinkDrop:
      links_[link_key(ev.node, ev.peer)].drop_rate += delta * ev.rate;
      break;
    case sim::FaultKind::kLinkLatency:
      links_[link_key(ev.node, ev.peer)].extra_ns += delta * ev.extra.to_ns();
      break;
    case sim::FaultKind::kMsgDup:
      links_[link_key(ev.node, ev.peer)].dup_rate += delta * ev.rate;
      break;
    case sim::FaultKind::kMsgReorder: {
      LinkState& st = links_[link_key(ev.node, ev.peer)];
      st.reorder_rate += delta * ev.rate;
      st.reorder_jitter_ns += delta * ev.extra.to_ns();
      break;
    }
    case sim::FaultKind::kCtrlCrash: {
      // The controller is node 0 regardless of what the clause named.
      ApState& st = aps_[kControllerId];
      const bool was_down = st.down > 0;
      st.down += delta;
      crash_transition = was_down != (st.down > 0);
      break;
    }
  }
  if (onset) {
    ++faults_applied_;
    ++active_;
  } else if (active_ > 0) {
    --active_;
  }
  observe(ev, onset);
  // Fire crash subscriptions after the books are updated so a callback that
  // re-queries ap_down() sees the new state.
  if (crash_transition) {
    const NodeId victim =
        ev.kind == sim::FaultKind::kCtrlCrash ? kControllerId : ev.node;
    const auto [lo, hi] = ap_callbacks_.equal_range(victim);
    for (auto it = lo; it != hi; ++it) it->second(onset);
  }
}

void FaultInjector::observe(const sim::FaultEvent& ev, bool onset) {
  const Time now = sched_.now();
  WGTT_LOG(kInfo, "fault",
           to_string(ev.kind) << (onset ? " on" : " off") << " node="
                              << ev.node << " peer=" << ev.peer
                              << " active=" << active_);
  if (onset) {
    if (m_injected_) m_injected_->add();
    if (m_by_kind_.size() > static_cast<std::size_t>(ev.kind))
      m_by_kind_[static_cast<std::size_t>(ev.kind)]->add();
  } else if (m_cleared_) {
    m_cleared_->add();
  }
  if (m_active_) m_active_->set(static_cast<double>(active_));
  if (obs_.tracer) {
    obs_.tracer->instant("fault", to_string(ev.kind), now,
                         static_cast<std::int64_t>(ev.node),
                         {{"on", onset ? 1.0 : 0.0},
                          {"peer", static_cast<double>(ev.peer)}});
  }
  obs_.marker(now, onset ? Hop::kFaultOn : Hop::kFaultOff, ev.node,
              {{"kind", static_cast<std::int64_t>(ev.kind)},
               {"peer", static_cast<std::int64_t>(ev.peer)}});
  if (obs_.health) {
    obs_.health->fault_mark(now, to_string(ev.kind), ev.node, onset);
  }
}

ScopedFaultInjector::ScopedFaultInjector(FaultInjector* inj) {
  if (inj == nullptr) return;
  installed_ = inj;
  previous_ = t_current_fault_injector;
  t_current_fault_injector = inj;
}

ScopedFaultInjector::~ScopedFaultInjector() {
  if (installed_ != nullptr) t_current_fault_injector = previous_;
}

}  // namespace wgtt::net
