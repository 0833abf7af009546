#include "util/causal.h"

#include "sim/scheduler.h"
#include "util/trace.h"

namespace wgtt::obs {

CausalTracer::CausalTracer(CausalTracerConfig cfg)
    : cfg_(cfg),
      out_(jsonl_document("wgtt.causal", kCausalSchemaVersion, 1 << 20)) {}

std::uint64_t CausalTracer::current_event() const {
  return sched_ != nullptr ? sched_->current_event() : 0;
}

void CausalTracer::edge(std::uint64_t child, std::uint64_t parent, Time when) {
  std::string& s = out_;
  s += "{\"ev\":";
  s += std::to_string(child);
  s += ",\"parent\":";
  s += std::to_string(parent);
  s += ",\"at_us\":";
  s += trace::Tracer::format_ts(when);
  s += "}\n";
  ++records_;
}

void CausalTracer::begin_annotation(const char* site) {
  std::uint64_t ev = 0;
  Time t = Time::zero();
  if (sched_ != nullptr) {
    ev = sched_->current_event();
    t = sched_->now();
  }
  std::string& s = out_;
  s += "{\"ev\":";
  s += std::to_string(ev);
  s += ",\"site\":\"";
  s += site;
  s += "\",\"t_us\":";
  s += trace::Tracer::format_ts(t);
}

void CausalTracer::annotate(const char* site, Fields args) {
  begin_annotation(site);
  append_fields(out_, args);
  out_ += "}\n";
  ++records_;
}

void CausalTracer::annotate_packet(const char* site, std::uint64_t uid,
                                   Fields args) {
  begin_annotation(site);
  append_fields(out_, {{"uid", static_cast<std::int64_t>(uid)}});
  append_fields(out_, args);
  out_ += "}\n";
  ++records_;
}

}  // namespace wgtt::obs
