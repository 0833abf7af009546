#include "util/causal.h"

#include "sim/scheduler.h"

namespace wgtt::obs {

CausalTracer::CausalTracer(CausalTracerConfig cfg)
    : cfg_(cfg), out_("wgtt.causal", kCausalSchemaVersion) {}

std::uint64_t CausalTracer::current_event() const {
  return sched_ != nullptr ? sched_->current_event() : 0;
}

void CausalTracer::edge(std::uint64_t child, std::uint64_t parent, Time when) {
  Line(out_)
      .lit("{\"ev\":")
      .num(child)
      .lit(",\"parent\":")
      .num(parent)
      .lit(",\"at_us\":")
      .ts(when)
      .lit("}\n");
  ++records_;
}

void CausalTracer::begin_annotation(Line& line, const char* site) {
  std::uint64_t ev = 0;
  Time t = Time::zero();
  if (sched_ != nullptr) {
    ev = sched_->current_event();
    t = sched_->now();
  }
  line.lit("{\"ev\":")
      .num(ev)
      .lit(",\"site\":\"")
      .str(site)
      .lit("\",\"t_us\":")
      .ts(t);
}

void CausalTracer::annotate(const char* site, Fields args) {
  Line line(out_);
  begin_annotation(line, site);
  line.fields(args).lit("}\n");
  ++records_;
}

void CausalTracer::annotate_packet(const char* site, std::uint64_t uid,
                                   Fields args) {
  Line line(out_);
  begin_annotation(line, site);
  line.fields({{"uid", static_cast<std::int64_t>(uid)}})
      .fields(args)
      .lit("}\n");
  ++records_;
}

}  // namespace wgtt::obs
