#include "util/trace.h"

#include <cassert>

#include "util/jsonl.h"

namespace wgtt::trace {

Tracer::Tracer() {
  w_.begin_object();
  w_.field("displayTimeUnit", "ms");
  w_.key("traceEvents").begin_array();
}

std::string Tracer::format_ts(Time t) {
  char buf[obs::kTsChars];
  return std::string(buf, obs::write_ts(buf, t));
}

void Tracer::begin_event(char ph, std::string_view cat, std::string_view name,
                         Time ts, std::int64_t tid) {
  assert(!finished_ && "trace already finished");
  ++events_;
  w_.begin_object();
  w_.field("name", name);
  w_.field("cat", cat);
  const char ph_str[2] = {ph, '\0'};
  w_.field("ph", static_cast<const char*>(ph_str));
  w_.key("ts").raw(format_ts(ts));
  w_.field("pid", std::int64_t{1});
  w_.field("tid", tid);
}

void Tracer::write_args(std::initializer_list<TraceArg> args) {
  if (args.size() == 0) return;
  w_.key("args").begin_object();
  for (const TraceArg& a : args) w_.field(a.key, a.value);
  w_.end_object();
}

void Tracer::instant(std::string_view cat, std::string_view name, Time t,
                     std::int64_t tid, std::initializer_list<TraceArg> args) {
  begin_event('i', cat, name, t, tid);
  w_.field("s", "t");  // thread-scoped instant
  write_args(args);
  w_.end_object();
}

void Tracer::complete(std::string_view cat, std::string_view name, Time start,
                      Time dur, std::int64_t tid,
                      std::initializer_list<TraceArg> args) {
  begin_event('X', cat, name, start, tid);
  w_.key("dur").raw(format_ts(dur));
  write_args(args);
  w_.end_object();
}

void Tracer::flow_start(std::string_view cat, std::string_view name, Time t,
                        std::uint64_t id, std::int64_t tid) {
  begin_event('s', cat, name, t, tid);
  w_.field("id", static_cast<std::int64_t>(id));
  w_.end_object();
}

void Tracer::flow_finish(std::string_view cat, std::string_view name, Time t,
                         std::uint64_t id, std::int64_t tid) {
  begin_event('f', cat, name, t, tid);
  // Bind to the enclosing slice's end so the arrow lands on the event that
  // completes the flow, not on the next slice of the track.
  w_.field("bp", "e");
  w_.field("id", static_cast<std::int64_t>(id));
  w_.end_object();
}

void Tracer::counter(std::string_view cat, std::string_view name, Time t,
                     double value, std::int64_t tid) {
  begin_event('C', cat, name, t, tid);
  w_.key("args").begin_object();
  w_.field("value", value);
  w_.end_object();
  w_.end_object();
}

const std::string& Tracer::finish() {
  if (!finished_) {
    w_.end_array();
    w_.end_object();
    finished_ = true;
  }
  return w_.str();
}

}  // namespace wgtt::trace
