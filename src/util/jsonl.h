// The JSONL stream format of the four observer streams (decision log, packet
// log, causal stream, health stream), both sides of it.  The write side is
// the schema header each document opens with, integer "key":value fields,
// and the seeded uid sampler the two per-packet streams share; the read side
// is the line reader and the schema-header check every consumer
// (wgtt-report, the tests) uses.
//
// Every stream is hand-serialized with a fixed field order and integer-only
// number formatting, so a fixed-seed run emits byte-identical documents on
// any platform and any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace wgtt {
class JsonValue;
}

namespace wgtt::obs {

/// One integer field of a JSONL record.  `key` must be a static string and
/// must not collide with the record's fixed fields.
struct Field {
  const char* key;
  std::int64_t value;
};
using Fields = std::initializer_list<Field>;

/// A new stream document with `reserve` bytes of capacity, holding only the
/// header line {"kind":"schema","stream":"<stream>","version":N}.  The header
/// is not a record: it lets consumers (wgtt-report, soak baselines) refuse a
/// format they do not understand instead of mis-parsing it.
std::string jsonl_document(const char* stream, int version,
                           std::size_t reserve);

/// Append `,"key":value` for each field, in order.
void append_fields(std::string& out, Fields fields);

/// Seeded uid-hash sampler of the packet log and the causal stream: keeps
/// 1-in-`sample` uids, deterministic for a fixed (seed, sample) and
/// independent of arrival order, so at equal settings both streams cover the
/// same packets.  uid 0 (markers) always passes.
bool uid_sampled(std::uint64_t uid, std::uint64_t seed, std::uint32_t sample);

/// Read a stream document back: skips blank lines, parses every other line
/// as a JSON object and hands it to `on_record` in order, the schema header
/// included.  Returns false at the first line that is not a JSON object,
/// with `*error` (if non-null) set to "line N: <reason>", or as soon as
/// `on_record` returns false, leaving `*error` to the callback.
bool read_jsonl(std::string_view document,
                const std::function<bool(const JsonValue&)>& on_record,
                std::string* error = nullptr);

/// Check a {"kind":"schema"} header record against the stream a consumer
/// reads.  Returns an empty string when it names `stream` at a version from
/// 1 to `max_version`, else why the consumer must refuse the document: a
/// newer version means the emitter is ahead of the reader, whose records
/// may no longer mean what it thinks they mean.
std::string schema_mismatch(const JsonValue& header, std::string_view stream,
                            int max_version);

}  // namespace wgtt::obs
