// Shared plumbing of the four JSONL observer streams (decision log, packet
// log, causal stream, health stream): the schema header each document opens
// with, integer "key":value fields, and the seeded uid sampler the two
// per-packet streams share.
//
// Every stream is hand-serialized with a fixed field order and integer-only
// number formatting, so a fixed-seed run emits byte-identical documents on
// any platform and any thread count.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

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

}  // namespace wgtt::obs
