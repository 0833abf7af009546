// The JSONL stream format of the four observer streams (decision log, packet
// log, causal stream, health stream), both sides of it.  The write side is
// the block document every stream accumulates in, the record formatter that
// writes into it (integer "key":value fields, timestamps) and the seeded uid
// sampler the two per-packet streams share; the read side is the line reader
// and the schema-header check every consumer (wgtt-report, the tests) uses.
//
// Every stream is hand-serialized with a fixed field order and integer-only
// number formatting, so a fixed-seed run emits byte-identical documents on
// any platform and any thread count.
#pragma once

#include <cassert>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

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

/// Longest rendering write_ts() produces.
inline constexpr std::size_t kTsChars = 24;

/// Render `t` as microseconds with exactly three decimals ("1234.567"), from
/// integer nanoseconds with integer arithmetic, into `out` (room for
/// kTsChars bytes); returns one past the last byte written.  The one
/// timestamp format of the JSONL streams, the Chrome trace and the telemetry
/// CSV: exact at any horizon, where a double would lose the nanoseconds.
inline char* write_ts(char* out, Time t) {
  const std::int64_t ns = t.to_ns();
  assert(ns >= 0 && "stream timestamps are sim times, never negative");
  const std::int64_t frac = ns % 1000;
  out = std::to_chars(out, out + kTsChars, ns / 1000).ptr;
  out[0] = '.';
  out[1] = static_cast<char>('0' + frac / 100);
  out[2] = static_cast<char>('0' + (frac / 10) % 10);
  out[3] = static_cast<char>('0' + frac % 10);
  return out + 4;
}

/// A stream document under construction: a chain of fixed-size blocks, so
/// an append never moves a byte already written (a growing std::string
/// copies the whole document at every regrowth).  Records are written
/// through Line; str() joins the blocks once, at hand-off.
class Document {
 public:
  /// 64 KiB blocks stay under glibc's mmap threshold, so a finished drive's
  /// blocks go back to the heap for the next drive instead of to the kernel.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

  /// A document holding only the header line
  /// {"kind":"schema","stream":"<stream>","version":N}.  The header is not a
  /// record: it lets consumers (wgtt-report, soak baselines) refuse a format
  /// they do not understand instead of mis-parsing it.
  Document(const char* stream, int version);
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Bytes written so far (no Line open).
  std::size_t size() const {
    return (blocks_.size() - 1) * kBlockBytes +
           static_cast<std::size_t>(pos_ - blocks_.back().get());
  }
  /// The whole document as one string: one exact-size allocation, one copy.
  std::string str() const;

 private:
  friend class Line;
  /// Start a new block; returns its first byte.
  char* add_block();

  std::vector<std::unique_ptr<char[]>> blocks_;  // all full but the last
  char* pos_ = nullptr;  // next free byte of the last block
  char* end_ = nullptr;  // one past the last block
};

/// One record formatted straight into a Document's tail.  Literals are
/// stored inline, integers and timestamps rendered in place by to_chars;
/// a record that reaches the end of a block continues in the next one, and
/// the joined bytes are those of the record written contiguously.  The
/// record is committed when the Line is destroyed; open one Line per
/// document at a time.
class Line {
 public:
  explicit Line(Document& doc) : doc_(doc), pos_(doc.pos_), end_(doc.end_) {}
  ~Line() { doc_.pos_ = pos_; }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  /// A string literal, without its terminating NUL.
  template <std::size_t N>
  Line& lit(const char (&s)[N]) {
    put(s, N - 1);
    return *this;
  }
  Line& str(std::string_view s) {
    put(s.data(), s.size());
    return *this;
  }
  /// A NUL-terminated string (a hop, site or field name), copied byte by
  /// byte: for names this short a strlen and a memcpy call cost more.
  Line& str(const char* s) {
    char* p = pos_;
    char* const end = end_;
    for (; *s != '\0'; ++s) {
      if (p == end) [[unlikely]] {
        pos_ = p;
        return str(std::string_view(s));
      }
      *p++ = *s;
    }
    pos_ = p;
    return *this;
  }
  Line& ch(char c) {
    if (pos_ == end_) [[unlikely]] {
      spill(&c, 1);
    } else {
      *pos_++ = c;
    }
    return *this;
  }
  /// Decimal, as std::to_string writes it.
  template <std::integral T>
  Line& num(T v) {
    static_assert(sizeof(T) <= 8);
    constexpr std::size_t kMax = 20;  // INT64_MIN, UINT64_MAX
    if (room() >= kMax) [[likely]] {
      pos_ = std::to_chars(pos_, pos_ + kMax, v).ptr;
    } else {
      char buf[kMax];
      const char* e = std::to_chars(buf, buf + kMax, v).ptr;
      spill(buf, static_cast<std::size_t>(e - buf));
    }
    return *this;
  }
  /// A timestamp (write_ts).
  Line& ts(Time t) {
    if (room() >= kTsChars) [[likely]] {
      pos_ = write_ts(pos_, t);
    } else {
      char buf[kTsChars];
      spill(buf, static_cast<std::size_t>(write_ts(buf, t) - buf));
    }
    return *this;
  }
  /// `,"key":value` for each field, in order.
  Line& fields(Fields list) {
    for (const Field& f : list) lit(",\"").str(f.key).lit("\":").num(f.value);
    return *this;
  }

 private:
  std::size_t room() const { return static_cast<std::size_t>(end_ - pos_); }
  void put(const char* s, std::size_t n) {
    if (n <= room()) [[likely]] {
      std::memcpy(pos_, s, n);
      pos_ += n;
    } else {
      spill(s, n);
    }
  }
  /// put() across the end of the block: fill it, continue in new ones.
  void spill(const char* s, std::size_t n);

  Document& doc_;
  char* pos_;
  char* end_;
};

/// splitmix64 finalizer: cheap, well-mixed uid hash for the sampler.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded uid-hash sampler of the packet log and the causal stream: keeps
/// 1-in-`sample` uids, deterministic for a fixed (seed, sample) and
/// independent of arrival order, so at equal settings both streams cover the
/// same packets.  uid 0 (markers) always passes.
inline bool uid_sampled(std::uint64_t uid, std::uint64_t seed,
                        std::uint32_t sample) {
  if (uid == 0 || sample <= 1) return true;
  return mix64(uid ^ seed) % sample == 0;
}

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
