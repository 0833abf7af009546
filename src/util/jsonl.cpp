#include "util/jsonl.h"

#include "util/json.h"

namespace wgtt::obs {

namespace {

// splitmix64 finalizer: cheap, well-mixed uid hash for the sampler.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string jsonl_document(const char* stream, int version,
                           std::size_t reserve) {
  std::string out;
  out.reserve(reserve);
  out += "{\"kind\":\"schema\",\"stream\":\"";
  out += stream;
  out += "\",\"version\":";
  out += std::to_string(version);
  out += "}\n";
  return out;
}

void append_fields(std::string& out, Fields fields) {
  for (const Field& f : fields) {
    out += ",\"";
    out += f.key;
    out += "\":";
    out += std::to_string(f.value);
  }
}

bool uid_sampled(std::uint64_t uid, std::uint64_t seed, std::uint32_t sample) {
  if (uid == 0 || sample <= 1) return true;
  return mix64(uid ^ seed) % sample == 0;
}

bool read_jsonl(std::string_view document,
                const std::function<bool(const JsonValue&)>& on_record,
                std::string* error) {
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < document.size();) {
    std::size_t eol = document.find('\n', pos);
    if (eol == std::string_view::npos) eol = document.size();
    const std::string_view line = document.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue v;
    std::string reason;
    if (!json_parse(line, v, &reason) || !v.is_object()) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": " +
                 (reason.empty() ? "not a JSON object" : reason);
      }
      return false;
    }
    if (!on_record(v)) return false;
  }
  return true;
}

std::string schema_mismatch(const JsonValue& header, std::string_view stream,
                            int max_version) {
  const std::string got = header.string_or("stream", "");
  const int version = static_cast<int>(header.number_or("version", 0.0));
  const std::string want(stream);
  if (got != want) {
    return "schema stream \"" + got + "\" (expected \"" + want + "\")";
  }
  if (version < 1 || version > max_version) {
    return "schema version " + std::to_string(version) +
           " unsupported (this tool understands \"" + want +
           "\" up to version " + std::to_string(max_version) + ")";
  }
  return {};
}

}  // namespace wgtt::obs
