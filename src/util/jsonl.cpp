#include "util/jsonl.h"

#include "util/json.h"

namespace wgtt::obs {

Document::Document(const char* stream, int version) {
  pos_ = add_block();
  Line(*this)
      .lit("{\"kind\":\"schema\",\"stream\":\"")
      .str(stream)
      .lit("\",\"version\":")
      .num(version)
      .lit("}\n");
}

char* Document::add_block() {
  blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
  char* block = blocks_.back().get();
  end_ = block + kBlockBytes;
  return block;
}

std::string Document::str() const {
  std::string out;
  out.reserve(size());
  for (std::size_t i = 0; i + 1 < blocks_.size(); ++i) {
    out.append(blocks_[i].get(), kBlockBytes);
  }
  const char* last = blocks_.back().get();
  out.append(last, static_cast<std::size_t>(pos_ - last));
  return out;
}

void Line::spill(const char* s, std::size_t n) {
  while (n > room()) {
    const std::size_t fill = room();
    std::memcpy(pos_, s, fill);
    s += fill;
    n -= fill;
    pos_ = doc_.add_block();
    end_ = doc_.end_;
  }
  std::memcpy(pos_, s, n);
  pos_ += n;
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
