#include "util/jsonl.h"

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

}  // namespace wgtt::obs
