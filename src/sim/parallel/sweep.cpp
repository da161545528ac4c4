#include "sim/parallel/sweep.hpp"

#include "sim/env.hpp"

namespace xmem::sim::par {

std::size_t host_cores() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  if (const auto raw = env("XMEM_JOBS")) {
    // Strict parse: a malformed or zero XMEM_JOBS falls through to the
    // hardware default rather than silently serializing the sweep.
    std::size_t value = 0;
    bool valid = !raw->empty();
    for (const char c : *raw) {
      if (c < '0' || c > '9' || value > (1u << 20)) {
        valid = false;
        break;
      }
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    if (valid && value > 0) return value;
  }
  return host_cores();
}

std::string merged_json(const std::vector<std::string>& cell_json) {
  std::string out = "[";
  for (std::size_t i = 0; i < cell_json.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  ";
    out += cell_json[i];
  }
  out += "\n]";
  return out;
}

}  // namespace xmem::sim::par
