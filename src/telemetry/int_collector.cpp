#include "telemetry/int_collector.hpp"

#include <algorithm>

#include "net/flow.hpp"
#include "telemetry/json.hpp"

namespace xmem::telemetry {

void IntCollector::collect(const net::Packet& packet, sim::Time now) {
  const net::IntStack* stack = packet.meta().int_stack.get();
  if (stack == nullptr || stack->empty()) {
    ++untagged_packets_;
    return;
  }
  ++tagged_packets_;
  if (stack->overflowed()) ++overflowed_stacks_;
  wire_bytes_ += static_cast<std::int64_t>(stack->wire_bytes());

  // Path latency: first hop ingress to arrival here, mod-2^32 ns.
  const std::uint32_t path_ns =
      net::int_timestamp_ns(now) - stack->hop(0).ingress_ns;
  const double path_us = static_cast<double>(path_ns) / 1000.0;
  path_latency_us_->add(path_us);

  hop_records_ += stack->size();
  for (std::size_t i = 0; i < stack->size(); ++i) {
    const net::IntHopRecord& rec = stack->hop(i);
    // Only TM occupancy is aggregated (the §2.1 congestion signal). Link
    // and RNIC depths ride in the wire records for per-packet inspection;
    // every add here is paid per packet.
    if ((rec.flags & net::IntHopRecord::kFlagDepthValid) != 0 &&
        rec.kind == static_cast<std::uint8_t>(net::IntHopKind::kTmQueue)) {
      tm_queue_depth_bytes_->add(static_cast<double>(rec.queue_depth));
    }
  }

  // Per-flow accounting is opt-in depth (max_flows > 0): the hash and
  // table probe are the one part of collection paid per packet that
  // aggregate histograms can't amortize, so the always-on profile runs
  // aggregate-only and flow tables are enabled where the extra
  // resolution is worth the cost (debug sessions, scoped sinks).
  if (config_.max_flows == 0) return;
  // Keyed by five-tuple hash (0 = unclassifiable).
  const std::uint64_t key = net::packet_flow_hash(packet).value_or(0);
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    if (flows_.size() >= config_.max_flows) {
      ++flow_table_overflow_;
      return;
    }
    it = flows_.emplace(key, FlowStats{}).first;
  }
  ++it->second.packets;
  it->second.path_latency_us.add(path_us);
}

void IntCollector::register_metrics(MetricsRegistry& registry,
                                    const std::string& prefix) {
  registry.register_counter(prefix + "/tagged_packets", &tagged_packets_,
                            "packets");
  registry.register_counter(prefix + "/untagged_packets", &untagged_packets_,
                            "packets");
  registry.register_counter(prefix + "/hop_records", &hop_records_,
                            "records");
  registry.register_counter(prefix + "/overflowed_stacks",
                            &overflowed_stacks_, "stacks");
  registry.register_counter(prefix + "/flow_table_overflow",
                            &flow_table_overflow_, "packets");
  registry.register_counter(
      prefix + "/wire_bytes", [this]() { return wire_bytes_; }, "bytes");
  registry.register_gauge(
      prefix + "/flows",
      [this]() { return static_cast<double>(flows_.size()); }, "flows");

  // Re-home the distributions into the registry: snapshot() expands them
  // into count/min/mean/p50/p99/max rows, and samplers skip histograms,
  // so nothing pays a percentile sort per tick.
  auto rehome = [&registry](const std::string& name, const char* unit,
                            stats::Histogram*& live) {
    stats::Histogram& owned = registry.histogram(name, unit);
    owned.merge(*live);
    live = &owned;
  };
  rehome(prefix + "/path_latency_us", "us", path_latency_us_);
  rehome(prefix + "/tm_queue_depth_bytes", "bytes", tm_queue_depth_bytes_);
}

std::vector<std::pair<std::uint64_t, const IntCollector::FlowStats*>>
IntCollector::sorted_flows() const {
  std::vector<std::pair<std::uint64_t, const FlowStats*>> out;
  out.reserve(flows_.size());
  for (const auto& [key, fs] : flows_) out.emplace_back(key, &fs);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string IntCollector::flows_json() const {
  json::JsonWriter w;
  w.begin_array();
  for (const auto& [key, fs] : sorted_flows()) {
    w.begin_object();
    w.kv("flow", key);
    w.kv("packets", fs->packets);
    w.kv("path_latency_us_count",
         static_cast<std::uint64_t>(fs->path_latency_us.count()));
    if (fs->path_latency_us.count() > 0) {
      w.kv("path_latency_us_mean", fs->path_latency_us.mean());
      w.kv("path_latency_us_p99", fs->path_latency_us.p99());
    }
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace xmem::telemetry
