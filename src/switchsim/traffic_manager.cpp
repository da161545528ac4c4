#include "switchsim/traffic_manager.hpp"

#include <cassert>
#include <stdexcept>

namespace xmem::switchsim {

TrafficManager::TrafficManager(int port_count, Config config)
    : config_(config),
      queues_(static_cast<std::size_t>(port_count)),
      stats_(static_cast<std::size_t>(port_count)) {
  if (config_.shared_buffer_bytes <= 0) {
    throw std::invalid_argument("TrafficManager: shared_buffer_bytes must be positive");
  }
  if (config_.ecn_mark_threshold_bytes < 0) {
    throw std::invalid_argument(
        "TrafficManager: ecn_mark_threshold_bytes must be >= 0 (0 disables marking)");
  }
}

bool TrafficManager::enqueue(int port, net::Packet&& packet, sim::Time now) {
  assert(port >= 0 && static_cast<std::size_t>(port) < queues_.size());
  auto& q = queues_[static_cast<std::size_t>(port)];
  auto& st = stats_[static_cast<std::size_t>(port)];
  const auto size = static_cast<std::int64_t>(packet.size());

  if (used_ + size > config_.shared_buffer_bytes) {
    ++st.dropped;
    st.dropped_bytes += size;
    notify(QueueEvent::kDrop, port, q.bytes);
    return false;
  }

  if (config_.ecn_mark_threshold_bytes > 0 &&
      q.bytes >= config_.ecn_mark_threshold_bytes) {
    // DCTCP-style marking: set CE if the packet is ECN-capable. Only a
    // mark writes (and so detaches a shared frame).
    const auto bytes = packet.bytes();
    if (packet.size() >= net::kEthernetHeaderBytes + net::kIpv4HeaderBytes &&
        bytes[12] == 0x08 && bytes[13] == 0x00 &&
        (bytes[net::kEthernetHeaderBytes + 1] & 0x3) != 0) {
      // ECT(0), ECT(1) or already CE; set_ecn refreshes the checksum.
      net::set_ecn(packet, net::Ecn::kCe);
    }
  }

  packet.meta().enqueued = now;
  q.packets.push_back(std::move(packet));
  q.bytes += size;
  used_ += size;
  ++st.enqueued;
  if (q.bytes > st.max_depth_bytes) st.max_depth_bytes = q.bytes;
  notify(QueueEvent::kEnqueue, port, q.bytes);
  return true;
}

std::optional<net::Packet> TrafficManager::dequeue(int port) {
  assert(port >= 0 && static_cast<std::size_t>(port) < queues_.size());
  auto& q = queues_[static_cast<std::size_t>(port)];
  if (q.packets.empty()) return std::nullopt;

  net::Packet packet = std::move(q.packets.front());
  q.packets.pop_front();
  const auto size = static_cast<std::int64_t>(packet.size());
  q.bytes -= size;
  used_ -= size;
  ++stats_[static_cast<std::size_t>(port)].dequeued;
  notify(QueueEvent::kDequeue, port, q.bytes);
  return packet;
}

std::uint64_t TrafficManager::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& st : stats_) n += st.dropped;
  return n;
}

void TrafficManager::register_metrics(telemetry::MetricsRegistry& registry,
                                      const std::string& prefix) {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    const std::string port = prefix + "/port" + std::to_string(i);
    const PortStats* st = &stats_[i];
    registry.register_counter(port + "/enqueued", &st->enqueued, "packets");
    registry.register_counter(port + "/dequeued", &st->dequeued, "packets");
    registry.register_counter(port + "/dropped", &st->dropped, "packets");
    registry.register_counter(
        port + "/dropped_bytes", [st]() { return st->dropped_bytes; },
        "bytes");
    registry.register_counter(
        port + "/max_depth_bytes", [st]() { return st->max_depth_bytes; },
        "bytes");
    const PortQueue* q = &queues_[i];
    registry.register_gauge(
        port + "/queue_depth_bytes",
        [q]() { return static_cast<double>(q->bytes); }, "bytes");
    registry.register_gauge(
        port + "/queue_depth_packets",
        [q]() { return static_cast<double>(q->packets.size()); }, "packets");
  }
  registry.register_gauge(
      prefix + "/buffer_used_bytes",
      [this]() { return static_cast<double>(used_); }, "bytes");
}

}  // namespace xmem::switchsim
