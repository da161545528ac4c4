#include "apps/vip_table.hpp"

#include "net/flow.hpp"

namespace xmem::apps {

core::LookupTablePrimitive::KeyFn vip_key_fn() {
  return [](const net::Packet& packet)
             -> std::optional<std::vector<std::uint8_t>> {
    auto tuple = net::extract_five_tuple(packet);
    if (!tuple) return std::nullopt;
    const std::uint32_t ip = tuple->dst_ip.value();
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(ip >> 24),
        static_cast<std::uint8_t>(ip >> 16),
        static_cast<std::uint8_t>(ip >> 8),
        static_cast<std::uint8_t>(ip),
    };
  };
}

switchsim::Action action_for(const VipMapping& mapping) {
  switchsim::Action action;
  action.kind = switchsim::Action::Kind::kRewriteDst;
  action.port = mapping.switch_port;
  action.new_dst_mac = mapping.physical_mac;
  action.new_dst_ip = mapping.physical_ip;
  return action;
}

std::size_t populate_vip_region(std::span<std::uint8_t> region,
                                std::size_t entry_bytes,
                                const std::vector<VipMapping>& mappings,
                                std::uint64_t hash_seed) {
  const std::size_t n_entries = region.size() / entry_bytes;
  std::unordered_map<std::uint64_t, bool> used;
  std::size_t installed = 0;
  for (const auto& mapping : mappings) {
    const std::uint32_t ip = mapping.virtual_ip.value();
    const std::uint8_t key[4] = {
        static_cast<std::uint8_t>(ip >> 24),
        static_cast<std::uint8_t>(ip >> 16),
        static_cast<std::uint8_t>(ip >> 8),
        static_cast<std::uint8_t>(ip),
    };
    const std::uint64_t idx = core::LookupTablePrimitive::index_for_key(
        key, n_entries, hash_seed);
    if (!used.emplace(idx, true).second) continue;  // collision: skip
    core::LookupTablePrimitive::install_entry(region, entry_bytes, key,
                                              action_for(mapping), hash_seed);
    ++installed;
  }
  return installed;
}

SoftwareVSwitch::SoftwareVSwitch(host::Host& host) : host_(&host) {
  host.set_app([this](net::Packet&& packet, int) { on_packet(std::move(packet)); });
}

void SoftwareVSwitch::add_mapping(const VipMapping& mapping) {
  mappings_[mapping.virtual_ip] = mapping;
}

void SoftwareVSwitch::on_packet(net::Packet&& packet) {
  if (queue_.size() >= kQueueLimit) {
    ++dropped_;
    return;
  }
  queue_.push_back(std::move(packet));
  pump();
}

void SoftwareVSwitch::pump() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  net::Packet packet = std::move(queue_.front());
  queue_.pop_front();
  host_->simulator().schedule_in(
      kServiceTime, [this, p = std::move(packet)]() mutable {
        auto tuple = net::extract_five_tuple(p);
        if (tuple) {
          auto it = mappings_.find(tuple->dst_ip);
          if (it != mappings_.end()) {
            const auto& mac = it->second.physical_mac.octets();
            std::copy(mac.begin(), mac.end(), p.mutable_bytes().begin());
            net::rewrite_dst_ip(p, it->second.physical_ip);
            ++processed_;
            host_->send(std::move(p));
          } else {
            ++unknown_vip_;
          }
        } else {
          ++unknown_vip_;
        }
        busy_ = false;
        pump();
      });
}

}  // namespace xmem::apps
