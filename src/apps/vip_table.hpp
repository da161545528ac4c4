// Bare-metal hosting virtual-to-physical translation (§2.2, Fig. 1b).
//
// The cloud provider keeps the full VIP->PIP mapping in remote memory;
// the ToR translates in the data plane via the lookup-table primitive,
// with local SRAM acting as a cache. The CPU slow path it replaces — a
// software virtual switch on a stick — is also implemented here as the
// comparison baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/lookup_table.hpp"
#include "host/host.hpp"

namespace xmem::apps {

struct VipMapping {
  net::Ipv4Address virtual_ip;
  net::Ipv4Address physical_ip;
  net::MacAddress physical_mac;
  std::uint16_t switch_port = 0;  // egress toward the physical host
};

/// Key function for the lookup primitive: the packet's destination IP
/// (4 bytes), i.e. the virtual address being translated. Non-IPv4 frames
/// are not table traffic.
[[nodiscard]] core::LookupTablePrimitive::KeyFn vip_key_fn();

/// Serialize a mapping into the lookup-table Action that implements it.
[[nodiscard]] switchsim::Action action_for(const VipMapping& mapping);

/// Control-plane population of a remote region (entry layout of
/// LookupTablePrimitive) with a full mapping set. Returns the number of
/// entries that landed on distinct slots (the rest collided).
std::size_t populate_vip_region(std::span<std::uint8_t> region,
                                std::size_t entry_bytes,
                                const std::vector<VipMapping>& mappings,
                                std::uint64_t hash_seed);

/// The CPU baseline: a software virtual switch running on a server.
/// Packets are delivered by the ToR, queue for a per-packet CPU service
/// time, get translated, and are bounced back through the ToR.
class SoftwareVSwitch {
 public:
  /// Per-packet software forwarding cost (OVS-class fast path).
  static constexpr sim::Time kServiceTime = sim::microseconds(3);
  /// Bounded socket buffer; overflow drops (software overload).
  static constexpr std::size_t kQueueLimit = 1024;

  explicit SoftwareVSwitch(host::Host& host);

  void add_mapping(const VipMapping& mapping);

  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t unknown_vip() const { return unknown_vip_; }

 private:
  void on_packet(net::Packet&& packet);
  void pump();

  host::Host* host_;
  std::unordered_map<net::Ipv4Address, VipMapping> mappings_;
  std::deque<net::Packet> queue_;
  bool busy_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t unknown_vip_ = 0;
};

}  // namespace xmem::apps
