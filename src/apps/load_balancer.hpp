// SilkRoad-style stateful L4 load balancing (§2.2's "load balancers
// (e.g., SilkRoad)"), with the *connection table in remote memory* and —
// unlike the other apps — data-plane writes: the switch itself claims a
// connection's slot with an atomic Compare-and-Swap, so a flow sticks to
// the backend it was first assigned even when the backend pool changes.
//
// Remote entry: one 8-byte word per slot, packed as
//   [ conn-check : 48 bits ][ backend index + 1 : 16 bits ]
// Zero = free. CAS(va, 0, packed) either claims the slot (ACK returns 0)
// or reveals the existing owner (ACK returns the packed prior value) —
// one atomic round trip per new flow, zero for a collision-free design
// with a local cache in front.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rdma_channel.hpp"
#include "net/flow.hpp"
#include "switchsim/switch.hpp"

namespace xmem::apps {

struct Backend {
  /// Stable identifier, preserved across pool updates (1..65535). The
  /// connection table records this id, NOT a pool position, so sticky
  /// assignments survive pool reordering; removing an id breaks its
  /// connections, which is precisely SilkRoad's consistency problem.
  std::uint16_t id = 0;
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::uint16_t switch_port = 0;
};

class L4LoadBalancer {
 public:
  struct Config {
    /// The virtual IP this balancer serves.
    net::Ipv4Address vip;
    /// Cache resolved flows locally (entries); 0 disables.
    std::size_t cache_capacity = 4096;
    std::uint64_t hash_seed = 0x2545f4914f6cdd1dULL;
  };

  struct Stats {
    std::uint64_t new_connections = 0;   // CAS won: slot claimed
    std::uint64_t resumed = 0;           // CAS lost: existing assignment
    std::uint64_t cache_hits = 0;
    std::uint64_t collision_drops = 0;   // slot owned by a different flow
    std::uint64_t no_backend_drops = 0;
    std::uint64_t stale_responses = 0;
  };

  /// Throws std::invalid_argument when the region holds no 8 B slot.
  L4LoadBalancer(switchsim::ProgrammableSwitch& sw,
                 control::RdmaChannelConfig channel, Config config);

  /// Replace the backend pool. Existing connections keep their backend
  /// (that is the whole point); only new flows use the new pool. Throws
  /// std::invalid_argument on id 0, leaving the pool unchanged.
  void set_backends(std::vector<Backend> backends);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t table_slots() const { return n_slots_; }
  [[nodiscard]] const core::RdmaChannel& channel() const {
    return channel_;
  }
  /// Packets forwarded per backend id.
  [[nodiscard]] const std::unordered_map<std::uint16_t, std::uint64_t>&
  per_backend_packets() const {
    return per_backend_packets_;
  }

  /// Packing helpers (exposed for tests and the control plane).
  [[nodiscard]] static std::uint64_t pack(std::uint64_t conn_check,
                                          std::uint16_t backend_id) {
    return (conn_check << 16) | backend_id;
  }
  [[nodiscard]] static std::uint64_t check_of(std::uint64_t packed) {
    return packed >> 16;
  }
  [[nodiscard]] static std::uint16_t backend_of(std::uint64_t packed) {
    return static_cast<std::uint16_t>(packed & 0xffff);
  }

 private:
  void on_ingress(switchsim::PipelineContext& ctx);
  void handle_response(const roce::RoceMessage& msg);
  void forward_to(net::Packet&& packet, std::uint16_t backend_id);
  [[nodiscard]] std::uint64_t conn_check(const net::FiveTuple& tuple) const;

  switchsim::ProgrammableSwitch* switch_;
  core::RdmaChannel channel_;
  Config config_;
  std::uint64_t n_slots_ = 0;
  std::vector<Backend> backends_;                       // current pool
  std::unordered_map<std::uint16_t, Backend> by_id_;    // id -> backend
  std::unordered_map<std::uint16_t, std::uint64_t> per_backend_packets_;

  struct Pending {
    net::Packet packet;
    std::uint64_t check = 0;
    std::uint16_t chosen_backend_id = 0;
    std::vector<std::uint8_t> cache_key;
  };
  std::unordered_map<roce::Psn, Pending> pending_;  // CAS psn -> state

  // Local flow cache: five-tuple key bytes -> backend index.
  std::unordered_map<std::string, std::uint16_t> cache_;
  std::deque<std::string> cache_fifo_;

  Stats stats_;
};

}  // namespace xmem::apps
