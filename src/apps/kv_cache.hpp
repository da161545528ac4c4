// NetCache-style in-network key-value acceleration (§2.2's "this idea can
// benefit ... key-value stores").
//
// Clients send GET/PUT requests (a tiny UDP protocol) toward a storage
// backend. The ToR intercepts GETs, fetches the value from a hash-indexed
// store in remote memory with one RDMA READ, and *answers on behalf of
// the backend* by transforming the request packet into a response in the
// data plane. Misses fall through to the backend server's CPU — the slow
// path whose elimination the paper is after — and so does a GET whose
// READ goes unanswered past its deadline. The backend keeps the remote
// region up to date on PUTs (it owns that DRAM, so updates are local
// stores).
//
// Wire protocol (UDP payload): [op u8][key u64 BE][value u64 BE]
//   op: 0 = GET, 1 = PUT, 2 = RESPONSE, 3 = MISS-RESPONSE
// Remote entry (24 B): [key u64 LE][value u64 LE][valid u8, 7 pad]
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/inflight.hpp"
#include "core/rdma_channel.hpp"
#include "host/host.hpp"
#include "switchsim/switch.hpp"

namespace xmem::apps {

inline constexpr std::uint16_t kKvUdpPort = 9999;
inline constexpr std::size_t kKvEntryBytes = 24;

enum class KvOp : std::uint8_t {
  kGet = 0,
  kPut = 1,
  kResponse = 2,
  kMiss = 3,
};

struct KvRequest {
  KvOp op = KvOp::kGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;

  static constexpr std::size_t kBytes = 17;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<KvRequest> parse(std::span<const std::uint8_t> payload);
};

/// The switch-resident accelerator.
class KvAcceleratorApp {
 public:
  /// The constructor throws std::invalid_argument while backend_port is
  /// unset, or when the region holds no 24 B entry.
  struct Config {
    /// Egress port toward the storage backend (miss path).
    int backend_port = -1;
  };

  struct Stats {
    std::uint64_t gets_seen = 0;
    std::uint64_t answered_from_remote = 0;  // switch-crafted responses
    std::uint64_t misses_to_backend = 0;
    std::uint64_t puts_passed = 0;
    std::uint64_t lost_reads = 0;  // READs expired; their GETs to backend
  };

  KvAcceleratorApp(switchsim::ProgrammableSwitch& sw,
                   control::RdmaChannelConfig channel, Config config);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t table_entries() const { return n_entries_; }

  /// Entry index for a key (shared by switch and backend).
  [[nodiscard]] static std::uint64_t index_of(std::uint64_t key,
                                              std::uint64_t n_entries);
  /// Backend-side (local DRAM) store of a key/value into the region.
  static void store_entry(std::span<std::uint8_t> region, std::uint64_t key,
                          std::uint64_t value);

 private:
  void on_ingress(switchsim::PipelineContext& ctx);
  void handle_response(const roce::RoceMessage& msg);
  void on_timeout();

  /// The fixed deadline the state store and lookup table default to.
  static constexpr sim::Time kResponseTimeout = sim::microseconds(100);

  switchsim::ProgrammableSwitch* switch_;
  core::RdmaChannel channel_;
  Config config_;
  std::uint64_t n_entries_ = 0;

  struct Pending {
    net::Packet request;
    std::uint64_t key = 0;
  };
  core::InflightTable<Pending> pending_;  // one shard: the one channel
  Stats stats_;
};

/// The storage backend server: authoritative std::unordered_map plus the
/// registered DRAM region the switch reads. GETs cost CPU time here —
/// that is exactly what the accelerator removes.
class KvBackend {
 public:
  /// CPU time one GET or PUT costs the server.
  static constexpr sim::Time kServiceTime = sim::microseconds(2);

  KvBackend(host::Host& host, std::span<std::uint8_t> region);

  void put(std::uint64_t key, std::uint64_t value);

  [[nodiscard]] std::uint64_t cpu_gets() const { return cpu_gets_; }
  [[nodiscard]] std::uint64_t cpu_puts() const { return cpu_puts_; }

 private:
  void on_packet(net::Packet&& packet);

  host::Host* host_;
  std::span<std::uint8_t> region_;
  std::unordered_map<std::uint64_t, std::uint64_t> store_;
  std::uint64_t cpu_gets_ = 0;
  std::uint64_t cpu_puts_ = 0;
};

}  // namespace xmem::apps
