// The paper's testbed in a box: one programmable ToR switch with N
// servers attached over equal links (the §5 setup is N=3: two traffic
// endpoints plus one memory server). Every bench, example and
// integration test builds on this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/channel_controller.hpp"
#include "host/host.hpp"
#include "switchsim/switch.hpp"
#include "topo/link.hpp"

namespace xmem::control {

class Testbed {
 public:
  struct Config {
    int hosts = 3;
    /// Dedicated memory servers attached under the ToR after the regular
    /// hosts, one link each, RNICs always installed — the scale-out
    /// topology a sharded ChannelSet runs against. Reachable through
    /// memory_server(i) / setup_memory_pool().
    int memory_servers = 0;
    sim::Bandwidth link_rate = sim::gbps(40);
    /// One-way propagation incl. PHY/serdes latency.
    sim::Time link_propagation = sim::nanoseconds(150);
    rnic::NicProfile nic;
    switchsim::ProgrammableSwitch::Config switch_config;
    bool install_rnics = true;
  };

  explicit Testbed(Config config);
  Testbed() : Testbed(Config{}) {}

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] switchsim::ProgrammableSwitch& tor() { return *tor_; }
  [[nodiscard]] host::Host& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int host_count() const { return static_cast<int>(hosts_.size()); }
  /// Switch port index that reaches host `i`.
  [[nodiscard]] int port_of(int i) const {
    return tor_ports_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] topo::Link& link_of(int i) {
    return *links_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] ChannelController& controller() { return *controller_; }
  [[nodiscard]] const SwitchIdentity& switch_identity() const {
    return controller_->switch_identity();
  }

  /// --- Memory-server pool (Config::memory_servers) --------------------
  [[nodiscard]] int memory_server_count() const { return memory_servers_; }
  /// The i-th memory server (i in [0, memory_server_count())).
  [[nodiscard]] host::Host& memory_server(int i) {
    return host(first_memory_host_ + i);
  }
  [[nodiscard]] int memory_server_port(int i) const {
    return port_of(first_memory_host_ + i);
  }
  [[nodiscard]] topo::Link& memory_server_link(int i) {
    return link_of(first_memory_host_ + i);
  }
  /// PoolTargets covering every attached memory server, in shard order.
  [[nodiscard]] std::vector<ChannelController::PoolTarget> memory_pool();
  /// One-call pool provisioning across all attached memory servers.
  std::vector<RdmaChannelConfig> setup_memory_pool(
      const ChannelController::ChannelSpec& spec);

  /// Turn on INT for tenant traffic: every tenant host link becomes a
  /// source (hop 10+i) that skips RoCEv2 frames, and the ToR TM (hop 1)
  /// appends in transit. Memory-server links are infrastructure and stay
  /// unmonitored entirely. RNIC INT is per-host opt-in (hop convention
  /// 100+i). Hop ids are stable across runs so hop records from
  /// different runs line up.
  void enable_int();

 private:
  sim::Simulator sim_;
  std::unique_ptr<switchsim::ProgrammableSwitch> tor_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::vector<std::unique_ptr<topo::Link>> links_;
  std::vector<int> tor_ports_;
  std::unique_ptr<ChannelController> controller_;
  int memory_servers_ = 0;
  int first_memory_host_ = 0;
};

}  // namespace xmem::control
