#include "host/host.hpp"

#include <algorithm>
#include <cassert>

#include "net/pause.hpp"
#include "topo/link.hpp"

namespace xmem::host {

Host::Host(sim::Simulator& simulator, std::string name, net::MacAddress mac,
           net::Ipv4Address ip)
    : topo::Node(simulator, std::move(name)), mac_(mac), ip_(ip) {}

rnic::Rnic& Host::install_rnic(rnic::NicProfile profile, int port_index) {
  assert(rnic_ == nullptr && "host already has an RNIC");
  rnic_ = std::make_unique<rnic::Rnic>(
      *sim_, endpoint(), profile,
      [this, port_index](net::Packet&& packet) {
        send(std::move(packet), port_index);
      });
  return *rnic_;
}

void Host::send(net::Packet&& packet, int port_index) {
  port(port_index).send(std::move(packet));
}

void Host::register_metrics(telemetry::MetricsRegistry& registry,
                            const std::string& prefix) {
  registry.register_counter(prefix + "/cpu_packets", &cpu_packets_,
                            "packets");
  registry.register_counter(prefix + "/pfc_frames", &pfc_frames_, "frames");
  for (int p = 0; p < port_count(); ++p) {
    const topo::Port* pt = &port(p);
    const std::string pp = prefix + "/port" + std::to_string(p);
    registry.register_gauge(
        pp + "/pause_time_us",
        [pt]() { return sim::to_microseconds(pt->pause_time_total()); }, "us");
    registry.register_counter(
        pp + "/hol_blocked_packets",
        [pt]() { return static_cast<std::int64_t>(pt->hol_blocked_packets()); },
        "packets");
  }
}

void Host::receive(net::Packet&& packet, int port) {
  ++rx_frames_;
  if (auto pfc = net::parse_pfc_frame(packet)) {
    // Flow control is honored by the MAC, not the CPU. The port model
    // has one transmitter, so the longest pause among the enabled
    // classes governs — which is exactly PFC's head-of-line blocking
    // when the pause was aimed at the RDMA class alone.
    std::uint16_t quanta = 0;
    for (int i = 0; i < 8; ++i) {
      if ((pfc->class_enable >> i) & 1) quanta = std::max(quanta, pfc->quanta[i]);
    }
    const sim::Bandwidth rate = this->port(port).link()->rate();
    const sim::Time duration = sim::transmission_time(
        quanta * net::kPauseQuantumBits / 8, rate);
    this->port(port).apply_pause(sim_->now() + duration);
    ++pfc_frames_;
    return;
  }
  if (rnic_ != nullptr && rnic_->handle_frame(packet)) {
    return;  // consumed by hardware: zero CPU cost
  }
  ++cpu_packets_;
  if (app_) app_(std::move(packet), port);
}

}  // namespace xmem::host
