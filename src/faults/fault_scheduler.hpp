// FaultScheduler: replays a FaultPlan against registered links and
// server RNICs on the sim clock, composing per-link fault profiles and
// exporting per-fault-kind telemetry counters.
//
// Link events COMPOSE: a kLinkCorrupt event overlays corruption onto
// whatever loss model the link already carries; kLinkClear resets the
// whole profile. Each profile change reseeds the link's fault RNG from
// the plan seed + a per-application counter, so a plan replays
// bit-identically regardless of wall-clock or host.
//
// RNIC restart events call rnic::Rnic::restart() and then the
// registered restart hook, which is where a test's control plane
// reconnects channels (ChannelController::reconnect +
// ChannelSet::reconnect) against the new NIC epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "rnic/rnic.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "topo/link.hpp"

namespace xmem::faults {

class FaultScheduler {
 public:
  /// Called after a kRnicRestart event has restarted the target NIC;
  /// the hook owns control-plane recovery (re-registration, reconnect).
  using RestartHook = std::function<void(int server)>;

  struct Stats {
    std::uint64_t events_applied = 0;
    std::uint64_t link_loss_events = 0;      // uniform + burst
    std::uint64_t link_corrupt_events = 0;
    std::uint64_t link_duplicate_events = 0;
    std::uint64_t link_reorder_events = 0;
    std::uint64_t link_jitter_events = 0;
    std::uint64_t link_clear_events = 0;
    std::uint64_t rnic_hangs = 0;
    std::uint64_t rnic_revives = 0;
    std::uint64_t rnic_restarts = 0;
  };

  FaultScheduler(sim::Simulator& simulator, FaultPlan plan);

  /// Register targets; FaultEvent::target indexes in registration order.
  int add_link(topo::Link& link);
  int add_server(rnic::Rnic& rnic);

  void set_restart_hook(RestartHook hook) { restart_hook_ = std::move(hook); }

  /// Record every applied fault into `recorder` (not owned; nullptr
  /// detaches) — a postmortem shows which fault preceded the failure.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  /// Schedule every plan event (absolute sim times). Call once, after
  /// all targets are registered.
  void start();

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Register every Stats field under `<prefix>/...`.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        const std::string& prefix);

 private:
  void apply(const FaultEvent& event);
  void apply_link(const FaultEvent& event);
  void push_profile(int link, int direction);

  sim::Simulator* sim_;
  FaultPlan plan_;
  std::vector<topo::Link*> links_;
  std::vector<rnic::Rnic*> servers_;
  std::vector<topo::LinkFaultProfile> profiles_;
  std::uint64_t reseed_counter_ = 0;
  RestartHook restart_hook_;
  telemetry::FlightRecorder* flight_recorder_ = nullptr;
  bool started_ = false;
  Stats stats_;
};

}  // namespace xmem::faults
