#include "faults/fault_scheduler.hpp"

#include <cassert>
#include <stdexcept>

namespace xmem::faults {

FaultScheduler::FaultScheduler(sim::Simulator& simulator, FaultPlan plan)
    : sim_(&simulator), plan_(std::move(plan)) {}

int FaultScheduler::add_link(topo::Link& link) {
  links_.push_back(&link);
  profiles_.emplace_back();
  return static_cast<int>(links_.size()) - 1;
}

int FaultScheduler::add_server(rnic::Rnic& rnic) {
  servers_.push_back(&rnic);
  return static_cast<int>(servers_.size()) - 1;
}

void FaultScheduler::start() {
  assert(!started_ && "FaultScheduler::start called twice");
  started_ = true;
  for (const FaultEvent& event : plan_.events) {
    const bool is_link = event.kind <= FaultKind::kLinkClear;
    const std::size_t target = static_cast<std::size_t>(event.target);
    if (is_link ? target >= links_.size() : target >= servers_.size()) {
      throw std::out_of_range("FaultScheduler: event targets unregistered " +
                              std::string(is_link ? "link" : "server"));
    }
    sim_->schedule_at(event.at, [this, event]() { apply(event); });
  }
}

void FaultScheduler::push_profile(int link, int direction) {
  // A fresh derived seed per profile change: deterministic from the plan
  // seed alone, decorrelated across links and across changes.
  const std::uint64_t seed =
      plan_.seed * 0x9e3779b97f4a7c15ULL +
      (static_cast<std::uint64_t>(link) << 32) + ++reseed_counter_;
  links_[static_cast<std::size_t>(link)]->set_fault_profile(
      profiles_[static_cast<std::size_t>(link)], seed, direction);
}

void FaultScheduler::apply_link(const FaultEvent& event) {
  topo::LinkFaultProfile& profile =
      profiles_[static_cast<std::size_t>(event.target)];
  switch (event.kind) {
    case FaultKind::kLinkUniformLoss:
      profile.loss_rate = event.rate;
      profile.burst.reset();
      ++stats_.link_loss_events;
      break;
    case FaultKind::kLinkBurstLoss:
      profile.burst = event.burst;
      profile.loss_rate = 0.0;
      ++stats_.link_loss_events;
      break;
    case FaultKind::kLinkCorrupt:
      profile.corrupt_rate = event.rate;
      ++stats_.link_corrupt_events;
      break;
    case FaultKind::kLinkDuplicate:
      profile.duplicate_rate = event.rate;
      ++stats_.link_duplicate_events;
      break;
    case FaultKind::kLinkReorder:
      profile.reorder_rate = event.rate;
      if (event.delay > 0) profile.reorder_delay = event.delay;
      ++stats_.link_reorder_events;
      break;
    case FaultKind::kLinkJitter:
      profile.jitter_max = event.delay;
      ++stats_.link_jitter_events;
      break;
    case FaultKind::kLinkClear:
      profile = topo::LinkFaultProfile{};
      ++stats_.link_clear_events;
      break;
    default:
      assert(false && "not a link fault");
  }
  push_profile(event.target, event.direction);
}

void FaultScheduler::apply(const FaultEvent& event) {
  ++stats_.events_applied;
  if (flight_recorder_) {
    flight_recorder_->record(telemetry::FlightEventKind::kFaultApplied,
                             static_cast<std::uint16_t>(event.target),
                             static_cast<std::uint32_t>(event.kind), 0, 0,
                             to_string(event.kind));
  }
  switch (event.kind) {
    case FaultKind::kRnicHang:
      servers_[static_cast<std::size_t>(event.target)]->set_alive(false);
      ++stats_.rnic_hangs;
      return;
    case FaultKind::kRnicRevive:
      servers_[static_cast<std::size_t>(event.target)]->set_alive(true);
      ++stats_.rnic_revives;
      return;
    case FaultKind::kRnicRestart:
      servers_[static_cast<std::size_t>(event.target)]->restart();
      ++stats_.rnic_restarts;
      if (restart_hook_) restart_hook_(event.target);
      return;
    default:
      apply_link(event);
  }
}

void FaultScheduler::register_metrics(telemetry::MetricsRegistry& registry,
                                      const std::string& prefix) {
  registry.register_counter(prefix + "/events_applied",
                            &stats_.events_applied, "events");
  registry.register_counter(prefix + "/link_loss_events",
                            &stats_.link_loss_events, "events");
  registry.register_counter(prefix + "/link_corrupt_events",
                            &stats_.link_corrupt_events, "events");
  registry.register_counter(prefix + "/link_duplicate_events",
                            &stats_.link_duplicate_events, "events");
  registry.register_counter(prefix + "/link_reorder_events",
                            &stats_.link_reorder_events, "events");
  registry.register_counter(prefix + "/link_jitter_events",
                            &stats_.link_jitter_events, "events");
  registry.register_counter(prefix + "/link_clear_events",
                            &stats_.link_clear_events, "events");
  registry.register_counter(prefix + "/rnic_hangs",
                            &stats_.rnic_hangs, "events");
  registry.register_counter(prefix + "/rnic_revives",
                            &stats_.rnic_revives, "events");
  registry.register_counter(prefix + "/rnic_restarts",
                            &stats_.rnic_restarts, "events");
}

}  // namespace xmem::faults
