#include "telemetry/sampler.hpp"

#include <stdexcept>

namespace xmem::telemetry {

Sampler::Sampler(sim::Simulator& simulator, OpTracer& tracer, Config config)
    : sim_(&simulator), tracer_(&tracer), config_(std::move(config)) {
  // A non-positive period re-arms the tick at the same instant forever,
  // so Simulator::run() would never return.
  if (config_.period <= 0) {
    throw std::invalid_argument("Sampler: period must be > 0");
  }
}

void Sampler::add_gauge(const MetricsRegistry& registry,
                        const std::string& name) {
  // Fail fast on typos: the registry lookup throws if the name is absent.
  (void)registry.read(name);
  add(name, [&registry, name]() { return registry.read(name); });
}

void Sampler::add(std::string series, std::function<double()> fn) {
  series_.emplace_back(std::move(series), std::move(fn));
}

void Sampler::start() {
  if (running_) return;
  running_ = true;
  sample_all();  // t0 sample so every track starts at the origin
  pending_ = sim_->schedule_in(config_.period, [this]() { tick(); });
}

void Sampler::stop() {
  running_ = false;
  pending_.cancel();
}

void Sampler::sample_all() {
  for (const auto& [name, fn] : series_) tracer_->counter(name, fn());
  ++ticks_;
}

void Sampler::tick() {
  if (!running_) return;
  sample_all();
  if (config_.until && !config_.until()) {
    // Final sample taken above; let the event queue drain.
    running_ = false;
    return;
  }
  pending_ = sim_->schedule_in(config_.period, [this]() { tick(); });
}

}  // namespace xmem::telemetry
