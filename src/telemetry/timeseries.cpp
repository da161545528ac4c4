#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace xmem::telemetry {

void TimeSeriesRecorder::Point::serialize(net::ByteWriter& w) const {
  w.u64(static_cast<std::uint64_t>(t));
  // Doubles cross the wire as their IEEE-754 bit pattern, big-endian like
  // every other field.
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  w.u64(bits);
}

TimeSeriesRecorder::Point TimeSeriesRecorder::Point::parse(net::ByteReader& r) {
  Point p;
  p.t = static_cast<sim::Time>(r.u64());
  const std::uint64_t bits = r.u64();
  std::memcpy(&p.value, &bits, sizeof(p.value));
  return p;
}

TimeSeriesRecorder::TimeSeriesRecorder(sim::Simulator& simulator,
                                       Config config)
    : sim_(&simulator), config_(config) {
  if (config_.period <= 0) {
    throw std::invalid_argument("TimeSeriesRecorder: period must be > 0");
  }
  if (config_.capacity == 0) {
    throw std::invalid_argument("TimeSeriesRecorder: capacity must be > 0");
  }
}

std::string TimeSeriesRecorder::unit_of(const MetricsRegistry& registry,
                                        const std::string& name) {
  for (const Sample& s : registry.snapshot()) {
    if (s.name == name) return s.unit;
  }
  return "";
}

void TimeSeriesRecorder::track(const MetricsRegistry& registry,
                               const std::string& name) {
  if (!registry.contains(name)) {
    throw std::invalid_argument("TimeSeriesRecorder::track: unknown metric " +
                                name);
  }
  add_series(name, unit_of(registry, name), registry.reader(name));
}

std::size_t TimeSeriesRecorder::track_prefix(const MetricsRegistry& registry,
                                             const std::string& prefix) {
  std::size_t added = 0;
  for (const Sample& s : registry.snapshot()) {
    if (s.kind == MetricKind::kHistogram) continue;
    if (s.name.rfind(prefix, 0) != 0) continue;
    add_series(s.name, s.unit, registry.reader(s.name));
    ++added;
  }
  return added;
}

void TimeSeriesRecorder::track_rate(const MetricsRegistry& registry,
                                    const std::string& name,
                                    std::string unit) {
  if (!registry.contains(name)) {
    throw std::invalid_argument(
        "TimeSeriesRecorder::track_rate: unknown metric " + name);
  }
  const double period_s = static_cast<double>(config_.period) /
                          static_cast<double>(sim::kSecond);
  // Shared previous-value cell: primed to the current reading so the
  // first tick measures growth since tracking began, not since t=0.
  auto prev = std::make_shared<double>(registry.read(name));
  add_series(name + "/rate", std::move(unit),
             [read = registry.reader(name), prev, period_s]() {
               const double cur = read();
               const double rate = (cur - *prev) / period_s;
               *prev = cur;
               return rate;
             });
}

void TimeSeriesRecorder::add_series(std::string name, std::string unit,
                                    std::function<double()> fn) {
  for (const Series& s : series_) {
    if (s.name == name) {
      throw std::invalid_argument(
          "TimeSeriesRecorder::add_series: duplicate series " + name);
    }
  }
  series_.push_back(Series{std::move(name), std::move(unit), std::move(fn),
                           Ring<Point>(config_.capacity)});
}

void TimeSeriesRecorder::start() {
  if (running_) return;
  running_ = true;
  sim_->schedule_in(config_.period, [this]() { tick(); });
}

void TimeSeriesRecorder::stop() { running_ = false; }

void TimeSeriesRecorder::tick() {
  if (!running_) return;
  ++ticks_;
  const sim::Time now = sim_->now();
  for (Series& s : series_) {
    s.ring.push() = Point{now, s.read()};
  }
  sim_->schedule_in(config_.period, [this]() { tick(); });
}

std::uint64_t TimeSeriesRecorder::dropped_points() const {
  std::uint64_t dropped = 0;
  for (const Series& s : series_) dropped += s.ring.overwritten();
  return dropped;
}

std::vector<const TimeSeriesRecorder::Series*>
TimeSeriesRecorder::sorted_series() const {
  std::vector<const Series*> out;
  out.reserve(series_.size());
  for (const Series& s : series_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Series* a, const Series* b) {
    return a->name < b->name;
  });
  return out;
}

std::vector<TimeSeriesRecorder::Point> TimeSeriesRecorder::points(
    const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name == name) return s.ring.ordered();
  }
  throw std::out_of_range("TimeSeriesRecorder::points: unknown series " +
                          name);
}

std::string TimeSeriesRecorder::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.kv("schema", "xmem-timeseries-v1");
  w.kv("period_us", sim::to_microseconds(config_.period));
  w.kv("capacity", static_cast<std::int64_t>(config_.capacity));
  w.kv("ticks", static_cast<std::int64_t>(ticks_));
  w.key("series");
  w.begin_array();
  for (const Series* s : sorted_series()) {
    w.begin_object();
    w.kv("name", std::string_view(s->name));
    w.kv("unit", std::string_view(s->unit));
    w.kv("dropped", static_cast<std::int64_t>(s->ring.overwritten()));
    w.key("points");
    w.begin_array();
    for (const Point& p : s->ring.ordered()) {
      w.begin_array();
      w.value(sim::to_microseconds(p.t));
      w.value(p.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace xmem::telemetry
