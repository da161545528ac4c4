#include "telemetry/metrics.hpp"

#include <stdexcept>

#include "telemetry/json.hpp"

namespace xmem::telemetry {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void MetricsRegistry::insert(std::string name, Metric metric) {
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  }
  auto [it, inserted] = metrics_.emplace(std::move(name), std::move(metric));
  if (!inserted) {
    throw std::invalid_argument("MetricsRegistry: duplicate metric name '" +
                                it->first + "'");
  }
}

void MetricsRegistry::register_counter(std::string name, CounterFn fn,
                                       std::string unit) {
  Metric m;
  m.kind = MetricKind::kCounter;
  m.unit = std::move(unit);
  m.counter = std::move(fn);
  insert(std::move(name), std::move(m));
}

void MetricsRegistry::register_counter(std::string name,
                                       const std::uint64_t* value,
                                       std::string unit) {
  register_counter(
      std::move(name), [value]() { return static_cast<std::int64_t>(*value); },
      std::move(unit));
}

void MetricsRegistry::register_gauge(std::string name, GaugeFn fn,
                                     std::string unit) {
  Metric m;
  m.kind = MetricKind::kGauge;
  m.unit = std::move(unit);
  m.gauge = std::move(fn);
  insert(std::move(name), std::move(m));
}

stats::Histogram& MetricsRegistry::histogram(const std::string& name,
                                             std::string unit) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != MetricKind::kHistogram) {
      throw std::invalid_argument(
          "MetricsRegistry: '" + name + "' already registered as " +
          std::string(to_string(it->second.kind)));
    }
    return *it->second.histogram;
  }
  Metric m;
  m.kind = MetricKind::kHistogram;
  m.unit = std::move(unit);
  m.histogram = std::make_unique<stats::Histogram>();
  stats::Histogram& ref = *m.histogram;
  insert(name, std::move(m));
  return ref;
}

bool MetricsRegistry::contains(const std::string& name) const {
  return metrics_.count(name) > 0;
}

double MetricsRegistry::read(const std::string& name) const {
  const Metric& m = metrics_.at(name);
  switch (m.kind) {
    case MetricKind::kCounter: return static_cast<double>(m.counter());
    case MetricKind::kGauge: return m.gauge();
    case MetricKind::kHistogram: break;
  }
  throw std::invalid_argument("MetricsRegistry::read: '" + name +
                              "' is a histogram, not a scalar");
}

MetricsRegistry::GaugeFn MetricsRegistry::reader(const std::string& name) const {
  const Metric& m = metrics_.at(name);
  switch (m.kind) {
    case MetricKind::kCounter:
      return [fn = m.counter]() { return static_cast<double>(fn()); };
    case MetricKind::kGauge: return m.gauge;
    case MetricKind::kHistogram: break;
  }
  throw std::invalid_argument("MetricsRegistry::reader: '" + name +
                              "' is a histogram, not a scalar");
}

std::vector<Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {
    switch (m.kind) {
      case MetricKind::kCounter: {
        Sample s;
        s.name = name;
        s.kind = MetricKind::kCounter;
        s.unit = m.unit;
        s.integral = true;
        s.integer = m.counter();
        out.push_back(std::move(s));
        break;
      }
      case MetricKind::kGauge: {
        Sample s;
        s.name = name;
        s.kind = MetricKind::kGauge;
        s.unit = m.unit;
        s.integral = false;
        s.real = m.gauge();
        out.push_back(std::move(s));
        break;
      }
      case MetricKind::kHistogram: {
        const stats::Histogram& h = *m.histogram;
        auto row = [&](const char* suffix, bool integral, std::int64_t i,
                       double r) {
          Sample s;
          s.name = name + "/" + suffix;
          s.kind = MetricKind::kHistogram;
          s.unit = m.unit;
          s.integral = integral;
          s.integer = i;
          s.real = r;
          out.push_back(std::move(s));
        };
        row("count", true, static_cast<std::int64_t>(h.count()), 0);
        if (!h.empty()) {
          row("min", false, 0, h.min());
          row("mean", false, 0, h.mean());
          row("p50", false, 0, h.median());
          row("p99", false, 0, h.p99());
          row("max", false, 0, h.max());
        }
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::write_rows(json::JsonWriter& w) const {
  w.begin_array();
  for (const Sample& s : snapshot()) {
    w.begin_object();
    w.kv("name", std::string_view(s.name));
    w.kv("kind", to_string(s.kind));
    if (!s.unit.empty()) w.kv("unit", std::string_view(s.unit));
    w.key("value");
    if (s.integral) {
      w.value(s.integer);
    } else {
      w.value(s.real);
    }
    w.end_object();
  }
  w.end_array();
}

std::string MetricsRegistry::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.key("metrics");
  write_rows(w);
  w.end_object();
  return w.take();
}

}  // namespace xmem::telemetry
