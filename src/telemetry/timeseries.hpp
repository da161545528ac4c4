// TimeSeriesRecorder: the simulator's one sim-clock sampler.
//
// The registry answers "what is the value now"; benches that print it at
// exit get one number per run. The recorder turns the same callbacks into
// curves: every `period` of simulated time it reads each tracked series
// into that series' bounded ring (capacity points, oldest overwritten and
// counted), exported as "xmem-timeseries-v1" JSON, so a recorder left on
// for an arbitrarily long run costs a fixed amount of memory.
//
// Because the simulator runs until its event queue drains, a recorder
// that rescheduled forever would keep every experiment alive: the owner
// calls stop(), typically from an event scheduled at the end of the
// run, and the next tick then ends the series without sampling. The
// first sample is taken one period after start().
//
// Everything is driven by simulator events and reads deterministic
// callbacks, so two runs of the same seeded simulation export
// byte-identical JSON — the property timeseries_test.cpp pins and CI
// relies on when diffing artifacts.
//
// Derivative series (track_rate) turn monotone counters into per-second
// rates — `bytes delivered` becomes the goodput-over-time curve that
// makes an RNIC restart visible as a dip instead of a slightly worse
// mean.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ring.hpp"

namespace xmem::telemetry {

class TimeSeriesRecorder {
 public:
  struct Config {
    sim::Time period = sim::microseconds(20);
    std::size_t capacity = 4096;  ///< Points per series before overwrite.
  };

  /// One sampled point. The wire layout is pinned because exports and
  /// the xmem_report tool treat it as an interchange format.
  struct Point {
    sim::Time t = 0;    ///< Sample time, picoseconds.
    double value = 0.0;

    static constexpr std::size_t kWireBytes = 16;

    void serialize(net::ByteWriter& w) const;
    [[nodiscard]] static Point parse(net::ByteReader& r);
  };

  TimeSeriesRecorder(sim::Simulator& simulator, Config config);

  /// Sample registry counter/gauge `name` every tick. The metric must be
  /// registered before track() (its unit is captured here); it must stay
  /// registered for the recorder's lifetime.
  void track(const MetricsRegistry& registry, const std::string& name);

  /// track() every counter and gauge whose name starts with `prefix`
  /// (histograms are skipped: their summary rows are not scalar reads).
  /// Returns how many series were added.
  std::size_t track_prefix(const MetricsRegistry& registry,
                           const std::string& prefix);

  /// Sample the per-second rate of counter/gauge `name`: each tick
  /// records (value - previous) / period_seconds. First tick is relative
  /// to the value at start().
  void track_rate(const MetricsRegistry& registry, const std::string& name,
                  std::string unit);

  /// Sample an arbitrary callback (queue depths, channel health, ...).
  void add_series(std::string name, std::string unit,
                  std::function<double()> fn);

  /// Begin ticking. Series added after start() join at the next tick
  /// with a shorter history (each point carries its own timestamp).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  /// Points discarded across all rings because a ring was full.
  [[nodiscard]] std::uint64_t dropped_points() const;

  /// Retained points of one series, oldest first. Throws
  /// std::out_of_range for unknown names.
  [[nodiscard]] std::vector<Point> points(const std::string& name) const;

  /// JSON export, schema "xmem-timeseries-v1":
  ///   {"schema":...,"period_us":...,"capacity":...,"ticks":...,
  ///    "series":[{"name":...,"unit":...,"dropped":N,
  ///               "points":[[t_us,value],...]},...]}
  /// Series order is lexicographic; byte-identical across identical runs.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::function<double()> read;
    Ring<Point> ring;
  };

  void tick();
  /// Lexicographic view over series_ (stable export order regardless of
  /// registration order).
  [[nodiscard]] std::vector<const Series*> sorted_series() const;
  /// Capture the metric's unit from a snapshot row (empty if absent).
  [[nodiscard]] static std::string unit_of(const MetricsRegistry& registry,
                                           const std::string& name);

  sim::Simulator* sim_;
  Config config_;
  std::vector<Series> series_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
};

static_assert(TimeSeriesRecorder::Point::kWireBytes == 8 + 8,
              "Point wire layout changed; update kWireBytes");

}  // namespace xmem::telemetry
