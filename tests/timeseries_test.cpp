// TimeSeriesRecorder contract: periodic sampling into bounded rings,
// derivative (rate) series, prefix tracking, and — the property CI
// artifact diffing rests on — byte-identical JSON exports across
// identical seeded runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace xmem::telemetry {
namespace {

TEST(TimeSeries, PeriodicSamplingRecordsOnePointPerTick) {
  sim::Simulator sim;
  MetricsRegistry reg;
  std::int64_t hits = 0;
  reg.register_counter("app/hits", [&]() { return hits; }, "hits");

  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10)});
  rec.track(reg, "app/hits");
  rec.start();

  // The counter advances between ticks; each tick must capture the
  // value live at that instant.
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(sim::microseconds(10 * i) - 1, [&hits, i]() { hits += i; });
  }
  sim.run_until(sim::microseconds(50));

  EXPECT_EQ(rec.ticks(), 5u);
  const auto pts = rec.points("app/hits");
  ASSERT_EQ(pts.size(), 5u);
  std::int64_t expect = 0;
  for (int i = 1; i <= 5; ++i) {
    expect += i;
    EXPECT_EQ(pts[static_cast<std::size_t>(i - 1)].t, sim::microseconds(10 * i));
    EXPECT_EQ(pts[static_cast<std::size_t>(i - 1)].value,
              static_cast<double>(expect));
  }
}

TEST(TimeSeries, RingOverwritesOldestAndCountsDrops) {
  sim::Simulator sim;
  MetricsRegistry reg;
  reg.register_gauge(
      "g", [&]() { return static_cast<double>(sim::to_microseconds(sim.now())); },
      "us");

  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10), .capacity = 4});
  rec.track(reg, "g");
  rec.start();
  sim.run_until(sim::microseconds(100));

  EXPECT_EQ(rec.ticks(), 10u);
  const auto pts = rec.points("g");
  ASSERT_EQ(pts.size(), 4u);  // ring bound holds
  // Oldest-first, and the survivors are the newest four ticks.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pts[i].t, sim::microseconds(70 + 10 * static_cast<int>(i)));
    EXPECT_EQ(pts[i].value, static_cast<double>(70 + 10 * i));
  }
  EXPECT_EQ(rec.dropped_points(), 6u);
  // The per-series drop count survives into the export.
  EXPECT_NE(rec.to_json().find("\"dropped\":6"), std::string::npos);
}

TEST(TimeSeries, RateSeriesDifferencesTheCounter) {
  sim::Simulator sim;
  MetricsRegistry reg;
  // Counter worth 3 per microsecond of sim time: the derivative must
  // come out at a constant 3e6/s regardless of the absolute value.
  reg.register_counter(
      "c", [&]() { return 3 * sim::to_microseconds(sim.now()); }, "ops");

  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10)});
  rec.track_rate(reg, "c", "ops/s");
  rec.start();
  sim.run_until(sim::microseconds(40));

  const auto pts = rec.points("c/rate");
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) EXPECT_DOUBLE_EQ(p.value, 3e6);
}

TEST(TimeSeries, TrackPrefixTakesScalarsAndSkipsHistograms) {
  sim::Simulator sim;
  MetricsRegistry reg;
  reg.register_counter("a/x", []() { return std::int64_t{1}; }, "ops");
  reg.register_gauge("a/y", []() { return 2.0; }, "ops");
  reg.histogram("a/h", "us");  // expands into summary rows, not a scalar
  reg.register_counter("b/z", []() { return std::int64_t{3}; }, "ops");

  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10)});
  EXPECT_EQ(rec.track_prefix(reg, "a"), 2u);
  EXPECT_EQ(rec.series_count(), 2u);
}

TEST(TimeSeries, StopEndsTheTicker) {
  sim::Simulator sim;
  MetricsRegistry reg;
  reg.register_gauge("g", []() { return 1.0; }, "");

  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10)});
  rec.track(reg, "g");
  rec.start();
  sim.schedule_at(sim::microseconds(45), [&rec]() { rec.stop(); });
  sim.run();

  EXPECT_FALSE(rec.running());
  // Ticks at 10..40 sample; the 50 us tick finds the recorder stopped,
  // samples nothing and schedules nothing, so the queue drains.
  EXPECT_EQ(rec.ticks(), 4u);
  EXPECT_EQ(sim.now(), sim::microseconds(50));
}

TEST(TimeSeries, InvalidConfigAndUnknownNamesThrow) {
  sim::Simulator sim;
  MetricsRegistry reg;
  EXPECT_THROW(TimeSeriesRecorder(sim, {.period = 0}), std::invalid_argument);
  EXPECT_THROW(TimeSeriesRecorder(sim, {.capacity = 0}),
               std::invalid_argument);
  TimeSeriesRecorder rec(sim, {});
  EXPECT_THROW(rec.track(reg, "nope"), std::invalid_argument);
  EXPECT_THROW(rec.track_rate(reg, "nope", "ops/s"), std::invalid_argument);
  EXPECT_THROW((void)rec.points("nope"), std::out_of_range);
}

TEST(TimeSeries, SeriesAddedAfterStartJoinsAtTheNextTick) {
  sim::Simulator sim;
  sim.schedule_in(sim::microseconds(100), []() {});  // keep the queue alive
  TimeSeriesRecorder rec(sim, {.period = sim::microseconds(10)});
  rec.add_series("clock", "us", [&sim]() {
    return static_cast<double>(sim::to_microseconds(sim.now()));
  });
  rec.start();
  sim.schedule_at(sim::microseconds(15), [&rec]() {
    rec.add_series("late", "", []() { return 2.0; });
  });
  sim.schedule_at(sim::microseconds(35), [&rec]() { rec.stop(); });
  sim.run();

  EXPECT_FALSE(rec.running());
  // Ticks at 10, 20 and 30 us sample; the recorder is stopped before the
  // 40 us tick. Nothing is sampled at t = 0.
  EXPECT_EQ(rec.ticks(), 3u);
  std::vector<std::pair<sim::Time, double>> clock;
  for (const auto& p : rec.points("clock")) clock.emplace_back(p.t, p.value);
  EXPECT_EQ(clock, (std::vector<std::pair<sim::Time, double>>{
                       {sim::microseconds(10), 10.0},
                       {sim::microseconds(20), 20.0},
                       {sim::microseconds(30), 30.0}}));
  const auto late = rec.points("late");
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late.front().t, sim::microseconds(20));
}

/// Two independent builds of the same seeded scenario. The exports
/// being byte-identical is what lets CI diff artifacts across runs.
std::string run_scenario() {
  sim::Simulator sim;
  MetricsRegistry reg;
  std::int64_t ops = 0;
  reg.register_counter("app/ops", [&]() { return ops; }, "ops");
  reg.register_gauge(
      "app/depth",
      [&]() { return static_cast<double>((ops * 7) % 13); }, "pkts");

  TimeSeriesRecorder rec(sim,
                         {.period = sim::microseconds(5), .capacity = 32});
  rec.track_prefix(reg, "app");
  rec.track_rate(reg, "app/ops", "ops/s");
  rec.start();
  // A deterministic little workload: bursts of increments.
  for (int i = 0; i < 40; ++i) {
    sim.schedule_at(sim::microseconds(3 * i), [&ops, i]() { ops += i % 5; });
  }
  sim.run_until(sim::microseconds(250));
  rec.stop();
  return rec.to_json();
}

TEST(TimeSeries, ExportsAreByteIdenticalAcrossIdenticalRuns) {
  const std::string json_a = run_scenario();
  const std::string json_b = run_scenario();
  EXPECT_EQ(json_a, json_b);

  // And the JSON is well-formed under the repo parser with the pinned
  // schema tag.
  const json::Value doc = json::parse(json_a);
  EXPECT_EQ(doc.at("schema").string(), "xmem-timeseries-v1");
  EXPECT_EQ(doc.at("series").array().size(), 3u);
}

}  // namespace
}  // namespace xmem::telemetry
