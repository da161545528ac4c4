// The parallel sweep engine (DESIGN.md §17): worker-count resolution,
// the SweepDriver's ordered merge and ordered rethrow, and replicas that
// share no mutable state when they run on worker threads.
//
// No sleeps and no clocks: every check is on merged results, so the
// tests stay deterministic under TSan's scheduler perturbation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/env.hpp"
#include "sim/parallel/sweep.hpp"
#include "telemetry/int_collector.hpp"

namespace xmem::sim::par {
namespace {

TEST(ResolveJobs, ClampsAndOverrides) {
  EXPECT_GE(host_cores(), 1u);
  EXPECT_EQ(resolve_jobs(5), 5u);
  // With no request, the result is XMEM_JOBS or host_cores, always >= 1.
  EXPECT_GE(resolve_jobs(0), 1u);

  ::setenv("XMEM_JOBS", "3", 1);
  reset_env_for_test();
  EXPECT_EQ(resolve_jobs(0), 3u);
  EXPECT_EQ(resolve_jobs(2), 2u);  // explicit request still wins

  ::setenv("XMEM_JOBS", "not-a-number", 1);
  reset_env_for_test();
  EXPECT_EQ(resolve_jobs(0), host_cores());

  ::setenv("XMEM_JOBS", "0", 1);
  reset_env_for_test();
  EXPECT_EQ(resolve_jobs(0), host_cores());

  ::unsetenv("XMEM_JOBS");
  reset_env_for_test();
  EXPECT_EQ(resolve_jobs(0), host_cores());
}

TEST(SweepDriver, MergesResultsInCellIndexOrder) {
  SweepDriver<int> driver({.jobs = 4, .seed = 99});
  std::vector<SweepDriver<int>::Cell> cells;
  for (int i = 0; i < 12; ++i) {
    cells.emplace_back([i](ReplicaContext& ctx) {
      EXPECT_EQ(ctx.index, static_cast<std::size_t>(i));
      return i * 10;
    });
  }
  const std::vector<int> merged = driver.run(cells);
  ASSERT_EQ(merged.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(merged[static_cast<std::size_t>(i)], i * 10);
}

TEST(SweepDriver, ReplicaContextsAreDeterministicPerIndex) {
  // The same (sweep seed, index) always yields the same sub-stream,
  // regardless of worker count or which thread ran the cell.
  auto first_draw = [](std::size_t jobs) {
    SweepDriver<std::uint64_t> driver({.jobs = jobs, .seed = 0xfeedULL});
    std::vector<SweepDriver<std::uint64_t>::Cell> cells;
    for (int i = 0; i < 6; ++i) {
      cells.emplace_back([](ReplicaContext& ctx) { return ctx.rng.next(); });
    }
    return driver.run(cells);
  };
  const auto serial = first_draw(1);
  const auto parallel = first_draw(4);
  EXPECT_EQ(serial, parallel);
  // ...and distinct indices get distinct streams.
  for (std::size_t i = 1; i < serial.size(); ++i) {
    EXPECT_NE(serial[0], serial[i]);
  }
}

TEST(SweepDriver, LowestIndexedReplicaExceptionWins) {
  SweepDriver<int> driver({.jobs = 4, .seed = 1});
  std::vector<SweepDriver<int>::Cell> cells;
  for (int i = 0; i < 8; ++i) {
    cells.emplace_back([i](ReplicaContext&) -> int {
      if (i == 2) throw std::runtime_error("cell 2");
      if (i == 5) throw std::logic_error("cell 5");
      return i;
    });
  }
  // Both cells throw; the driver reports the lowest cell index, so the
  // failure a sweep surfaces is reproducible at any worker count.
  try {
    driver.run(cells);
    FAIL() << "sweep with a throwing replica must not succeed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 2");
  }
}

TEST(SweepDriver, SerialPathMatchesThreadedPath) {
  // jobs=1 takes the inline path (no thread); the observable contract is
  // identical either way.
  SweepDriver<std::size_t> serial({.jobs = 1, .seed = 7});
  SweepDriver<std::size_t> threaded({.jobs = 3, .seed = 7});
  std::vector<SweepDriver<std::size_t>::Cell> cells;
  for (int i = 0; i < 5; ++i) {
    cells.emplace_back(
        [](ReplicaContext& ctx) { return ctx.index + ctx.rng.uniform(100); });
  }
  EXPECT_EQ(serial.run(cells), threaded.run(cells));
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(threaded.jobs(), 3u);
}

// One replica with INT on: 20,000 CBR frames, each tagged at the host
// link and the ToR, collected at the sink. Returns the per-flow export.
std::string int_replica(ReplicaContext&) {
  control::Testbed tb;
  tb.enable_int();
  telemetry::IntCollector collector;
  host::PacketSink sink(tb.host(1));
  sink.set_int_collector(&collector);
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 256,
                                       .rate = sim::gbps(10),
                                       .packet_limit = 20000});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(collector.tagged_packets(), 20000u);
  return std::to_string(collector.hop_records()) + collector.flows_json();
}

TEST(SweepDriver, IntReplicasOnWorkerThreadsShareNoStacks) {
  // Every tagged frame's INT stack comes from a free list. Two replicas
  // on two threads must not share it: under ThreadSanitizer a shared
  // list is a data race, and a stack taken by both replicas at once
  // would mix their hop records.
  const std::vector<SweepDriver<std::string>::Cell> cells = {int_replica,
                                                             int_replica};
  const auto threaded = SweepDriver<std::string>({.jobs = 2}).run(cells);
  const auto serial = SweepDriver<std::string>({.jobs = 1}).run(cells);
  EXPECT_EQ(threaded, serial);
  EXPECT_EQ(threaded[0], threaded[1]);
}

}  // namespace
}  // namespace xmem::sim::par
