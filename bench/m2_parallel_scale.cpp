// M2 — parallel sweep engine: aggregate events/s vs worker count.
//
// Eight identical-shape replicas (each a private Testbed + CBR workload
// whose packet budget is jittered from the replica's Rng sub-stream, so
// every replica is a genuinely distinct simulation) are fanned across
// the SweepDriver at jobs = 1, 2, 4, 8. Reported per worker count:
// wall-clock, aggregate simulated events/s, and speedup over the serial
// run. The merged digest vector must be bit-identical at every worker
// count — that is the replica-isolation contract (DESIGN.md §17), and
// this bench is its perf-facing machine check.
//
// The speedup is printed [UNCHECKED] in every build: it measures the
// host as much as the engine (other processes, turbo, a CPU quota that
// host_cores() cannot see), so no bar on it passes reliably. The JSON
// records the host's core count in the "sweep" header; xmem_bench
// --compare is the repo's host-perf gate.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/parallel/sweep.hpp"

using namespace xmem;

namespace {

constexpr std::size_t kReplicas = 8;
constexpr std::uint64_t kBasePackets = 30'000;
constexpr std::uint64_t kSweepSeed = 0x32aa11e1ULL;

struct ReplicaDigest {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::int64_t bytes = 0;
  sim::Time end_time = 0;
  bool operator==(const ReplicaDigest&) const = default;
};

/// One independent simulation: CBR traffic host0 -> host1 through the
/// ToR, packet budget jittered from this replica's sub-stream.
ReplicaDigest run_replica(sim::par::ReplicaContext& ctx) {
  control::Testbed tb;
  host::PacketSink sink(tb.host(1));
  const std::uint64_t budget = kBasePackets + ctx.rng.uniform(2048);
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 256,
                           .rate = sim::gbps(10),
                           .packet_limit = budget});
  gen.start();
  tb.sim().run();

  ReplicaDigest d;
  d.events = tb.sim().queue().scheduled_count();
  d.delivered = sink.packets();
  d.bytes = sink.bytes();
  d.end_time = tb.sim().now();
  return d;
}

struct ScalePoint {
  std::size_t jobs = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::vector<ReplicaDigest> digests;
};

ScalePoint measure(std::size_t jobs) {
  sim::par::SweepDriver<ReplicaDigest> driver(
      {.jobs = jobs, .seed = kSweepSeed});
  std::vector<sim::par::SweepDriver<ReplicaDigest>::Cell> cells;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    cells.emplace_back(run_replica);
  }
  const auto start = std::chrono::steady_clock::now();
  ScalePoint p;
  p.digests = driver.run(cells);
  p.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  p.jobs = jobs;
  std::uint64_t total = 0;
  for (const ReplicaDigest& d : p.digests) total += d.events;
  p.events_per_sec =
      p.wall_s > 0 ? static_cast<double>(total) / p.wall_s : 0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("M2", "parallel sweep engine: events/s vs worker count",
                "independent replicas scale with cores; merged results stay "
                "bit-identical at every worker count (DESIGN.md §17)");

  const std::size_t cores = sim::par::host_cores();
  std::printf("host: %zu logical core(s); resolved default jobs = %zu\n",
              cores, sim::par::resolve_jobs(bench::parse_jobs(argc, argv)));

  stats::TablePrinter table(
      {"jobs", "wall (s)", "agg events/s", "speedup", "identical"});
  std::vector<ScalePoint> points;
  bool identical = true;
  for (const std::size_t jobs : {1UL, 2UL, 4UL, 8UL}) {
    points.push_back(measure(jobs));
    const ScalePoint& p = points.back();
    const bool same = p.digests == points.front().digests;
    identical = identical && same;
    const double speedup =
        points.front().events_per_sec > 0
            ? p.events_per_sec / points.front().events_per_sec
            : 0;
    table.add_row({std::to_string(p.jobs),
                   stats::TablePrinter::num(p.wall_s, 3),
                   stats::TablePrinter::num(p.events_per_sec / 1e6, 2) + " M",
                   stats::TablePrinter::num(speedup, 2),
                   same ? "yes" : "NO"});
    results.add("jobs" + std::to_string(p.jobs) + "_events_per_sec",
                p.events_per_sec, "events/s");
  }
  table.print("M2: aggregate simulated events/s vs sweep worker count");

  const ScalePoint& serial = points.front();
  const ScalePoint& eight = points.back();
  const double speedup8 = serial.events_per_sec > 0
                              ? eight.events_per_sec / serial.events_per_sec
                              : 0;
  std::uint64_t total_events = 0;
  for (const ReplicaDigest& d : serial.digests) total_events += d.events;

  results.set_sweep_info(
      sim::par::resolve_jobs(bench::parse_jobs(argc, argv)), cores);
  results.add("agg_events_per_sec", eight.events_per_sec, "events/s");
  results.add("speedup_8w", speedup8, "x");
  results.add("replica_events", static_cast<double>(total_events), "events");

  std::printf("[UNCHECKED] 8 workers deliver %.2fx over serial on a %zu-core "
              "host (host time)\n",
              speedup8, cores);
  results.verdict(identical,
                  "merged replica digests are bit-identical at jobs "
                  "1/2/4/8");
  return results.finish();
}
