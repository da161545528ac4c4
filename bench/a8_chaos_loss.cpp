// A8 (chaos harness) — burstiness matters, not just the average loss rate.
//
// The reliability analysis in §7 (and bench A3) treats loss as uniform
// and independent. Real failures cluster: a flapping optic or a
// congested fabric drops tens of consecutive frames. This bench drives
// the reliable state store through the chaos harness's Gilbert–Elliott
// link model and compares it against uniform loss at the SAME long-run
// average rate: counts stay exact either way, but a burst stalls the
// whole go-back-N window at once, so long bursts trip the shard-health
// machinery and register a measurable failover outage where uniform
// loss never does.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/parallel/sweep.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kPackets = 20000;

struct Row {
  double accuracy_pct = 0;     // remote counts / sampled packets
  double goodput_mpps = 0;     // acked counts per second of sim time
  double completion_ms = 0;    // sim time until every count is acked
  std::uint64_t retransmits = 0;
  std::uint64_t down_transitions = 0;
  double failover_us = 0;      // total shard outage (0 = never down)
};

Row run(const topo::LinkFaultProfile& profile, std::uint64_t seed) {
  control::Testbed tb;
  control::ChannelController::ChannelSpec spec;
  spec.region_bytes = 4096;
  spec.tolerate_psn_gaps = false;  // strict RC: the reliable path
  auto channel =
      tb.controller().setup_channel(tb.host(2), tb.port_of(2), spec);
  core::StateStorePrimitive store(
      tb.tor(), channel,
      {.reliable = true, .retransmit_timeout = sim::microseconds(100)});
  tb.link_of(2).set_fault_profile(profile, seed);

  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 128,
                                       .rate = sim::gbps(10),
                                       .packet_limit = kPackets});
  gen.start();
  tb.sim().run();
  for (int i = 0; i < 200 && !store.quiescent(); ++i) {
    store.flush();
    tb.sim().run_until(tb.sim().now() + sim::milliseconds(1));
    tb.sim().run();
  }
  const sim::Time quiet = tb.sim().now();

  auto region = control::ChannelController::region_bytes(tb.host(2), channel);
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    counted += rnic::load_le64(region.subspan(i, 8));
  }

  Row row;
  row.accuracy_pct = 100.0 * static_cast<double>(counted) /
                     static_cast<double>(store.stats().sampled_packets);
  row.goodput_mpps = static_cast<double>(store.stats().acks_received) /
                     (static_cast<double>(quiet) / sim::kSecond) / 1e6;
  row.completion_ms = static_cast<double>(quiet) / sim::kMillisecond;
  row.retransmits = store.stats().retransmits;
  row.down_transitions = store.channels().shard_stats(0).down_transitions;
  row.failover_us =
      static_cast<double>(store.channels().outage(0)) / sim::kMicrosecond;
  return row;
}

topo::LinkFaultProfile uniform(double rate) {
  topo::LinkFaultProfile p;
  p.loss_rate = rate;
  return p;
}

/// Gilbert–Elliott chain with the requested long-run mean: near-total
/// loss in the bad state, mean burst length `1/exit_bad` frames.
topo::LinkFaultProfile bursty(double mean_rate, double exit_bad) {
  topo::GilbertElliott ge;
  ge.loss_bad = 0.95;
  ge.exit_bad = exit_bad;
  const double pi_bad = mean_rate / ge.loss_bad;
  ge.enter_bad = exit_bad * pi_bad / (1.0 - pi_bad);
  topo::LinkFaultProfile p;
  p.burst = ge;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("A8 (chaos harness)",
                "uniform vs Gilbert-Elliott burst loss at equal mean rate",
                "reliable counters stay exact under both; bursts cost "
                "goodput and can trip shard failover");
  bench::BenchResults results(argc, argv);

  stats::TablePrinter table({"mean loss", "shape", "accuracy", "goodput",
                             "completion", "rexmits", "downs", "failover"});
  // 3 rates x {uniform, burst} = 6 independent cells. Fault-profile
  // seeds come from each cell's Rng sub-stream (ctx.stream_seed) instead
  // of the old `seed++` counter, so adjacent cells draw from unrelated
  // parts of the seed space and the sweep stays deterministic at any
  // --jobs. Mean burst length 50 frames: long enough that a bad episode
  // eats a whole retransmit round and (at the higher rates) a NAK streak.
  const std::vector<double> rates = {0.01, 0.03, 0.05};
  std::vector<topo::LinkFaultProfile> profiles;
  for (const double rate : rates) {
    profiles.push_back(uniform(rate));
    profiles.push_back(bursty(rate, /*exit_bad=*/0.02));
  }
  sim::par::SweepDriver<Row> driver(
      {.jobs = bench::parse_jobs(argc, argv), .seed = 0xa8c4a05ULL});
  std::vector<sim::par::SweepDriver<Row>::Cell> cells;
  for (const auto& profile : profiles) {
    cells.emplace_back([profile](sim::par::ReplicaContext& ctx) {
      return run(profile, ctx.stream_seed);
    });
  }
  const std::vector<Row> rows = driver.run(cells);
  results.set_sweep_info(driver.jobs(), sim::par::host_cores());
  std::printf("sweep: %zu cells across %zu worker(s)\n", rows.size(),
              driver.jobs());

  bool all_exact = true;
  bool burst_trips_failover = false;
  bool uniform_never_down = true;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    const Row& uni = rows[2 * ri];
    const Row& ge = rows[2 * ri + 1];
    all_exact &= uni.accuracy_pct > 99.999 && ge.accuracy_pct > 99.999;
    burst_trips_failover |= ge.down_transitions > 0;
    uniform_never_down &= uni.down_transitions == 0;

    char label[32];
    std::snprintf(label, sizeof(label), "%.0f%%", rate * 100);
    for (const auto& [shape, row] :
         {std::pair<const char*, const Row&>{"uniform", uni},
          std::pair<const char*, const Row&>{"GE burst", ge}}) {
      table.add_row({label, shape,
                     stats::TablePrinter::num(row.accuracy_pct, 3) + "%",
                     stats::TablePrinter::num(row.goodput_mpps, 2) + " Mops/s",
                     stats::TablePrinter::num(row.completion_ms, 2) + " ms",
                     std::to_string(row.retransmits),
                     std::to_string(row.down_transitions),
                     stats::TablePrinter::num(row.failover_us, 0) + " us"});
      const std::string prefix =
          std::string(shape == std::string("uniform") ? "uniform" : "burst") +
          "/" + label;
      results.add(prefix + "/accuracy", row.accuracy_pct, "percent");
      results.add(prefix + "/goodput", row.goodput_mpps, "Mops/s");
      results.add(prefix + "/completion", row.completion_ms, "ms");
      results.add(prefix + "/retransmits",
                  static_cast<double>(row.retransmits), "ops");
      results.add(prefix + "/failover_duration", row.failover_us, "us");
    }
  }
  table.print("A8: reliable state store, uniform vs burst loss");

  results.verdict(all_exact,
                  "exactly-once counting holds under uniform AND burst loss "
                  "at every rate");
  results.verdict(burst_trips_failover && uniform_never_down,
                  "bursts reach the health thresholds and register a "
                  "measurable failover outage; uniform loss at the same "
                  "mean rate never does");
  return results.finish();
}
